#include "hw/machine.hpp"

#include "support/faultplan.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::hw {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      mem_(config.dram_bytes, config.sockets),
      paging_(mem_) {
  for (unsigned s = 0; s < config.sockets; ++s) {
    for (unsigned c = 0; c < config.cores_per_socket; ++c) {
      const auto id = static_cast<unsigned>(cores_.size());
      cores_.push_back(std::make_unique<Core>(*this, id, s));
    }
  }
  // This machine's per-core cycle counters become the tracer's simulated
  // clock (the newest machine wins when tests build several).
  Tracer& tracer = Tracer::instance();
  tracer.bind_clock(this, [this](unsigned core_id) -> std::uint64_t {
    return core_id < cores_.size() ? cores_[core_id]->cycles() : 0;
  });
  for (const auto& c : cores_) {
    tracer.set_track_name(
        c->id(), strfmt("core%u (socket%u)", c->id(), c->socket()));
  }
}

Machine::~Machine() { Tracer::instance().clear_clock(this); }

Status Machine::send_ipi(unsigned from, unsigned to, std::uint8_t vector,
                         std::uint64_t payload) {
  if (to >= cores_.size()) return err(Err::kInval, "IPI to bad core");
  ++ipis_sent_;
  core(from).charge(costs().tlb_shootdown_ipi / 2);  // send half
  InterruptFrame frame;
  frame.vector = vector;
  frame.payload = payload;
  return core(to).deliver(frame);
}

void Machine::shootdown_ipi_round(Core& init, unsigned target) {
  init.charge(costs().tlb_shootdown_ipi);
  ++ipis_sent_;
  // The governing plan is resolved by initiating core so one tenant's
  // IPI-fault schedule never perturbs another tenant's shootdowns.
  FaultPlan* plan =
      ipi_fault_resolver_ ? ipi_fault_resolver_(init.id()) : nullptr;
  if (plan != nullptr &&
      plan->should_inject(FaultClass::kDropShootdownIpi, init.cycles())) {
    // The IPI was lost on the wire. The initiator's ack timeout expires and
    // it resends — a full extra round. Recovery is bounded and local, so the
    // invalidation below still happens; only latency (and the IPI count)
    // shows the fault.
    plan->note_injected(FaultClass::kDropShootdownIpi);
    init.charge(costs().tlb_shootdown_ipi);
    ++ipis_sent_;
    plan->note_recovered(FaultClass::kDropShootdownIpi);
  }
  (void)target;
}

void Machine::tlb_shootdown(unsigned initiator,
                            const std::vector<unsigned>& targets,
                            std::uint64_t vaddr) {
  Core& init = core(initiator);
  for (unsigned t : targets) {
    shootdown_ipi_round(init, t);
    Core& target = core(t);
    if (vaddr == 0) {
      target.tlb().flush();
    } else {
      target.tlb().invalidate_page(vaddr);
    }
  }
  // Initiator flushes its own TLB entry too.
  if (vaddr == 0) {
    init.tlb().flush();
  } else {
    init.tlb().invalidate_page(vaddr);
  }
}

void Machine::tlb_shootdown(unsigned initiator,
                            const std::vector<unsigned>& targets,
                            const std::vector<std::uint64_t>& vaddrs) {
  if (vaddrs.empty()) return;
  Core& init = core(initiator);
  for (unsigned t : targets) {
    shootdown_ipi_round(init, t);
    Core& target = core(t);
    for (const std::uint64_t va : vaddrs) {
      target.tlb().invalidate_page(va);
    }
  }
  for (const std::uint64_t va : vaddrs) {
    init.tlb().invalidate_page(va);
  }
}

}  // namespace mv::hw
