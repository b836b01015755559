#include "vmm/hvm.hpp"

#include <algorithm>

#include "support/flightrec.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::vmm {

const char* hypercall_name(Hypercall h) noexcept {
  switch (h) {
    case Hypercall::kInstallHrtImage: return "install_hrt_image";
    case Hypercall::kBootHrt: return "boot_hrt";
    case Hypercall::kRebootHrt: return "reboot_hrt";
    case Hypercall::kMergeAddressSpaces: return "merge_address_spaces";
    case Hypercall::kAsyncCall: return "async_call";
    case Hypercall::kSetupSyncCall: return "setup_sync_call";
    case Hypercall::kHrtDone: return "hrt_done";
    case Hypercall::kSignalRos: return "signal_ros";
    case Hypercall::kRegisterRosSignal: return "register_ros_signal";
    case Hypercall::kRaiseRos: return "raise_ros";
    case Hypercall::kBootTenant: return "boot_tenant";
    case Hypercall::kCount_: break;
  }
  return "?";
}

Hvm::Hvm(hw::Machine& machine, HvmConfig config)
    : machine_(&machine), config_(std::move(config)) {
  // The HRT partition starts where the ROS partition ends; the shared data
  // page lives at its very bottom so both sides can name it trivially.
  hrt_bump_ = config_.ros_mem_bytes;
  auto page = hrt_alloc(hw::kPageSize);
  MV_CHECK_OK(page);
  comm_page_ = *page;

  metrics::Registry& reg = metrics::Registry::instance();
  for (std::size_t i = 0; i < hc_metrics_.size(); ++i) {
    hc_metrics_[i] = &reg.counter(
        strfmt("hvm/hypercall/%s", hypercall_name(static_cast<Hypercall>(i))));
  }
  injection_metric_ = &reg.counter("hvm/injections");
  exit_metric_ = &reg.counter("hvm/exits");

  // Role-named Perfetto tracks for the partitioned cores; cores outside the
  // partition keep the machine's socket-based defaults. The synthetic VMM
  // track hosts the doorbell hops of every request's span chain.
  Tracer& tracer = Tracer::instance();
  for (const unsigned core : config_.hrt_cores) {
    tracer.set_track_name(core, strfmt("hrt/core-%u", core));
  }
  for (const unsigned core : config_.ros_cores) {
    tracer.set_track_name(core, strfmt("ros/core-%u", core));
  }
  tracer.set_track_name(Tracer::kVmmTrack, "vmm");
}

void Hvm::count_hypercall(Hypercall nr) {
  ++exits_;
  MV_COUNTER_INC(exit_metric_, 1);
  ++hc_counts_[static_cast<std::size_t>(nr)];
  MV_COUNTER_INC(hc_metrics_[static_cast<std::size_t>(nr)], 1);
}

void Hvm::count_injection(unsigned vcore, const char* what) {
  ++injections_;
  MV_COUNTER_INC(injection_metric_, 1);
  MV_TRACE_INSTANT(vcore, "hvm", what);
}

bool Hvm::is_ros_core(unsigned core) const {
  return std::find(config_.ros_cores.begin(), config_.ros_cores.end(), core) !=
         config_.ros_cores.end();
}

bool Hvm::is_hrt_core(unsigned core) const {
  return std::find(config_.hrt_cores.begin(), config_.hrt_cores.end(), core) !=
         config_.hrt_cores.end();
}

Result<std::uint64_t> Hvm::hrt_alloc(std::uint64_t bytes) {
  const std::uint64_t span = hw::page_ceil(bytes);
  // Exact-size freed ranges are recycled LIFO before the bump cursor grows:
  // tenant create/destroy cycles allocate the same shapes (channel page,
  // PML4 root) every time, so churn reaches a steady-state footprint.
  if (auto it = hrt_freelist_.find(span);
      it != hrt_freelist_.end() && !it->second.empty()) {
    const std::uint64_t base = it->second.back();
    it->second.pop_back();
    MV_RETURN_IF_ERROR(machine_->mem().reserve_range(base, span));
    return base;
  }
  const std::uint64_t base = hw::page_ceil(hrt_bump_);
  const std::uint64_t end = base + span;
  if (end > machine_->config().dram_bytes) {
    return err(Err::kNoMem, "HRT partition exhausted");
  }
  MV_RETURN_IF_ERROR(machine_->mem().reserve_range(base, span));
  hrt_bump_ = end;
  return base;
}

void Hvm::hrt_free(std::uint64_t base, std::uint64_t bytes) {
  const std::uint64_t span = hw::page_ceil(bytes);
  for (std::uint64_t off = 0; off < span; off += hw::kPageSize) {
    MV_CHECK_OK(machine_->mem().free_frame(base + off));
  }
  hrt_freelist_[span].push_back(base);
}

std::uint64_t Hvm::comm_read(std::uint64_t offset) const {
  // Hard check in every build type: a failed comm-page read in a Release
  // build would otherwise silently hand protocol state back as garbage.
  auto r = machine_->mem().read_u64(comm_page_ + offset);
  MV_CHECK_OK(r);
  return *r;
}

void Hvm::comm_write(std::uint64_t offset, std::uint64_t value) {
  MV_CHECK_OK(machine_->mem().write_u64(comm_page_ + offset, value));
}

Result<std::uint64_t> Hvm::install_hrt_image(
    unsigned vcore, std::span<const std::uint8_t> blob) {
  // Exit accounting: the install request arrives as a hypercall.
  count_hypercall(Hypercall::kInstallHrtImage);
  hw::Core& core = machine_->core(vcore);
  core.charge(hw::costs().hypercall_roundtrip());

  MV_ASSIGN_OR_RETURN(const HrtImage image, HrtImage::parse(blob));
  const std::uint64_t span = std::max<std::uint64_t>(image.load_span(), 1);
  MV_ASSIGN_OR_RETURN(const std::uint64_t base, hrt_alloc(span));
  for (const auto& sec : image.sections()) {
    MV_RETURN_IF_ERROR(machine_->mem().write(base + sec.load_offset,
                                             sec.bytes.data(),
                                             sec.bytes.size()));
    core.charge(hw::costs().mem_access * (sec.bytes.size() / 64 + 1));
  }
  installed_base_ = base;
  installed_span_ = span;
  installed_entry_ = image.entry_offset();
  MV_INFO("hvm", strfmt("installed HRT image at %#llx (%llu bytes)",
                        static_cast<unsigned long long>(base),
                        static_cast<unsigned long long>(span)));
  return base;
}

Status Hvm::check_partition_boot_state(unsigned vcore) const {
  if (!is_ros_core(vcore)) {
    return err(Err::kPerm, "hypercall from non-ROS core");
  }
  if (hrt_ == nullptr) return err(Err::kState, "no HRT kernel attached");
  return Status::ok();
}

Result<std::uint64_t> Hvm::do_boot(unsigned vcore) {
  MV_RETURN_IF_ERROR(check_partition_boot_state(vcore));
  if (installed_base_ == 0) return err(Err::kState, "no HRT image installed");
  BootInfo info;
  info.image_base_paddr = installed_base_;
  info.image_span = installed_span_;
  info.entry_offset = installed_entry_;
  info.comm_page_paddr = comm_page_;
  info.hrt_mem_base = config_.ros_mem_bytes;
  info.hrt_mem_bytes = machine_->config().dram_bytes - config_.ros_mem_bytes;
  info.dram_bytes = machine_->config().dram_bytes;
  info.hrt_cores = config_.hrt_cores;

  // Boot is milliseconds — "on par with a process fork()+exec() in the ROS".
  hw::Core& boot_core = machine_->core(config_.hrt_cores.front());
  const Cycles before = boot_core.cycles();
  boot_core.charge(us_to_cycles(1800));  // firmware-ish bring-up
  MV_RETURN_IF_ERROR(hrt_->boot(info));
  last_boot_cycles_ = boot_core.cycles() - before;
  hrt_booted_ = true;
  return std::uint64_t{0};
}

Result<std::uint64_t> Hvm::do_merge(unsigned vcore, std::uint64_t ros_cr3) {
  MV_RETURN_IF_ERROR(check_partition_boot_state(vcore));
  if (!hrt_booted_) return err(Err::kState, "HRT not booted");
  // "For an address space merger, the page contains the CR3 of the calling
  // process." The VMM forwards the request to the HRT as a special
  // exception; the HRT performs the PML4 copy and shootdown, then signals
  // completion (kHrtDone, accounted inside on_hvm_event's return path).
  comm_write(CommPage::kOffRosCr3, ros_cr3);
  comm_write(CommPage::kOffKind,
             static_cast<std::uint64_t>(HrtEventKind::kMerge));
  machine_->core(vcore).charge(hw::costs().event_inject);
  count_injection(config_.hrt_cores.front(), "inject:merge");
  MV_RETURN_IF_ERROR(hrt_->on_hvm_event(HrtEventKind::kMerge));
  comm_write(CommPage::kOffKind, 0);
  return comm_read(CommPage::kOffRetCode);
}

Result<std::uint64_t> Hvm::do_async_call(unsigned vcore, std::uint64_t func,
                                         std::uint64_t arg) {
  MV_RETURN_IF_ERROR(check_partition_boot_state(vcore));
  if (!hrt_booted_) return err(Err::kState, "HRT not booted");
  comm_write(CommPage::kOffFuncPtr, func);
  comm_write(CommPage::kOffFuncArg, arg);
  comm_write(CommPage::kOffKind,
             static_cast<std::uint64_t>(HrtEventKind::kFunctionCall));
  machine_->core(vcore).charge(hw::costs().event_inject);
  count_injection(config_.hrt_cores.front(), "inject:function_call");
  MV_RETURN_IF_ERROR(hrt_->on_hvm_event(HrtEventKind::kFunctionCall));
  comm_write(CommPage::kOffKind, 0);
  return comm_read(CommPage::kOffRetCode);
}

Result<std::uint64_t> Hvm::hypercall(unsigned vcore, Hypercall nr,
                                     std::uint64_t a0, std::uint64_t a1) {
  // Every hypercall is a VM exit on the issuing vcore.
  count_hypercall(nr);
  hw::Core& core = machine_->core(vcore);
  core.charge(hw::costs().hypercall_roundtrip());

  switch (nr) {
    case Hypercall::kBootHrt:
      return do_boot(vcore);
    case Hypercall::kRebootHrt: {
      MV_RETURN_IF_ERROR(check_partition_boot_state(vcore));
      if (hrt_booted_) hrt_->reboot();
      hrt_booted_ = false;
      return do_boot(vcore);
    }
    case Hypercall::kMergeAddressSpaces:
      return do_merge(vcore, a0);
    case Hypercall::kAsyncCall:
      return do_async_call(vcore, a0, a1);
    case Hypercall::kSetupSyncCall: {
      MV_RETURN_IF_ERROR(check_partition_boot_state(vcore));
      comm_write(CommPage::kOffSyncVaddr, a0);
      return std::uint64_t{0};
    }
    case Hypercall::kHrtDone: {
      if (!is_hrt_core(vcore)) {
        return err(Err::kPerm, "kHrtDone from non-HRT core");
      }
      comm_write(CommPage::kOffDone, 1);
      return std::uint64_t{0};
    }
    case Hypercall::kSignalRos: {
      if (!is_hrt_core(vcore)) {
        return err(Err::kPerm, "kSignalRos from non-HRT core");
      }
      if (!ros_user_interrupt_) {
        return err(Err::kState, "no ROS signal handler registered");
      }
      // "Interrupt to user": lower priority than real exceptions; in the
      // cooperative simulation the next user-mode entry is immediate.
      core.charge(hw::costs().user_interrupt_setup);
      count_injection(config_.ros_cores.front(), "inject:interrupt_to_user");
      ros_user_interrupt_(a0);
      return std::uint64_t{0};
    }
    case Hypercall::kRaiseRos: {
      if (!is_hrt_core(vcore)) {
        return err(Err::kPerm, "kRaiseRos from non-HRT core");
      }
      if (!ros_doorbell_) {
        return err(Err::kState, "no ROS doorbell registered");
      }
      // One doorbell flushes a0's whole pending window: the VMM injects a
      // single event into the ROS side regardless of how many submissions
      // the ring holds — that is the entire point of batching.
      core.charge(hw::costs().event_inject);
      count_injection(config_.ros_cores.front(), "inject:doorbell");
      MV_FR_EVENT(config_.ros_cores.front(), FrKind::kDoorbell, 0, a0, a1,
                  "vmm");
      // The governing plan is resolved per channel so one tenant's fault
      // schedule never perturbs another tenant's doorbells.
      FaultPlan* plan =
          doorbell_fault_resolver_ ? doorbell_fault_resolver_(a0) : nullptr;
      if (plan != nullptr &&
          plan->should_inject(FaultClass::kDropDoorbell, core.cycles())) {
        // The doorbell event vanished inside the VMM: the hypercall itself
        // succeeded (the guest cannot tell), delivery never happens. The
        // channel's deadline/retry machinery is what recovers.
        plan->note_injected(FaultClass::kDropDoorbell);
        return std::uint64_t{0};
      }
      ros_doorbell_(a0, a1);
      if (plan != nullptr &&
          plan->should_inject(FaultClass::kDupDoorbell, core.cycles())) {
        // Duplicated delivery: the wake path is idempotent (unblocking a
        // runnable server is a no-op), so the dup is absorbed on the spot.
        plan->note_injected(FaultClass::kDupDoorbell);
        ros_doorbell_(a0, a1);
        plan->note_recovered(FaultClass::kDupDoorbell);
      }
      return std::uint64_t{0};
    }
    case Hypercall::kBootTenant: {
      MV_RETURN_IF_ERROR(check_partition_boot_state(vcore));
      if (!hrt_booted_) return err(Err::kState, "HRT not booted");
      // Cached-image boot: the installed image and the booted kernel are
      // reused as-is — no firmware bring-up, no image copy. The kernel only
      // stamps a fresh address-space root whose higher half shares the boot
      // root's subtrees (copy-on-write template) and whose user half merges
      // the tenant process's CR3 (a0). Cost is one hypercall round trip plus
      // the sparse PML4 stamp, microseconds against the ~2.2 ms cold boot.
      comm_write(CommPage::kOffRosCr3, a0);
      machine_->core(vcore).charge(hw::costs().event_inject);
      count_injection(config_.hrt_cores.front(), "inject:boot_tenant");
      return hrt_->boot_tenant(a0);
    }
    case Hypercall::kRegisterRosSignal:
      ros_signal_handler_ = a0;
      return std::uint64_t{0};
    case Hypercall::kInstallHrtImage:
      return err(Err::kInval, "use install_hrt_image() for the image blob");
    case Hypercall::kCount_:
      break;
  }
  return err(Err::kInval, "unknown hypercall");
}

void Hvm::register_ros_user_interrupt(std::uint64_t handler_id,
                                      UserInterrupt fn) {
  ros_signal_handler_ = handler_id;
  ros_user_interrupt_ = std::move(fn);
}

void Hvm::register_ros_doorbell(RosDoorbell fn) {
  ros_doorbell_ = std::move(fn);
}

}  // namespace mv::vmm
