// Ablation: what the batched submission/completion ring buys on the
// asynchronous event-channel transport. Two effects are measured against the
// depth-1 compatibility mode (which reproduces the old single-slot protocol
// exactly):
//
//   1. doorbell coalescing — a syscall batch staged in the ring flushes with
//      (far) fewer than one kRaiseRos hypercall per forwarded request;
//   2. claim concurrency — nested HRT threads contending for the channel
//      queue behind ring slots instead of one global slot, cutting the
//      queue-wait tail.

#include "common.hpp"
#include "support/faultplan.hpp"

namespace mvbench {
namespace {

double queue_wait_p99() {
  double p99 = 0;
  for (const auto& [name, h] :
       metrics::Registry::instance().histograms_with_prefix("channel/")) {
    if (name.find("queue_wait") != std::string::npos && h->count() > 0) {
      p99 = std::max(p99, h->percentile(99));
    }
  }
  return p99;
}

struct BatchStats {
  double requests = 0;
  double doorbells = 0;
  [[nodiscard]] double ratio() const {
    return requests > 0 ? doorbells / requests : 0;
  }
};

// One HRT thread pushes syscall batches through the channel ring.
BatchStats measure_batch_flush(int ring_depth) {
  begin_measurement();
  SystemConfig cfg;
  cfg.extra_override_config = strfmt("option ring_depth %d\n", ring_depth);
  HybridSystem system(cfg);
  auto r = system.run_hybrid("ring-batch", [](ros::SysIface& s) {
    for (int round = 0; round < 16; ++round) {
      std::vector<ros::SysReq> reqs(32);
      for (auto& req : reqs) req.nr = ros::SysNr::kGetpid;
      for (auto& res : s.syscall_batch(reqs)) {
        if (!res.is_ok()) return 1;
      }
    }
    return 0;
  });
  BatchStats stats;
  if (r.is_ok() && r->exit_code == 0) {
    stats.requests = channel_counter_sum("requests_served");
    stats.doorbells = channel_counter_sum("doorbells");
  }
  end_measurement(strfmt("batch-depth%d", ring_depth).c_str());
  return stats;
}

// Four nested HRT threads hammer one channel with individual syscalls.
double measure_contended_wait(int ring_depth) {
  begin_measurement();
  SystemConfig cfg;
  cfg.extra_override_config = strfmt("option ring_depth %d\n", ring_depth);
  HybridSystem system(cfg);
  auto r = system.run_hybrid("ring-contention", [](ros::SysIface& s) {
    std::vector<int> tids;
    for (int i = 0; i < 4; ++i) {
      auto tid = s.thread_create([](ros::SysIface& ts) {
        for (int j = 0; j < 16; ++j) (void)ts.getcwd();
      });
      if (!tid.is_ok()) return 1;
      tids.push_back(*tid);
    }
    for (const int tid : tids) {
      if (!s.thread_join(tid).is_ok()) return 2;
    }
    return 0;
  });
  std::printf("[contention/depth %d]\n", ring_depth);
  print_channel_latency_percentiles();
  const double p99 = r.is_ok() && r->exit_code == 0 ? queue_wait_p99() : -1;
  end_measurement(strfmt("contention-depth%d", ring_depth).c_str());
  return p99;
}

// --- exitless data plane: doorbell exits per request -------------------------

struct ExitStats {
  double requests = 0;
  double raise_exits = 0;   // kRaiseRos hypercalls actually taken
  double suppressed = 0;    // flushes elided by a polling consumer
  [[nodiscard]] double ratio() const {
    return requests > 0 ? raise_exits / requests : -1;
  }
};

// Pooled (shared-daemon) run: `groups` execution groups forwarding
// `reqs_per_group` syscalls each through a single-worker service pool.
// `sequential` models the idle end of the load axis — each group runs and is
// joined before the next starts, so every request finds the worker parked;
// concurrent groups model saturation. `spin_cycles` = 0 is the
// interrupt-driven baseline.
ExitStats measure_pool_exits(long long spin_cycles, int groups,
                             int reqs_per_group, bool sequential) {
  begin_measurement();
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2, 3};
  cfg.extra_override_config =
      strfmt("option ring_depth 8\noption service_workers 1\n"
             "option spin_cycles %lld\n",
             spin_cycles);
  HybridSystem system(cfg);
  const GroupRun run = run_groups(
      system, "pool-exits", groups,
      [reqs_per_group](ros::SysIface& s) {
        for (int j = 0; j < reqs_per_group; ++j) (void)s.getpid();
      },
      sequential);
  ExitStats stats;
  if (run.correct) {
    stats.requests = channel_counter_sum("requests_served");
    stats.raise_exits = static_cast<double>(
        system.hvm().hypercall_count(vmm::Hypercall::kRaiseRos));
    stats.suppressed = channel_counter_sum("doorbells_suppressed");
  }
  end_measurement(
      strfmt("pool-exits-spin%lld-%s", spin_cycles,
             sequential ? "idle" : "sat")
          .c_str());
  return stats;
}

// --- fault leg: doorbell drops under the suppression protocol ----------------

struct FaultRun {
  bool ok = false;
  bool recovered = false;
  std::uint64_t checksum = 0;
  double requests = 0;
};

// Pooled run under a seeded doorbell-drop schedule, spin on or off. The two
// spin_cycles spellings have the same digit count so the two configurations
// are byte-identical in length — guest output must match exactly.
FaultRun measure_fault_leg(std::uint64_t seed, bool spin) {
  begin_measurement();
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2, 3};
  cfg.extra_override_config =
      strfmt("option ring_depth 8\noption service_workers 2\n"
             "option spin_cycles %s\n"
             "option fault seed=%llu,drop_doorbell=0.35,dup_doorbell=0.15\n",
             spin ? "150000" : "000000",
             static_cast<unsigned long long>(seed));
  HybridSystem system(cfg);
  FaultRun run;
  run.ok = run_groups(system, "pool-faults", 4, [&run](ros::SysIface& s) {
             // Commutative fold: groups run concurrently and their serve
             // order is cycle-dependent, so the checksum must not depend on
             // interleaving — only on every request getting the right answer.
             for (int j = 0; j < 24; ++j) {
               auto pid = s.getpid();
               run.checksum += (pid.is_ok() ? *pid : 0) *
                               static_cast<std::uint64_t>(j + 1);
             }
           }).correct;
  run.requests = channel_counter_sum("requests_served");
  if (FaultPlan* plan = system.runtime().fault_plan()) {
    run.recovered = plan->injected_total() > 0 &&
                    plan->recovered_total() > 0;
  }
  end_measurement(
      strfmt("pool-fault-seed%llu-%s",
             static_cast<unsigned long long>(seed), spin ? "spin" : "irq")
          .c_str());
  return run;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  banner("Ablation: ring batching",
         "batched submission ring vs the single-slot channel protocol");

  const BatchStats eager = measure_batch_flush(1);
  const BatchStats batched = measure_batch_flush(8);

  Table flushes({"Ring", "forwarded requests", "doorbell hypercalls",
                 "doorbells per request"});
  flushes.add_row({"depth 1 (eager, single-slot compatible)",
                   strfmt("%.0f", eager.requests),
                   strfmt("%.0f", eager.doorbells),
                   strfmt("%.3f", eager.ratio())});
  flushes.add_row({"depth 8 (batched doorbell)",
                   strfmt("%.0f", batched.requests),
                   strfmt("%.0f", batched.doorbells),
                   strfmt("%.3f", batched.ratio())});
  flushes.print();

  const double wait_eager = measure_contended_wait(1);
  const double wait_batched = measure_contended_wait(8);

  Table waits({"Ring", "p99 queue wait (cycles)"});
  waits.add_row({"depth 1", strfmt("%.0f", wait_eager)});
  waits.add_row({"depth 8", strfmt("%.0f", wait_batched)});
  waits.print();

  // Exitless sweep: doorbell exits (kRaiseRos hypercalls) per forwarded
  // request through the service pool, idle -> saturation, interrupt-driven
  // vs adaptive spin. Idle = one request per wake (every flush finds the
  // worker parked); saturation = four groups hammering one worker.
  const ExitStats irq_idle = measure_pool_exits(0, 8, 1, /*sequential=*/true);
  const ExitStats irq_sat =
      measure_pool_exits(0, 4, 256, /*sequential=*/false);
  const ExitStats spin_idle =
      measure_pool_exits(150000, 8, 1, /*sequential=*/true);
  const ExitStats spin_sat =
      measure_pool_exits(150000, 4, 256, /*sequential=*/false);

  Table exits({"Pool transport", "load", "requests", "doorbell exits",
               "suppressed", "exits per request"});
  const auto exits_row = [&exits](const char* mode, const char* load,
                                  const ExitStats& s) {
    exits.add_row({mode, load, strfmt("%.0f", s.requests),
                   strfmt("%.0f", s.raise_exits),
                   strfmt("%.0f", s.suppressed),
                   strfmt("%.4f", s.ratio())});
  };
  exits_row("interrupt-driven (spin_cycles 0)", "idle", irq_idle);
  exits_row("interrupt-driven (spin_cycles 0)", "saturation", irq_sat);
  exits_row("adaptive spin (spin_cycles 150k)", "idle", spin_idle);
  exits_row("adaptive spin (spin_cycles 150k)", "saturation", spin_sat);
  exits.print();

  // Fault leg: seeded doorbell-drop/dup schedules, spin on vs off. Every run
  // must recover and the guest-computed checksum must be identical across
  // the spin axis.
  const std::uint64_t kSeeds[3] = {11, 23, 47};
  bool faults_recovered = true;
  bool faults_identical = true;
  Table faults({"Fault schedule", "spin", "requests", "recovered",
                "checksum"});
  for (const std::uint64_t seed : kSeeds) {
    const FaultRun irq = measure_fault_leg(seed, /*spin=*/false);
    const FaultRun spin = measure_fault_leg(seed, /*spin=*/true);
    faults_recovered &= irq.ok && irq.recovered && spin.ok && spin.recovered;
    faults_identical &= irq.checksum == spin.checksum;
    faults.add_row({strfmt("seed %llu", (unsigned long long)seed), "off",
                    strfmt("%.0f", irq.requests),
                    irq.ok && irq.recovered ? "yes" : "NO",
                    strfmt("%016llx", (unsigned long long)irq.checksum)});
    faults.add_row({strfmt("seed %llu", (unsigned long long)seed), "on",
                    strfmt("%.0f", spin.requests),
                    spin.ok && spin.recovered ? "yes" : "NO",
                    strfmt("%016llx", (unsigned long long)spin.checksum)});
  }
  faults.print();

  std::printf("\n");
  Checks checks;
  checks.check("shape check (eager rings one doorbell per request; the "
               "batched ring flushes <1 per request and cuts the contended "
               "p99 queue wait)",
               eager.requests > 0 &&
                   eager.ratio() > 0.999 &&    // one doorbell per request
                   batched.ratio() < 0.5 &&    // coalesced flushes
                   wait_eager > 0 &&
                   wait_batched < wait_eager);  // deeper ring, shorter queue
  // Exitless shape: at saturation the spin window absorbs (nearly) every
  // flush; idle traffic stays interrupt-driven (no cheaper than the
  // interrupt baseline, and nothing suppressed into a stall).
  checks.check("exitless check (spin saturation < 0.01 exits/request, idle "
               "stays interrupt-driven)",
               spin_sat.requests > 0 &&
                   spin_sat.ratio() < 0.01 &&  // exitless at saturation
                   spin_sat.ratio() < irq_sat.ratio() &&
                   spin_idle.requests > 0 &&
                   spin_idle.ratio() >= 0.5 * irq_idle.ratio());
  checks.check("fault check (doorbell-drop schedules recover 6/6 with "
               "identical guest output spin on/off)",
               faults_recovered && faults_identical);
  return checks.exit_code();
}
