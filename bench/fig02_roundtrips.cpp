// Figure 2: round-trip latencies of ROS<->HRT interactions.
//
// Paper (AMD Opteron 4122 @ 2.2 GHz):
//   Address Space Merger                ~33 K cycles   1.5 us
//   Asynchronous Call                   ~25 K cycles   1.1 us
//   Synchronous Call (different socket) ~1060 cycles   48 ns
//   Synchronous Call (same socket)      ~790 cycles    36 ns
//
// Measured here by timing the live mechanisms on the simulated stack (cycle
// deltas on the requesting core), not by reading the cost model back. The
// async/sync rows are also the paper's Secs 3.2/4.3 ablation: what the merged
// address space buys for communication ("a simple memory-based protocol ...
// without VMM intervention"). Each channel configuration prints its
// per-channel latency percentiles and, with MV_TRACE_OUT set, exports its
// trace.

#include "common.hpp"

namespace mvbench {
namespace {

struct Row {
  const char* item;
  double paper_cycles;
  double measured_cycles;
};

// Time one address-space merger hypercall end to end. The requester spins
// synchronously while the HRT performs the PML4 copy and shootdown, so the
// round-trip latency is the sum of the work on both cores.
double measure_merge() {
  HybridSystem system;
  double cycles = 0;
  auto r = system.run_accelerator(
      "fig2-merge",
      [&cycles, &system](ros::SysIface&, MultiverseRuntime&, ros::Thread& t) {
        // startup() already merged once; measure a fresh merger request.
        hw::Core& ros_core = system.machine().core(t.core);
        hw::Core& hrt_core = system.machine().core(system.config().hrt_core);
        const Cycles before = ros_core.cycles() + hrt_core.cycles();
        (void)system.hvm().hypercall(t.core,
                                     vmm::Hypercall::kMergeAddressSpaces,
                                     t.proc->as->cr3());
        cycles = static_cast<double>(ros_core.cycles() + hrt_core.cycles() -
                                     before);
        return 0;
      });
  return r ? cycles : -1;
}

// Cycles per forwarded getpid (stub included) over the default asynchronous
// channel (hypercall + injection) or the post-merge synchronous memory
// protocol, the latter on a same- or cross-socket HRT core.
double measure_forward(bool sync_channel, bool same_socket) {
  begin_measurement();
  SystemConfig cfg;
  if (sync_channel) {
    cfg.sockets = 2;
    cfg.cores_per_socket = 2;
    cfg.ros_core = 0;
    cfg.hrt_core = same_socket ? 1 : 2;  // core 2 is on socket 1
    cfg.extra_override_config = "option sync_channel on\n";
  }
  HybridSystem system(cfg);
  const double cycles = forwarded_call_cycles(system, 32);
  const char* tag = sync_channel ? (same_socket ? "sync-same" : "sync-cross")
                                 : "async-same";
  std::printf("[%s]\n", tag);
  print_channel_latency_percentiles();
  end_measurement(tag);
  return cycles;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  banner("Figure 2", "round-trip latencies of ROS<->HRT interactions");

  // The measured forwarded-getpid latency includes the Nautilus stub; the
  // paper's rows are raw channel round trips, so subtract the stub cost (the
  // ROS-side handler work is charged to the ROS core and does not appear on
  // the requesting core's clock).
  const double stub = stub_overhead_cycles();
  const double merge = measure_merge();
  const double async_call = measure_forward(false, true);
  const double sync_cross = measure_forward(true, false);
  const double sync_same = measure_forward(true, true);

  const Row rows[] = {
      {"Address Space Merger", 33000, merge},
      {"Asynchronous Call", 25000, async_call - stub},
      {"Synchronous Call (different socket)", 1060, sync_cross - stub},
      {"Synchronous Call (same socket)", 790, sync_same - stub},
  };

  Table table({"Item", "Paper (cycles)", "Paper (time)", "Measured (cycles)",
               "Measured (time)", "ratio"});
  const char* paper_times[] = {"1.5 us", "1.1 us", "48 ns", "36 ns"};
  bool within_2x = true;
  for (int i = 0; i < 4; ++i) {
    const Row& row = rows[i];
    const double ns = cycles_to_ns(static_cast<Cycles>(row.measured_cycles));
    table.add_row({row.item, strfmt("~%.0fK", row.paper_cycles / 1000),
                   paper_times[i], strfmt("%.0f", row.measured_cycles),
                   ns >= 1000 ? strfmt("%.2f us", ns / 1000)
                              : strfmt("%.0f ns", ns),
                   strfmt("%.2fx", row.measured_cycles / row.paper_cycles)});
    within_2x &= row.measured_cycles >= row.paper_cycles * 0.5 &&
                 row.measured_cycles <= row.paper_cycles * 2.0;
  }
  table.print();

  Checks checks;
  std::printf("\n");
  checks.check("shape check (each row within 2x of the paper)", within_2x);
  checks.check("ordering check (merge > async >> sync-cross > sync-same)",
               rows[0].measured_cycles > rows[1].measured_cycles &&
                   rows[1].measured_cycles > 5 * rows[2].measured_cycles &&
                   rows[2].measured_cycles > rows[3].measured_cycles);
  std::printf("speedup from the merged-address-space protocol: %.0fx (same "
              "socket), %.0fx (cross socket)\n",
              async_call / sync_same, async_call / sync_cross);
  checks.check("protocol check (per forwarded syscall, the post-merge memory "
               "protocol is >8x cheaper than the async channel, same socket)",
               async_call > 8 * sync_same);
  return checks.exit_code();
}
