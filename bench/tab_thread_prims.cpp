// Section 2 claim: "Nautilus provides basic primitives, for example thread
// creation and events, that outperform Linux by orders of magnitude because
// we designed them to support runtimes in lieu of general-purpose computing,
// and because there are no kernel/user boundaries to cross."
//
// Measured here: cycles per thread create+join and per event signal/wake on
// both kernels of the same HVM pair.

#include "common.hpp"

namespace mvbench {
namespace {

struct PrimCosts {
  double thread_cycles = 0;
  double signal_cycles = 0;
};

PrimCosts measure_naut(HybridSystem& system) {
  PrimCosts out;
  naut::Nautilus& naut = system.naut();
  Sched& sched = system.sched();
  hw::Core& core = system.machine().core(system.config().hrt_core);

  sched.spawn(system.config().hrt_core, [&] {
    const int reps = 64;
    {
      const Cycles before = core.cycles();
      for (int i = 0; i < reps; ++i) {
        auto t = naut.thread_create([] {}, true, nullptr, "prim");
        if (t) (void)naut.thread_join((*t)->id);
      }
      out.thread_cycles = static_cast<double>(core.cycles() - before) / reps;
    }
    {
      const int ev = naut.event_create();
      const Cycles before = core.cycles();
      for (int i = 0; i < reps; ++i) (void)naut.event_signal(ev);
      out.signal_cycles = static_cast<double>(core.cycles() - before) / reps;
    }
  }, "naut-prims");
  (void)sched.run();
  return out;
}

PrimCosts measure_linux(HybridSystem& system) {
  PrimCosts out;
  hw::Core& core = system.machine().core(system.config().ros_core);
  auto r = system.run("linux-prims", [&](ros::SysIface& sys) {
    const int reps = 32;
    {
      const Cycles before = core.cycles();
      for (int i = 0; i < reps; ++i) {
        auto tid = sys.thread_create([](ros::SysIface&) {});
        if (tid) (void)sys.thread_join(*tid);
      }
      out.thread_cycles = static_cast<double>(core.cycles() - before) / reps;
    }
    {
      // Futex wake of an uncontended word: the Linux-side "event signal".
      auto a = sys.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                        ros::kMapPrivate | ros::kMapAnonymous);
      const Cycles before = core.cycles();
      for (int i = 0; i < reps; ++i) {
        (void)sys.syscall(ros::SysNr::kFutex, {*a, 1, 1, 0, 0, 0});
      }
      out.signal_cycles = static_cast<double>(core.cycles() - before) / reps;
    }
    return 0;
  });
  (void)r;
  return out;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  banner("Section 2 (primitives)",
         "AeroKernel vs Linux thread/event primitives");

  // Boot the HRT first (the accelerator path does install+boot+merge).
  HybridSystem system;
  auto bootstrap = system.run_accelerator(
      "boot", [](ros::SysIface&, MultiverseRuntime&, ros::Thread&) {
        return 0;
      });
  if (!bootstrap) {
    std::printf("bootstrap failed\n");
    return 1;
  }
  const PrimCosts naut = measure_naut(system);
  const PrimCosts linux_costs = measure_linux(system);

  Table table({"Primitive", "Linux (cycles)", "Nautilus (cycles)", "ratio"});
  table.add_row({"thread create+join", strfmt("%.0f", linux_costs.thread_cycles),
                 strfmt("%.0f", naut.thread_cycles),
                 strfmt("%.0fx", linux_costs.thread_cycles /
                                     naut.thread_cycles)});
  table.add_row({"event signal / futex wake",
                 strfmt("%.0f", linux_costs.signal_cycles),
                 strfmt("%.0f", naut.signal_cycles),
                 strfmt("%.0fx",
                        linux_costs.signal_cycles / naut.signal_cycles)});
  table.print();

  std::printf("\n");
  Checks checks;
  checks.check("shape check (Nautilus primitives 1-2 orders of magnitude "
               "cheaper, no ring crossings)",
               linux_costs.thread_cycles > 10 * naut.thread_cycles &&
                   linux_costs.signal_cycles > 2 * naut.signal_cycles);
  return checks.exit_code();
}
