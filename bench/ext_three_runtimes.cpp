// "We have previously hand-ported three runtimes to Nautilus, namely Legion,
// the NESL VCODE interpreter, and the runtime of a home-grown nested data
// parallel language." (Sec 2) — and the whole point of Multiverse is that
// the port becomes automatic. This harness hybridizes this repo's analogue
// of each runtime with zero porting effort and checks the paper's core
// guarantee for every one of them: identical user-visible behaviour, with
// the legacy interactions forwarded.

#include "common.hpp"
#include "runtime/ndp/ndp.hpp"
#include "runtime/taskpar/hpcg.hpp"
#include "runtime/vcode/vcode.hpp"

namespace mvbench {
namespace {

struct RuntimeCase {
  const char* name;
  std::function<int(ros::SysIface&)> guest;
};

std::vector<RuntimeCase> runtime_cases() {
  VesselProgram fib(
      "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
      "(fib 15)",
      scheme::Engine::Config{});
  fib.echo = true;
  return {
      {"Vessel Scheme (Racket analogue)", vessel_guest(std::move(fib))},
      {"VCODE VM (NESL analogue)",
       [](ros::SysIface& sys) {
         vcode::Vm vm(sys);
         return vm.run("CONST 100\nIOTA\nDUP\nMUL\nREDUCE +\nPRINT\n").is_ok()
                    ? 0
                    : 1;
       }},
      {"Rill (home-grown NDP analogue)",
       [](ros::SysIface& sys) {
         return ndp::compile_and_run(
                    sys,
                    "let xs = iota(50)\n"
                    "print sum({ x * x : x in xs | x > 25 })\n")
                    .is_ok()
                    ? 0
                    : 1;
       }},
      {"Tributary (Legion analogue)",
       [](ros::SysIface& sys) {
         taskpar::CgConfig cfg;
         cfg.n = 256;
         cfg.iterations = 12;
         cfg.workers = 3;
         cfg.chunks = 6;
         auto r = taskpar::run_hpcg_like(sys, cfg);
         if (!r) return 1;
         (void)sys.printf("residual ratio %.3e\n",
                          r->final_residual / r->initial_residual);
         return 0;
       }},
  };
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  banner("Extension (Sec 1/2)",
         "automatic hybridization of four runtime systems");

  // Timing comparisons live in fig13 and ext_hpcg (which exclude the
  // one-time HRT boot); this table is about behaviour preservation.
  Table table({"Runtime", "output identical", "fwd syscalls", "fwd faults"});
  bool all_ok = true;
  for (const RuntimeCase& rc : runtime_cases()) {
    SystemConfig native_cfg;
    native_cfg.virtualized = false;
    HybridSystem native_sys(native_cfg);
    (void)scheme::install_boot_files(native_sys.linux().fs());
    auto native = native_sys.run(rc.name, rc.guest);

    HybridSystem hybrid_sys;
    (void)scheme::install_boot_files(hybrid_sys.linux().fs());
    auto hybrid = hybrid_sys.run_hybrid(rc.name, rc.guest);

    if (!native || !hybrid) {
      std::printf("%s failed to run\n", rc.name);
      all_ok = false;
      continue;
    }
    const bool identical = native->exit_code == 0 &&
                           hybrid->exit_code == 0 &&
                           native->stdout_text == hybrid->stdout_text;
    all_ok &= identical && hybrid->forwarded_syscalls > 0;
    table.add_row({rc.name, identical ? "yes" : "NO",
                   std::to_string(hybrid->forwarded_syscalls),
                   std::to_string(hybrid->forwarded_faults)});
  }
  table.print();
  std::printf("\n\"Multiverse allows existing, unmodified applications and "
              "runtimes to be brought into the HRT model without any porting "
              "effort whatsoever.\"\n");
  Checks checks;
  checks.check("shape check (every runtime hybridizes with identical "
               "behaviour)",
               all_ok);
  return checks.exit_code();
}
