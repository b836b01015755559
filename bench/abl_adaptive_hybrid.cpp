// Adaptive hybridization crossover: the HybridizationGovernor automates the
// paper's incremental -> accelerator migration (Sec 5: port the GC's
// mmap/mprotect hot path to kernel mode). A run starts fully forwarded, the
// governor watches per-family forwarded cost online, promotes the hot memop
// families to AeroKernel overrides mid-run, and the steady-state override
// cost converges to what a statically-ported configuration reaches — with
// byte-identical program output. A fourth leg injects override-execution
// failures (FaultClass::kOverrideFail) to show demotion back to forwarding
// keeps the run correct.

#include "common.hpp"

#include "multiverse/hybridize.hpp"
#include "support/faultplan.hpp"

namespace mvbench {
namespace {

// Governor state harvested before the system (and governor) are destroyed.
struct HybridRun {
  ProgramResult program;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  double mmap_override_ewma = 0.0;
  double mmap_forwarded_ewma = 0.0;
  std::uint64_t mmap_override_calls = 0;
  bool mmap_overridden_at_exit = false;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
};

Result<HybridRun> run_bt(const std::string& overrides, int n) {
  SystemConfig cfg;
  cfg.extra_override_config = overrides;
  HybridSystem system(cfg);
  HybridRun out;
  MV_ASSIGN_OR_RETURN(
      out.program,
      run_vessel(system, Mode::kMultiverse, "binary-tree-2",
                 VesselProgram(scheme::benchmark_source(
                     scheme::Bench::kBinaryTrees, n))));
  if (HybridizationGovernor* gov = system.runtime().governor()) {
    out.promotions = gov->promotions();
    out.demotions = gov->demotions();
    out.mmap_override_ewma = gov->override_ewma(SysFamily::kMmap);
    out.mmap_forwarded_ewma = gov->forwarded_ewma(SysFamily::kMmap);
    out.mmap_override_calls = gov->override_calls(SysFamily::kMmap);
    out.mmap_overridden_at_exit =
        gov->state(SysFamily::kMmap) == HybridizationGovernor::State::kOverridden;
  }
  if (FaultPlan* plan = system.runtime().fault_plan()) {
    out.faults_injected = plan->injected(FaultClass::kOverrideFail);
    out.faults_recovered = plan->recovered(FaultClass::kOverrideFail);
  }
  return out;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  using namespace mvbench;
  banner("Adaptive hybridization",
         "runtime promotion of hot syscall families to AeroKernel overrides");

  const int n = argc > 1
                    ? std::atoi(argv[1])
                    : scheme::benchmark_bench_size(scheme::Bench::kBinaryTrees);

  const std::string kStaticOverrides =
      "override mmap nk_mmap\n"
      "override munmap nk_munmap\n"
      "override mprotect nk_mprotect\n";

  begin_measurement();
  auto forwarded = run_bt("", n);
  end_measurement("forwarded");
  // Static port + governor: the governor adopts the configured overrides and
  // only tracks their steady-state cost — this is the crossover target.
  begin_measurement();
  auto ported = run_bt(kStaticOverrides + "option hybridize on\n", n);
  end_measurement("static-port");
  // Adaptive: no static port; the governor must find the hot families itself.
  begin_measurement();
  auto adaptive = run_bt("option hybridize on\n", n);
  end_measurement("adaptive");
  // Adaptive under injected override failures: demote, retry forwarded,
  // finish correctly.
  begin_measurement();
  auto faulted = run_bt(
      "option hybridize on\noption fault override_fail=0.02,seed=11\n", n);
  end_measurement("adaptive-faults");

  if (!forwarded || !ported || !adaptive || !faulted) {
    std::printf("failed: %s %s %s %s\n",
                forwarded.status().to_string().c_str(),
                ported.status().to_string().c_str(),
                adaptive.status().to_string().c_str(),
                faulted.status().to_string().c_str());
    return 1;
  }

  Table table({"Metric", "Forwarded", "Static port", "Adaptive",
               "Adaptive+faults"});
  table.add_row({"binary-tree runtime (s)",
                 strfmt("%.3f", forwarded->program.elapsed_s),
                 strfmt("%.3f", ported->program.elapsed_s),
                 strfmt("%.3f", adaptive->program.elapsed_s),
                 strfmt("%.3f", faulted->program.elapsed_s)});
  table.add_row({"forwarded syscalls",
                 std::to_string(forwarded->program.forwarded_syscalls),
                 std::to_string(ported->program.forwarded_syscalls),
                 std::to_string(adaptive->program.forwarded_syscalls),
                 std::to_string(faulted->program.forwarded_syscalls)});
  table.add_row({"governor promotions", "-",
                 std::to_string(ported->promotions),
                 std::to_string(adaptive->promotions),
                 std::to_string(faulted->promotions)});
  table.add_row({"governor demotions", "-",
                 std::to_string(ported->demotions),
                 std::to_string(adaptive->demotions),
                 std::to_string(faulted->demotions)});
  table.add_row({"mmap override cycles/call (EWMA)", "-",
                 strfmt("%.0f", ported->mmap_override_ewma),
                 strfmt("%.0f", adaptive->mmap_override_ewma),
                 strfmt("%.0f", faulted->mmap_override_ewma)});
  table.add_row({"mmap forwarded cycles/call (EWMA)",
                 "-", "-",
                 strfmt("%.0f", adaptive->mmap_forwarded_ewma), "-"});
  table.add_row({"override_fail injected/recovered", "-", "-", "-",
                 strfmt("%llu/%llu",
                        static_cast<unsigned long long>(
                            faulted->faults_injected),
                        static_cast<unsigned long long>(
                            faulted->faults_recovered))});
  table.add_row(
      {"output identical to forwarded", "-",
       forwarded->program.stdout_text == ported->program.stdout_text ? "yes"
                                                                     : "NO",
       forwarded->program.stdout_text == adaptive->program.stdout_text ? "yes"
                                                                       : "NO",
       forwarded->program.stdout_text == faulted->program.stdout_text ? "yes"
                                                                      : "NO"});
  table.print();

  // --- crossover checks ------------------------------------------------------
  // 1. The adaptive run really started forwarded and crossed over mid-run.
  const bool crossed = adaptive->promotions > 0 &&
                       adaptive->mmap_override_calls > 0 &&
                       adaptive->mmap_overridden_at_exit &&
                       adaptive->program.forwarded_syscalls >
                           ported->program.forwarded_syscalls;
  // 2. Steady-state override cost converges to within 10% of the static port.
  const double ratio =
      ported->mmap_override_ewma > 0.0
          ? adaptive->mmap_override_ewma / ported->mmap_override_ewma
          : 0.0;
  const bool converged = ratio > 0.90 && ratio < 1.10;
  // 3. Program output is the invariant, in every configuration.
  const bool identical =
      forwarded->program.stdout_text == ported->program.stdout_text &&
      forwarded->program.stdout_text == adaptive->program.stdout_text &&
      forwarded->program.stdout_text == faulted->program.stdout_text &&
      forwarded->program.exit_code == 0 && adaptive->program.exit_code == 0 &&
      faulted->program.exit_code == 0;
  // 4. Injected override failures demoted (and were all recovered by the
  //    forwarded retry), and the run completed.
  const bool fault_recovered =
      faulted->faults_injected > 0 && faulted->demotions > 0 &&
      faulted->faults_recovered == faulted->faults_injected;
  // 5. Adaptive beats fully forwarded (it spent most of the run overridden).
  const bool faster = adaptive->program.elapsed_s < forwarded->program.elapsed_s;

  std::printf("\nadaptive/static steady-state mmap cycles ratio: %.3f "
              "(want within [0.90, 1.10])\n", ratio);
  Checks checks;
  checks.align = 50;
  checks.check("crossover (started forwarded, promoted mid-run)", crossed);
  checks.check("converged to static-port steady state (within 10%)",
               converged);
  checks.check("byte-identical program output in all modes", identical);
  checks.check("injected override failures demoted + recovered",
               fault_recovered);
  checks.check("adaptive faster than fully forwarded", faster);
  return checks.exit_code();
}
