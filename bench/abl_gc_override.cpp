// Ablation 3 (paper Sec 5 conclusion / future work): "The next steps would
// be to port bottleneck functionality, for example the mmap(), mprotect(),
// and signal mechanisms the garbage collector depends on, to kernel mode via
// AeroKernel, perhaps using AeroKernel overrides. In effect, these comprise
// page table edits combined with page faults, all of which can occur
// hundreds of times faster within the kernel."
//
// This harness runs the GC-heavy binary-tree-2 hybridized, then applies
// exactly that port (mmap/munmap/mprotect overrides) and measures the step
// from the Incremental model toward the Accelerator model.

#include "common.hpp"

namespace mvbench {
namespace {

Result<ProgramResult> run_bt(const std::string& overrides) {
  SystemConfig cfg;
  cfg.extra_override_config = overrides;
  HybridSystem system(cfg);
  return run_vessel(
      system, Mode::kMultiverse, "binary-tree-2",
      VesselProgram(scheme::benchmark_source(
          scheme::Bench::kBinaryTrees,
          scheme::benchmark_bench_size(scheme::Bench::kBinaryTrees))));
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  banner("Ablation 3",
         "incremental -> accelerator: AeroKernel override of the GC hot path");

  auto base = run_bt("");
  auto ported = run_bt(
      "override mmap nk_mmap\n"
      "override munmap nk_munmap\n"
      "override mprotect nk_mprotect\n");
  if (!base || !ported) {
    std::printf("failed: %s %s\n", base.status().to_string().c_str(),
                ported.status().to_string().c_str());
    return 1;
  }

  Table table({"Metric", "Incremental (all forwarded)",
               "GC memops in AeroKernel"});
  table.add_row({"binary-tree-2 runtime (s)", strfmt("%.3f", base->elapsed_s),
                 strfmt("%.3f", ported->elapsed_s)});
  table.add_row({"forwarded syscalls",
                 std::to_string(base->forwarded_syscalls),
                 std::to_string(ported->forwarded_syscalls)});
  for (const char* call : {"mmap", "munmap", "mprotect"}) {
    table.add_row({strfmt("ROS-visible %s", call),
                   std::to_string(syscall_count(*base, call)),
                   std::to_string(syscall_count(*ported, call))});
  }
  table.add_row({"output identical",
                 base->stdout_text == ported->stdout_text ? "yes" : "NO",
                 ""});
  table.print();

  std::printf("\nspeedup from porting the GC's memory management into the "
              "kernel: %.2fx\n",
              base->elapsed_s / ported->elapsed_s);
  Checks checks;
  checks.check("shape check (faster, mmap traffic moved out of the ROS, "
               "behaviour unchanged)",
               ported->elapsed_s < base->elapsed_s &&
                   syscall_count(*ported, "mmap") <
                       syscall_count(*base, "mmap") / 4 &&
                   base->stdout_text == ported->stdout_text);
  return checks.exit_code();
}
