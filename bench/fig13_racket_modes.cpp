// Figure 13: performance of the Racket benchmarks running Native, Virtual,
// and in Multiverse. "The Multiverse result is the result of Multiverse's
// automatic hybridization of Racket — it is the starting point for
// incremental enhancement within the HRT model."
//
// Expected shape: Virtual is within a few percent of Native; Multiverse is
// visibly slower, with the overhead proportional to each benchmark's use of
// the legacy interface (Fig 10's syscall+fault counts), since every one of
// those interactions now crosses an event channel.

#include <cstring>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mvbench;
  // --smoke: CI-sized inputs (the scheme_test sizes). Same assertions —
  // engine identity, the >=3x VM speedup, pooled frames cutting
  // collections — at a fraction of the runtime.
  const bool smoke =
      argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  banner("Figure 13", smoke
                          ? "Racket benchmarks (smoke sizes): modes + engines"
                          : "Racket benchmarks: Native vs Virtual vs "
                            "Multiverse");

  const scheme::Bench order[] = {
      scheme::Bench::kFannkuch,     scheme::Bench::kBinaryTrees,
      scheme::Bench::kFasta,        scheme::Bench::kFasta3,
      scheme::Bench::kNBody,        scheme::Bench::kSpectralNorm,
      scheme::Bench::kMandelbrot,
  };

  Table table({"Benchmark", "Native (s)", "Virtual (s)", "Multiverse (s)",
               "Virt/Nat", "Mv/Nat", "fwd sys", "fwd faults"});
  Table engines({"Benchmark", "Interp (s)", "VM (s)", "Speedup",
                 "Interp GCs", "VM GCs", "Identical"});
  bool ordering_ok = true;
  bool virtual_close = true;
  bool identical_output = true;
  bool engines_identical = true;
  bool vm_fewer_collections = true;
  double worst_mv_ratio = 0;
  double worst_vm_speedup = 1e9;

  for (const scheme::Bench b : order) {
    const int n = smoke ? scheme::benchmark_test_size(b)
                        : scheme::benchmark_bench_size(b);
    scheme::GcStats vm_gc;
    scheme::GcStats interp_gc;
    auto native = run_scheme_benchmark(Mode::kNative, b, n,
                                       racket_profile(), &vm_gc);
    auto virt = run_scheme_benchmark(Mode::kVirtual, b, n);
    auto hybrid = run_scheme_benchmark(Mode::kMultiverse, b, n);
    auto interp = run_scheme_benchmark(Mode::kNative, b, n,
                                       interpreter_profile(), &interp_gc);
    if (!native || !virt || !hybrid || !interp) {
      std::printf("%s failed\n", scheme::benchmark_name(b));
      return 1;
    }
    // Engine comparison (Native): the VM must beat the tree walker without
    // changing a single output byte (the interpreter is the oracle).
    const double speedup = interp->elapsed_s / native->elapsed_s;
    worst_vm_speedup = std::min(worst_vm_speedup, speedup);
    const bool same = interp->stdout_text == native->stdout_text;
    if (!same) engines_identical = false;
    if (vm_gc.collections >= interp_gc.collections) {
      vm_fewer_collections = false;
    }
    engines.add_row({scheme::benchmark_name(b),
                     strfmt("%.3f", interp->elapsed_s),
                     strfmt("%.3f", native->elapsed_s),
                     strfmt("%.2fx", speedup),
                     std::to_string(interp_gc.collections),
                     std::to_string(vm_gc.collections),
                     same ? "yes" : "NO"});
    const double vn = virt->elapsed_s / native->elapsed_s;
    const double mn = hybrid->elapsed_s / native->elapsed_s;
    worst_mv_ratio = std::max(worst_mv_ratio, mn);
    table.add_row({scheme::benchmark_name(b),
                   strfmt("%.3f", native->elapsed_s),
                   strfmt("%.3f", virt->elapsed_s),
                   strfmt("%.3f", hybrid->elapsed_s), strfmt("%.2fx", vn),
                   strfmt("%.2fx", mn),
                   std::to_string(hybrid->forwarded_syscalls),
                   std::to_string(hybrid->forwarded_faults)});
    if (hybrid->elapsed_s < virt->elapsed_s ||
        virt->elapsed_s < native->elapsed_s * 0.99) {
      ordering_ok = false;
    }
    if (vn > 1.10) virtual_close = false;
    // Correctness across modes: the user-visible output is identical.
    if (native->stdout_text != hybrid->stdout_text ||
        native->stdout_text != virt->stdout_text) {
      identical_output = false;
    }
  }
  table.print();

  std::printf("\nBytecode VM vs tree-walking interpreter (Native mode):\n");
  engines.print();

  std::printf("\nshape checks:\n");
  Checks checks;
  checks.check("  Native <= Virtual <= Multiverse for every benchmark",
               ordering_ok);
  checks.check("  Virtual within ~10% of Native", virtual_close);
  checks.check(strfmt("  Multiverse pays a real forwarding cost (worst ratio "
                      "%.2fx)",
                      worst_mv_ratio),
               worst_mv_ratio > 1.05);
  checks.check("  benchmark output identical across all three modes",
               identical_output);
  checks.check("  VM output byte-identical to the interpreter oracle",
               engines_identical);
  checks.check(strfmt("  VM at least 3x faster than the interpreter (worst "
                      "%.2fx)",
                      worst_vm_speedup),
               worst_vm_speedup >= 3.0);
  checks.check("  pooled call frames cut GC collections on every benchmark",
               vm_fewer_collections);
  std::printf("\n(The paper's absolute times are for full-size Benchmarks "
              "Game inputs on an 8-core Opteron; these are scaled inputs on "
              "the simulated testbed. The ordering, the near-zero "
              "virtualization cost, and the interaction-rate-proportional "
              "Multiverse overhead are the reproduced results.)\n");
  return checks.exit_code();
}
