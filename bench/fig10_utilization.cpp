// Figure 10: system utilization for the Racket benchmarks — "A high-level
// language has many low-level interactions with the OS."
//
// Paper columns: System Calls, Time (User/Sys) (s), Max Resident Set (Kb),
// Page Faults, Context Switches. Problem sizes here are scaled down from
// the Benchmarks Game inputs so the simulation completes in seconds; the
// claims that carry are relative: every benchmark makes thousands of
// syscalls and page faults, fasta* are write-heavy, binary-tree-2 and the
// numeric kernels are fault-heavy relative to their runtime.

#include <algorithm>

#include "common.hpp"

int main() {
  using namespace mvbench;
  banner("Figure 10", "system utilization for Racket benchmarks (Native)");

  Table table({"Benchmark", "System Calls", "Time (User/Sys) (s)",
               "Max Resident Set (Kb)", "Page Faults", "Context Switches",
               "GC Collects", "mmap/mprot/munmap"});

  bool os_ok = true;
  double fannkuch_rate = 0;
  double min_other_rate = 1e18;
  std::uint64_t bintree_faults = 0;
  std::uint64_t max_other_faults = 0;
  const scheme::Bench order[] = {
      scheme::Bench::kFannkuch,     scheme::Bench::kBinaryTrees,
      scheme::Bench::kFasta,        scheme::Bench::kFasta3,
      scheme::Bench::kNBody,        scheme::Bench::kSpectralNorm,
      scheme::Bench::kMandelbrot,
  };
  for (const scheme::Bench b : order) {
    scheme::GcStats gc;
    auto r = run_scheme_benchmark(Mode::kNative, b,
                                  scheme::benchmark_bench_size(b),
                                  racket_profile(), &gc);
    if (!r) {
      std::printf("%s failed: %s\n", scheme::benchmark_name(b),
                  r.status().to_string().c_str());
      os_ok = false;
      continue;
    }
    table.add_row({scheme::benchmark_name(b),
                   std::to_string(r->total_syscalls),
                   strfmt("%.2f/%.2f", r->utime_s, r->stime_s),
                   std::to_string(r->max_rss_kb),
                   std::to_string(r->page_faults),
                   std::to_string(r->ctx_switches),
                   std::to_string(gc.collections),
                   strfmt("%llu/%llu/%llu",
                          static_cast<unsigned long long>(
                              syscall_count(*r, "mmap")),
                          static_cast<unsigned long long>(
                              syscall_count(*r, "mprotect")),
                          static_cast<unsigned long long>(
                              syscall_count(*r, "munmap")))});
    // Every benchmark interacts with the OS (the figure's thesis); the
    // relative shape claims are checked after the loop.
    if (r->total_syscalls < 90 || r->page_faults < 15) os_ok = false;
    const double rate =
        static_cast<double>(r->total_syscalls) / r->elapsed_s;
    if (b == scheme::Bench::kFannkuch) {
      fannkuch_rate = rate;
    } else {
      min_other_rate = std::min(min_other_rate, rate);
    }
    if (b == scheme::Bench::kBinaryTrees) {
      bintree_faults = r->page_faults;
    } else {
      max_other_faults = std::max(max_other_faults, r->page_faults);
    }
  }
  table.print();
  std::printf("\npaper's values for reference (full-size inputs on real "
              "hardware):\n");
  Table paper({"Benchmark", "System Calls", "Time (User/Sys) (s)",
               "Max RSS (Kb)", "Page Faults", "Ctx Switches"});
  paper.add_row({"fannkuch-redux", "1279", "2.73/0.01", "21284", "5358", "33"});
  paper.add_row({"binary-tree-2", "1260", "31.98/0.10", "82072", "31082",
                 "491"});
  paper.add_row({"fasta", "29989", "12.23/0.10", "43568", "14956", "627"});
  paper.add_row({"fasta-3", "35115", "31.28/0.17", "80492", "25418", "1075"});
  paper.add_row({"n-body", "18763", "41.15/0.19", "152300", "45064", "1430"});
  paper.add_row({"spectral-norm", "23800", "39.39/0.24", "182300", "51452",
                 "1695"});
  paper.add_row({"mandelbrot-2", "3667", "7.76/0.05", "43600", "14250",
                 "291"});
  paper.print();

  // The paper's relative shape: fannkuch-redux is the *least*
  // syscall-intensive benchmark (its permutation kernel barely allocates
  // once call frames are pooled), and binary-tree-2 — pure allocation — is
  // by far the most fault-heavy.
  std::printf("\nshape checks:\n");
  Checks checks;
  checks.check("  every benchmark interacts with the OS", os_ok);
  checks.check(strfmt("  fannkuch-redux is the least syscall-intensive "
                      "benchmark (%.0f vs next %.0f calls/s)",
                      fannkuch_rate, min_other_rate),
               fannkuch_rate < min_other_rate);
  checks.check(strfmt("  binary-tree-2 is the most fault-heavy benchmark "
                      "(%llu vs next %llu faults)",
                      static_cast<unsigned long long>(bintree_faults),
                      static_cast<unsigned long long>(max_other_faults)),
               bintree_faults > max_other_faults);
  return checks.exit_code();
}
