#pragma once

// Shared plumbing for the figure/table reproduction harnesses. Each bench
// binary prints (a) the paper's reported numbers and (b) the values measured
// on this simulated stack, so the shape comparison is inspectable at a
// glance in CI logs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "multiverse/system.hpp"
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace mvbench {

using namespace mv;                // NOLINT
using namespace mv::multiverse;    // NOLINT

// Per-syscall cost of the Nautilus stub itself (SYSCALL entry, red-zone
// stack pulldown, emulated SYSRET) — subtracted when comparing raw channel
// transport latencies with the paper's Fig 2 numbers.
inline double stub_overhead_cycles() {
  return static_cast<double>(hw::costs().syscall_insn +
                             hw::costs().reg_op * 4 +
                             hw::costs().sysret_emulated);
}

inline void banner(const char* artifact, const char* description) {
  Logger::instance().set_level(LogLevel::kError);
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("Reproduction of: Hale, Hetland, Dinda, \"Automatic "
              "Hybridization of Runtime Systems\" (HPDC'16)\n");
  std::printf("==============================================================\n");
}

// The shape-check ledger. Every PASS/FAIL line a bench prints goes through
// check(), and the bench returns exit_code(), so a printed verdict and the
// exit status cannot disagree.
class Checks {
 public:
  // Columns "<label>:" is padded to; 0 prints it unpadded.
  int align = 0;

  // Prints "<label>: PASS" (or FAIL) and records the verdict.
  bool check(const std::string& label, bool ok, const char* pass = "PASS",
             const char* fail = "FAIL") {
    std::printf("%-*s %s\n", align, (label + ":").c_str(), ok ? pass : fail);
    failed_ |= !ok;
    return ok;
  }
  // Records a failure the bench reports in its own words.
  void fail(const std::string& message) {
    std::printf("%s\n", message.c_str());
    failed_ = true;
  }
  [[nodiscard]] bool passed() const { return !failed_; }
  [[nodiscard]] int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

// Scheme engine configuration used by the Racket-benchmark harnesses: GC
// pressure tuned so the legacy-interaction rate is paper-like. The bytecode
// VM is the production engine (the tree walker stays on as the reference
// oracle — see interpreter_profile); its per-instruction charge models a
// compiled dispatch loop against the interpreter's per-step walk.
inline scheme::Engine::Config racket_profile() {
  scheme::Engine::Config cfg;
  cfg.heap.gc_allocation_trigger = 8 * 1024;
  cfg.eval_cycles = 110;
  cfg.exec = scheme::Engine::Exec::kBytecodeVm;
  cfg.vm_insn_cycles = 26;
  return cfg;
}

// The same profile on the tree-walking interpreter: the reference oracle
// the VM must match byte-for-byte (fig13's engine comparison).
inline scheme::Engine::Config interpreter_profile() {
  scheme::Engine::Config cfg = racket_profile();
  cfg.exec = scheme::Engine::Exec::kInterpreter;
  return cfg;
}

// Run one Scheme benchmark in one of the three measurement configurations.
enum class Mode { kNative, kVirtual, kMultiverse };

inline const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kNative: return "Native";
    case Mode::kVirtual: return "Virtual";
    case Mode::kMultiverse: return "Multiverse";
  }
  return "?";
}

// --- metrics / tracing helpers ----------------------------------------------
//
// Benchmarks measure several configurations in one process; call
// reset_instrumentation() between them so per-channel histograms describe
// exactly one configuration. When MV_TRACE_OUT is set in the environment,
// begin_measurement() also arms the cycle-domain tracer and
// end_measurement() exports a chrome://tracing JSON file to that path
// (load it via chrome://tracing or https://ui.perfetto.dev).

inline void reset_instrumentation() {
  metrics::Registry::instance().reset();
  Tracer::instance().reset();
}

inline void begin_measurement() {
  reset_instrumentation();
  if (std::getenv("MV_TRACE_OUT") != nullptr) Tracer::instance().enable();
}

inline void end_measurement(const char* tag) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  tracer.disable();
  const char* base = std::getenv("MV_TRACE_OUT");
  if (base == nullptr) return;
  const std::string path = strfmt("%s.%s.json", base, tag);
  const Status s = tracer.write_chrome_json(path);
  if (s.is_ok()) {
    std::printf("[trace] wrote %s (%zu events)\n", path.c_str(),
                tracer.event_count());
  } else {
    std::printf("[trace] export failed: %s\n", s.to_string().c_str());
  }
}

// Print `count= p50= p90= p99= max=` for every channel latency histogram the
// last measurement populated (names look like channel/0/latency/syscall/sync).
inline void print_channel_latency_percentiles() {
  auto hists =
      metrics::Registry::instance().histograms_with_prefix("channel/");
  bool any = false;
  for (const auto& [name, hist] : hists) {
    if (hist->count() == 0) continue;
    if (name.find("/latency/") == std::string::npos &&
        name.find("/queue_wait") == std::string::npos) {
      continue;
    }
    if (!any) {
      std::printf("\nPer-channel request latency (simulated cycles):\n");
      any = true;
    }
    std::printf("  %-36s count=%-7llu p50=%-9.0f p90=%-9.0f p99=%-9.0f "
                "max=%-9.0f\n",
                name.c_str(), static_cast<unsigned long long>(hist->count()),
                hist->percentile(50), hist->percentile(90),
                hist->percentile(99), hist->max());
  }
  if (any) std::printf("\n");
}

// --- measurement kit ---------------------------------------------------------

// Sum of every channel counter whose name contains `substr`, over the last
// measurement.
inline std::uint64_t channel_counter_sum(const char* substr) {
  std::uint64_t total = 0;
  for (const auto& [name, c] :
       metrics::Registry::instance().counters_with_prefix("channel/")) {
    if (name.find(substr) != std::string::npos) total += c->value();
  }
  return total;
}

// Mean cycles `op` costs on `core` over `reps` calls, after one warm-up call.
template <typename Op>
double mean_cycles(hw::Core& core, int reps, Op op) {
  op();
  const Cycles before = core.cycles();
  for (int i = 0; i < reps; ++i) op();
  return static_cast<double>(core.cycles() - before) / reps;
}

// Mean cycles per forwarded getpid() on the HRT core of a hybridized run on
// `system` (stub included), or -1 if the run fails. The system outlives the
// call so its channel metrics can still be read.
inline double forwarded_call_cycles(HybridSystem& system, int reps) {
  double cycles = 0;
  auto r = system.run_hybrid("forwarded-getpid", [&](ros::SysIface& sys) {
    cycles = mean_cycles(system.machine().core(system.config().hrt_core), reps,
                         [&sys] { (void)sys.getpid(); });
    return 0;
  });
  return r ? cycles : -1;
}

inline std::uint64_t syscall_count(const ProgramResult& r, const char* name) {
  const auto it = r.syscall_histogram.find(name);
  return it == r.syscall_histogram.end() ? 0 : it->second;
}

// The run's syscalls as a table sorted by count, with a bar of one '#' per
// `per_mark` calls (capped at 60).
inline void print_syscall_histogram(const ProgramResult& r,
                                    std::uint64_t per_mark) {
  std::vector<std::pair<std::string, std::uint64_t>> hist(
      r.syscall_histogram.begin(), r.syscall_histogram.end());
  std::sort(hist.begin(), hist.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"syscall", "count", ""});
  for (const auto& [name, count] : hist) {
    table.add_row({name, std::to_string(count),
                   std::string(static_cast<std::size_t>(std::min<std::uint64_t>(
                                   count / per_mark, 60)),
                               '#')});
  }
  table.print();
}

struct GroupRun {
  double elapsed_ms = 0;         // simulated, first spawn to last join
  std::uint64_t ros_clones = 0;  // ROS-side service threads created
  bool correct = false;          // every group ran its body and joined
};

// Accelerator-model run on `system`: spawn `groups` top-level HRT threads
// (execution groups), each running `body`, and join them all. `sequential`
// joins each group before spawning the next, so every request finds the ROS
// side idle.
inline GroupRun run_groups(HybridSystem& system, const char* name, int groups,
                           const ros::GuestThreadFn& body,
                           bool sequential = false) {
  GroupRun out;
  int completed = 0;
  auto r = system.run_accelerator(
      name, [&](ros::SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        const std::uint64_t start_us = system.linux().now_us();
        std::vector<int> ids;
        for (int g = 0; g < groups; ++g) {
          auto id = rt.hrt_thread_create(self, [&](ros::SysIface& s) {
            body(s);
            ++completed;
          });
          if (!id) return 1;
          if (sequential) {
            if (!rt.hrt_thread_join(self, *id).is_ok()) return 2;
          } else {
            ids.push_back(*id);
          }
        }
        for (const int id : ids) {
          if (!rt.hrt_thread_join(self, id).is_ok()) return 2;
        }
        out.elapsed_ms =
            static_cast<double>(system.linux().now_us() - start_us) / 1e3;
        return 0;
      });
  if (!r) return out;
  out.ros_clones = syscall_count(*r, "clone");
  out.correct = r->exit_code == 0 && completed == groups;
  return out;
}

// A Vessel Scheme program as the benches run it.
struct VesselProgram {
  explicit VesselProgram(std::string source,
                         scheme::Engine::Config cfg = racket_profile())
      : src(std::move(source)), engine(cfg) {}

  std::string src;
  scheme::Engine::Config engine;
  bool echo = false;     // also print the last value, then a newline
  std::string expect;    // when set, the last value must print as this
  scheme::GcStats* gc_out = nullptr;  // receives the heap's GC statistics
};

// The guest for `p`: boot an engine (exit 70 if that fails), evaluate the
// source, flush stdout, and exit 0 on success, else 1.
inline std::function<int(ros::SysIface&)> vessel_guest(VesselProgram p) {
  return [p = std::move(p)](ros::SysIface& sys) {
    scheme::Engine engine(sys, p.engine);
    if (!engine.init().is_ok()) return 70;
    auto r = engine.eval_to_string(p.src);
    if (r.is_ok() && p.echo) (void)engine.out(*r + "\n");
    (void)engine.flush();
    if (p.gc_out != nullptr) *p.gc_out = engine.heap().stats();
    return r.is_ok() && (p.expect.empty() || *r == p.expect) ? 0 : 1;
  };
}

// Install the Vessel boot files on `system`, then run `p` hybridized
// (Mode::kMultiverse) or on the ROS alone.
inline Result<ProgramResult> run_vessel(HybridSystem& system, Mode mode,
                                        const std::string& name,
                                        VesselProgram p) {
  MV_RETURN_IF_ERROR(scheme::install_boot_files(system.linux().fs()));
  auto guest = vessel_guest(std::move(p));
  if (mode == Mode::kMultiverse) return system.run_hybrid(name, guest);
  return system.run(name, guest);
}

inline Result<ProgramResult> run_scheme_benchmark(
    Mode mode, scheme::Bench b, int n,
    const scheme::Engine::Config& engine_cfg = racket_profile(),
    scheme::GcStats* gc_out = nullptr) {
  SystemConfig cfg;
  cfg.virtualized = mode != Mode::kNative;
  HybridSystem system(cfg);
  VesselProgram program(scheme::benchmark_source(b, n), engine_cfg);
  program.gc_out = gc_out;
  return run_vessel(system, mode, scheme::benchmark_name(b),
                    std::move(program));
}

}  // namespace mvbench
