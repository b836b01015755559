#pragma once

// Measurement plumbing shared by the four workloads. Everything here sits
// outside the simulator and reaches it only through public calls:
// HybridSystem's run entry points, a ros::SysIface wrapper around the guest's
// interface, the metrics registry, the hw counters, and getrusage.
//
// Two clocks are kept apart throughout. Host time (steady_clock) is what a
// run costs; simulated time (hw::Core::cycles) is the model's result and must
// not move when the benchmark observes it, so nothing here ever charges a
// cycle.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "multiverse/system.hpp"
#include "ros/guest.hpp"

namespace perfbench {

using mv::multiverse::HybridSystem;
using mv::multiverse::SystemConfig;

// Host seconds on a monotonic clock.
double host_now();

// One timed interval at a layer boundary. `parent` indexes the enclosing span
// in the same round (-1 for the root); `id` is the program or request id the
// span belongs to.
struct Span {
  std::string name;
  int parent = -1;
  int id = 0;
  double host_start = 0;
  double host_end = 0;
  std::uint64_t sim_start = 0;
  std::uint64_t sim_end = 0;
};

// Everything one round of a workload measures. A round is the workload's
// fixed unit of work; a run repeats rounds and reports medians over them.
// Spans are kept only when the round is traced.
struct Round {
  explicit Round(bool traced_round) : traced(traced_round) {}

  int open(std::string name, int parent, int id, std::uint64_t sim);
  void close(int span, std::uint64_t sim);
  void add(const std::string& key, double v) { layer[key] += v; }
  void peak(const std::string& key, double v);
  // One operation's outcome: ok means it ended with its expected result.
  // Any other ending (an error status, a bad exit code, a wrong answer)
  // counts as failed. A failure that is not `known` -- one of the open seed
  // defects perfbench/README.md lists -- also counts as unexpected and makes
  // the run incorrect. The first few of each kind are kept.
  void op(bool ok, const std::string& what, bool known = false);

  bool traced;
  int root = -1;  // the workload span

  // End-to-end accumulators: set-up and measured phase summed over the
  // round's systems; cpu_s, sys_s, minflt and peak_rss_mb are getrusage
  // figures of the process that ran the round.
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double sys_s = 0;
  double minflt = 0;
  double peak_rss_mb = 0;
  std::uint64_t sim_cycles = 0;       // all cores, at the end of each run
  std::uint64_t measured_cycles = 0;  // all cores, guest entry to return
  std::vector<std::uint64_t> req_cycles;  // every guest SysIface call

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unexpected = 0;  // failures that are no known seed defect
  std::vector<std::string> problems;       // unexpected failures
  std::vector<std::string> known_defects;  // failures that are seed defects

  // Per-layer sums and maxima, and per-call samples.
  std::map<std::string, double> layer;
  std::map<std::string, double> peaks;
  std::map<std::string, std::vector<double>> samples;
  std::vector<Span> spans;
};

// A workload is a list of units, each booting one HybridSystem.
using Unit = std::function<void(Round&)>;

class Program;

// One booted HybridSystem. Set-up runs from construction to the first guest
// instruction; the measured phase from there until the run call returns.
// finish() reads the registry and hardware counters while the system is
// still alive (its TelemetryScope rolls the registry back on destruction)
// and then destroys it.
class Boot {
 public:
  Boot(Round& round, const std::string& name, SystemConfig config);
  ~Boot();
  Boot(const Boot&) = delete;
  Boot& operator=(const Boot&) = delete;

  HybridSystem& sys() { return *sys_; }
  Round& round() { return round_; }

  // Call right before the run entry point; the span from here to the first
  // guest instruction is the boot proper (ROS spawn, HRT boot, init hooks).
  // Only hybridized boots feed vmm.boot_host_ms.
  void starting_run(bool hybrid);
  // Called by every program at guest entry; only the first one counts.
  void guest_entered();
  // A program context for one guest main.
  Program& program(const std::string& name, int id);
  // Account the finished run, read counters, destroy the system.
  // `results` are the per-program results the run call returned.
  void finish(const std::vector<mv::multiverse::ProgramResult>& results);

  // Simulated now on the core the calling guest runs on (or the furthest
  // core, outside any task).
  std::uint64_t sim_now() const;
  std::uint64_t cycles_on(unsigned core) const;
  int span() const { return span_; }

 private:
  std::uint64_t total_cycles() const;
  void read_registry();

  Round& round_;
  double t_construct_ = 0;
  double t_run_ = 0;
  double t_entry_ = -1;
  std::uint64_t cycles_at_entry_ = 0;
  int span_ = -1;
  int setup_span_ = -1;
  std::unique_ptr<HybridSystem> sys_;
  std::deque<Program> programs_;
  bool hybrid_ = false;
};

// One guest main inside a Boot: owns the program span and the span of the
// runtime call in progress, which parent the SysIface spans.
class Program {
 public:
  Program(Boot& boot, std::string name, int id)
      : boot_(boot), name_(std::move(name)), id_(id) {}

  void enter();
  void leave();
  // Time a call into a runtime (Engine::init, Vm::run, ...). The host
  // duration is also kept as a per-call sample under `name`.
  template <class F>
  auto call(const char* name, F&& fn) {
    const int s = begin_call(name);
    const double t0 = host_now();
    auto out = fn();
    end_call(name, s, t0);
    return out;
  }

  Boot& boot() { return boot_; }
  Round& round() { return boot_.round(); }
  int id() const { return id_; }
  int parent() const { return call_span_ >= 0 ? call_span_ : span_; }

 private:
  int begin_call(const char* name);
  void end_call(const char* name, int span, double t0);

  Boot& boot_;
  std::string name_;
  int id_;
  int span_ = -1;
  int call_span_ = -1;
};

// The guest's ros::SysIface, observed. Every syscall (and every batch) is
// one sample of simulated cycles spent inside the call; in a traced round it
// is also a span, and hybridized calls add a host wait sample. Threads the
// guest creates and signal handlers it installs see a wrapped interface too.
class TracedIface final : public mv::ros::SysIface {
 public:
  TracedIface(mv::ros::SysIface& inner, Program& program)
      : inner_(inner), program_(program) {}

  mv::Result<std::uint64_t> syscall(
      mv::ros::SysNr nr, std::array<std::uint64_t, 6> args) override;
  std::vector<mv::Result<std::uint64_t>> syscall_batch(
      const std::vector<mv::ros::SysReq>& reqs) override;

  mv::Status mem_read(std::uint64_t vaddr, void* out,
                      std::uint64_t len) override {
    return inner_.mem_read(vaddr, out, len);
  }
  mv::Status mem_write(std::uint64_t vaddr, const void* in,
                       std::uint64_t len) override {
    return inner_.mem_write(vaddr, in, len);
  }
  mv::Status mem_touch(std::uint64_t vaddr, mv::hw::Access access) override {
    return inner_.mem_touch(vaddr, access);
  }
  mv::ros::TimeVal vdso_gettimeofday() override {
    return inner_.vdso_gettimeofday();
  }
  std::uint64_t vdso_getpid() override { return inner_.vdso_getpid(); }
  mv::Result<int> thread_create(mv::ros::GuestThreadFn fn) override;
  mv::Status thread_join(int tid) override { return inner_.thread_join(tid); }
  void thread_yield() override { inner_.thread_yield(); }
  mv::Status sigaction(int sig, mv::ros::GuestSigHandler handler) override;
  std::uint64_t scratch_base() override { return inner_.scratch_base(); }
  std::uint64_t scratch_size() override { return inner_.scratch_size(); }
  void charge_user(std::uint64_t cycles) override {
    inner_.charge_user(cycles);
  }
  [[nodiscard]] Mode mode() const override { return inner_.mode(); }

 private:
  class Measure;

  mv::ros::SysIface& inner_;
  Program& program_;
};

// Add a destroyed tenant's channel instruments (its TenantSloSnapshot
// Prometheus text) to the round: tenant_destroy erases them from the
// registry before the run call returns.
void absorb_tenant_snapshot(Round& round, const std::string& prometheus_text);

// --- small helpers -----------------------------------------------------------

// Middle value; the mean of the two middle values for an even count.
double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100]: always one of the samples.
double percentile(std::vector<double> v, double p);

// Self time per span name: each span's host time minus the part its own
// children cover.
std::map<std::string, double> self_times(const std::vector<Span>& spans);
// Write the round's spans and self times as JSON.
bool write_trace(const std::string& path, const std::string& workload,
                 const Round& round);

}  // namespace perfbench
