// perfbench: runs one round of one workload of the repository benchmark and
// prints what it measured as one JSON line. perfbench/run.py builds this
// binary, runs one process per round, takes medians over rounds, adds the
// gbench_primitives rows and checks the names against BENCHMARK.json; see
// perfbench/README.md for what every metric means.
//
//   perfbench --workload <name> --seed <n> --trace <0|1> --golden <dir>
//             [--size full|tiny] [--trace-out <file>]
//   perfbench --write-golden <dir> [--size full|tiny]
//
// A round boots every system of the workload once, in this process, one
// after the other. Untraced (--trace 0), the line holds the round's host and
// simulated figures. Traced (--trace 1), spans are recorded as well, the
// host-cost loops run after the round, and the line also holds the
// per-layer metrics.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "micro.hpp"
#include "support/log.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  WorkloadOptions workload;
  bool trace = false;
  std::string trace_out;
  std::string write_golden;
};

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o->workload.name = val;
    } else if (key == "--seed") {
      o->workload.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--trace") {
      o->trace = val == "1";
    } else if (key == "--size") {
      o->workload.tiny = val == "tiny";
    } else if (key == "--golden") {
      o->workload.golden_dir = val;
    } else if (key == "--trace-out") {
      o->trace_out = val;
    } else if (key == "--write-golden") {
      o->write_golden = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

double seconds_of(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

Round run_round(const Workload& workload, const std::string& name,
                bool traced) {
  Round round(traced);
  round.root = round.open("workload:" + name, -1, 0, 0);
  for (const Unit& unit : workload) unit(round);
  // The process exists for this round, so its whole usage is the round's.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  round.sys_s = seconds_of(usage.ru_stime);
  round.cpu_s = seconds_of(usage.ru_utime) + round.sys_s;
  round.minflt = static_cast<double>(usage.ru_minflt);
  round.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  round.close(round.root, round.sim_cycles);
  return round;
}

// FNV-1a over every simulated figure of a round: two rounds of one seed
// must give the same digest, traced or not.
std::uint64_t sim_digest(const Round& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  mix(r.sim_cycles);
  mix(r.measured_cycles);
  mix(r.attempted);
  mix(r.failed);
  for (const std::uint64_t c : r.req_cycles) mix(c);
  return h;
}

double ratio(double num, double den, double if_empty = 0) {
  return den > 0 ? num / den : if_empty;
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

double get(const Round& r, const std::string& key) { return get(r.layer, key); }

std::vector<double> samples(const Round& r, const std::string& key) {
  const auto it = r.samples.find(key);
  return it == r.samples.end() ? std::vector<double>{} : it->second;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

using Metrics = std::map<std::string, double>;

Metrics per_layer(const Round& r) {
  const double forwarded = get(r, "multiverse.forwarded");
  const double busy = get(r, "support.busy_cycles");
  const double idle = get(r, "support.idle_cycles");
  const double steps = get(r, "scheme.eval_steps");
  const auto self = self_times(r.spans);
  const auto eval_self = self.find("scheme.eval");
  auto fwd_wait = samples(r, "multiverse.fwd_wait");
  Metrics m = {
      {"hw.tlb_misses", get(r, "hw.tlb_misses")},
      {"hw.ipis", get(r, "hw.ipis")},
      {"support.fiber_create_ns", fiber_create_ns(200)},
      {"support.slices", get(r, "support.slices")},
      {"support.busy_frac", ratio(busy, busy + idle)},
      {"process.sys_s", r.sys_s},
      {"process.minflt", r.minflt},
      {"vmm.exits", get(r, "vmm.exits")},
      {"vmm.hypercalls", get(r, "vmm.hypercalls")},
      {"vmm.exits_per_req", ratio(get(r, "vmm.exits"), forwarded)},
      {"vmm.tenant_boot_cycles_p50",
       median(samples(r, "vmm.tenant_boot_cycles"))},
      {"vmm.boot_host_ms", median(samples(r, "vmm.boot_host_ms"))},
      {"ros.munmap_us_1k", munmap_us(1024, 200)},
      {"ros.munmap_us_64k", munmap_us(64 * 1024, 50)},
      {"ros.munmaps", get(r, "ros.munmaps")},
      {"ros.syscalls", get(r, "ros.syscalls")},
      {"ros.guest_syscalls", static_cast<double>(r.req_cycles.size())},
      {"ros.page_faults", get(r, "ros.page_faults")},
      {"ros.ctx_switches", get(r, "ros.ctx_switches")},
      {"aerokernel.forwarded_faults", get(r, "aerokernel.forwarded_faults")},
      {"aerokernel.remerges", get(r, "aerokernel.remerges")},
      {"multiverse.fwd_wait_us_p50", percentile(fwd_wait, 50) * 1e6},
      {"multiverse.fwd_wait_us_p99", percentile(fwd_wait, 99) * 1e6},
      {"multiverse.forwarded", forwarded},
      {"multiverse.doorbells_per_req",
       ratio(get(r, "multiverse.doorbells"), forwarded)},
      {"multiverse.doorbells_suppressed",
       get(r, "multiverse.doorbells_suppressed")},
      {"multiverse.queue_wait_p99_cycles",
       get(r.peaks, "multiverse.queue_wait_p99_cycles")},
      {"multiverse.ring_occupancy_p99",
       get(r.peaks, "multiverse.ring_occupancy_p99")},
      {"multiverse.worker_busy_frac",
       ratio(get(r, "multiverse.worker_busy_sum"),
             get(r, "multiverse.worker_busy_n"))},
      {"multiverse.ready_depth_p99",
       get(r.peaks, "multiverse.ready_depth_p99")},
      {"multiverse.retries", get(r, "multiverse.retries")},
      {"multiverse.degradations", get(r, "multiverse.degradations")},
      {"multiverse.protocol_errors", get(r, "multiverse.protocol_errors")},
      {"multiverse.faults_injected", get(r, "multiverse.faults_injected")},
      // Nothing injected means nothing lost.
      {"multiverse.faults_recovered_ratio",
       ratio(get(r, "multiverse.faults_recovered"),
             get(r, "multiverse.faults_injected"), 1.0)},
      {"multiverse.watchdog_stalls", get(r, "multiverse.watchdog_stalls")},
      {"scheme.init_ms", median(samples(r, "scheme.init")) * 1e3},
      {"scheme.eval_s", sum(samples(r, "scheme.eval"))},
      {"scheme.eval_steps", steps},
      {"scheme.ns_per_step",
       ratio(eval_self == self.end() ? 0 : eval_self->second * 1e9, steps)},
      {"scheme.gc_collections", get(r, "scheme.gc_collections")},
      {"scheme.cells_allocated", get(r, "scheme.cells_allocated")},
      {"scheme.barrier_hits", get(r, "scheme.barrier_hits")},
      {"scheme.env_reuses", get(r, "scheme.env_reuses")},
      {"scheme.chunks_unmapped", get(r, "scheme.chunks_unmapped")},
      {"vcode.run_us", median(samples(r, "vcode.run")) * 1e6},
      {"taskpar.cg_ms", median(samples(r, "taskpar.cg")) * 1e3},
      {"trace.spans", static_cast<double>(r.spans.size())},
  };
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_list(const char* key, const std::vector<std::string>& list) {
  std::printf(", \"%s\": [", key);
  for (std::size_t i = 0; i < list.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(list[i]).c_str());
  }
  std::printf("]");
}

void emit(const std::string& workload, const Round& r, const Metrics& metrics) {
  const std::vector<double> req(r.req_cycles.begin(), r.req_cycles.end());
  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"sim_digest\": %llu, \"sim_cycles\": %llu, "
              "\"measured_cycles\": %llu, \"sim_req_p50_cycles\": %.17g, "
              "\"sim_req_p99_cycles\": %.17g, \"setup_s\": %.17g, "
              "\"wall_s\": %.17g, \"cpu_s\": %.17g, \"peak_rss_mb\": %.17g",
              json_escape(workload).c_str(),
              r.unexpected == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(sim_digest(r)),
              static_cast<unsigned long long>(r.sim_cycles),
              static_cast<unsigned long long>(r.measured_cycles),
              percentile(req, 50), percentile(req, 99), r.setup_s, r.wall_s,
              r.cpu_s, r.peak_rss_mb);
  print_list("problems", r.problems);
  print_list("known_defects", r.known_defects);
  std::printf(", \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

int run(const Options& o) {
  std::string error;
  const Workload workload = make_workload(o.workload, &error);
  if (workload.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const std::string& name = o.workload.name;
  const Round round = run_round(workload, name, o.trace);
  Metrics metrics;
  if (o.trace) {
    if (!o.trace_out.empty() && !write_trace(o.trace_out, name, round)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   o.trace_out.c_str());
      return 1;
    }
    metrics = per_layer(round);
  }
  emit(name, round, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  mv::Logger::instance().set_level(mv::LogLevel::kError);
  Options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr, "usage: see the comment at the top of main.cpp\n");
    return 2;
  }
  if (!o.write_golden.empty()) {
    return write_golden(o.write_golden, o.workload.tiny) ? 0 : 1;
  }
  return run(o);
}
