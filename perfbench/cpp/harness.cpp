#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "support/metrics.hpp"

namespace perfbench {

using namespace mv;  // NOLINT

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Round -------------------------------------------------------------------

int Round::open(std::string name, int parent, int id, std::uint64_t sim) {
  if (!traced) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.id = id;
  s.host_start = host_now();
  s.sim_start = sim;
  spans.push_back(std::move(s));
  return static_cast<int>(spans.size()) - 1;
}

void Round::close(int span, std::uint64_t sim) {
  if (span < 0) return;
  spans[static_cast<std::size_t>(span)].host_end = host_now();
  spans[static_cast<std::size_t>(span)].sim_end = sim;
}

void Round::peak(const std::string& key, double v) {
  double& slot = peaks[key];
  slot = std::max(slot, v);
}

void Round::op(bool ok, const std::string& what, bool known) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (!known) ++unexpected;
  std::vector<std::string>& list = known ? known_defects : problems;
  if (list.size() < 8) list.push_back(what);
}

// --- registry reading -------------------------------------------------------

namespace {

// "channel/<n>/<leaf>" -> leaf, else "".
std::string channel_leaf(const std::string& name) {
  if (name.rfind("channel/", 0) != 0) return {};
  const auto slash = name.find('/', 8);
  return slash == std::string::npos ? std::string{} : name.substr(slash + 1);
}

// Channel instruments; these live in each tenant's namespace, so they are
// read both from the live registry and from destroyed tenants' snapshots.
void absorb_channel_counter(Round& r, const std::string& leaf, double v) {
  if (leaf == "doorbells") r.add("multiverse.doorbells", v);
  if (leaf == "doorbells_suppressed") {
    r.add("multiverse.doorbells_suppressed", v);
  }
  if (leaf == "retries") r.add("multiverse.retries", v);
  if (leaf == "degradations") r.add("multiverse.degradations", v);
  if (leaf == "protocol_errors") r.add("multiverse.protocol_errors", v);
}

void absorb_channel_p99(Round& r, const std::string& leaf, double p99) {
  if (leaf == "queue_wait") r.peak("multiverse.queue_wait_p99_cycles", p99);
  if (leaf == "ring_occupancy") r.peak("multiverse.ring_occupancy_p99", p99);
}

}  // namespace

void absorb_tenant_snapshot(Round& r, const std::string& text) {
  // Lines look like: mv_counter{name="channel/0/doorbells",tenant="1"} 65
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const auto brace = line.find('{');
    const auto name_at = line.find("name=\"");
    const auto close = line.rfind("} ");
    if (brace == std::string::npos || name_at == std::string::npos ||
        close == std::string::npos) {
      continue;
    }
    const auto name_end = line.find('"', name_at + 6);
    const std::string kind = line.substr(0, brace);
    const std::string leaf =
        channel_leaf(line.substr(name_at + 6, name_end - name_at - 6));
    const double v = std::strtod(line.c_str() + close + 2, nullptr);
    if (leaf.empty()) continue;
    if (kind == "mv_counter") absorb_channel_counter(r, leaf, v);
    if (kind == "mv_histogram_p99") absorb_channel_p99(r, leaf, v);
  }
}

// --- Boot -------------------------------------------------------------------

Boot::Boot(Round& round, const std::string& name, SystemConfig config)
    : round_(round) {
  t_construct_ = host_now();
  span_ = round_.open("system:" + name, round_.root, 0, 0);
  setup_span_ = round_.open("setup", span_, 0, 0);
  sys_ = std::make_unique<HybridSystem>(std::move(config));
}

Boot::~Boot() = default;

void Boot::starting_run(bool hybrid) {
  hybrid_ = hybrid;
  t_run_ = host_now();
}

void Boot::guest_entered() {
  if (t_entry_ >= 0) return;
  t_entry_ = host_now();
  cycles_at_entry_ = total_cycles();
  round_.close(setup_span_, sim_now());
  round_.setup_s += t_entry_ - t_construct_;
  if (hybrid_) {
    round_.samples["vmm.boot_host_ms"].push_back((t_entry_ - t_run_) * 1e3);
  }
}

Program& Boot::program(const std::string& name, int id) {
  return programs_.emplace_back(*this, name, id);
}

std::uint64_t Boot::cycles_on(unsigned core) const {
  return sys_->machine().core(core).cycles();
}

std::uint64_t Boot::sim_now() const {
  const Sched& sched = sys_->sched();
  if (sched.current() != kNoTask) return cycles_on(sched.current_core());
  std::uint64_t most = 0;
  for (unsigned c = 0; c < sys_->machine().core_count(); ++c) {
    most = std::max(most, cycles_on(c));
  }
  return most;
}

std::uint64_t Boot::total_cycles() const {
  std::uint64_t sum = 0;
  for (unsigned c = 0; c < sys_->machine().core_count(); ++c) {
    sum += cycles_on(c);
  }
  return sum;
}

void Boot::read_registry() {
  auto& reg = metrics::Registry::instance();
  for (const auto& [full, counter] : reg.counters_with_prefix("")) {
    const auto [tenant, name] = metrics::Registry::split_tenant(full);
    const auto v = static_cast<double>(counter->value());
    if (tenant == 0) {
      if (name == "hvm/exits") round_.add("vmm.exits", v);
      if (name.rfind("hvm/hypercall/", 0) == 0) round_.add("vmm.hypercalls", v);
      if (name == "faults/injected") {
        round_.add("multiverse.faults_injected", v);
      }
      if (name == "faults/recovered") {
        round_.add("multiverse.faults_recovered", v);
      }
      if (name == "mv/watchdog/stalls") {
        round_.add("multiverse.watchdog_stalls", v);
      }
    }
    absorb_channel_counter(round_, channel_leaf(name), v);
  }
  for (const auto& [full, hist] : reg.histograms_with_prefix("")) {
    if (hist->count() == 0) continue;
    const std::string name = metrics::Registry::split_tenant(full).second;
    absorb_channel_p99(round_, channel_leaf(name), hist->percentile(99));
    if (name == "service/ready_depth") {
      round_.peak("multiverse.ready_depth_p99", hist->percentile(99));
    }
    if (name == "service/worker_busy_frac") {
      round_.add("multiverse.worker_busy_sum", hist->sum());
      round_.add("multiverse.worker_busy_n",
                 static_cast<double>(hist->count()));
    }
  }
}

void Boot::finish(const std::vector<multiverse::ProgramResult>& results) {
  // A guest that never ran counts its whole run as set-up, so the time
  // still shows; the caller's operation check reports the failure.
  guest_entered();
  round_.wall_s += host_now() - t_entry_;
  const std::uint64_t cycles = total_cycles();
  round_.sim_cycles += cycles;
  round_.measured_cycles += cycles - cycles_at_entry_;

  hw::Machine& m = sys_->machine();
  for (unsigned c = 0; c < m.core_count(); ++c) {
    round_.add("hw.tlb_misses", static_cast<double>(m.core(c).tlb().misses()));
  }
  round_.add("hw.ipis", static_cast<double>(m.ipis_sent()));
  const Sched& sched = sys_->sched();
  for (unsigned c = 0; c < sched.tracked_cores(); ++c) {
    round_.add("support.slices", static_cast<double>(sched.slices(c)));
    round_.add("support.busy_cycles",
               static_cast<double>(sched.busy_cycles(c)));
    round_.add("support.idle_cycles",
               static_cast<double>(sched.idle_cycles(c)));
  }
  for (const auto& r : results) {
    round_.add("ros.syscalls", static_cast<double>(r.total_syscalls));
    const auto it = r.syscall_histogram.find("munmap");
    if (it != r.syscall_histogram.end()) {
      round_.add("ros.munmaps", static_cast<double>(it->second));
    }
    round_.add("ros.page_faults", static_cast<double>(r.page_faults));
    round_.add("ros.ctx_switches", static_cast<double>(r.ctx_switches));
    round_.add("multiverse.forwarded",
               static_cast<double>(r.forwarded_syscalls));
    round_.add("aerokernel.forwarded_faults",
               static_cast<double>(r.forwarded_faults));
    round_.add("aerokernel.remerges", static_cast<double>(r.remerges));
  }
  read_registry();
  round_.close(span_, sim_now());
  sys_.reset();
}

// --- Program ----------------------------------------------------------------

void Program::enter() {
  boot_.guest_entered();
  span_ = round().open("program:" + name_, boot_.span(), id_, boot_.sim_now());
}

void Program::leave() { round().close(span_, boot_.sim_now()); }

int Program::begin_call(const char* name) {
  call_span_ = round().open(name, span_, id_, boot_.sim_now());
  return call_span_;
}

void Program::end_call(const char* name, int span, double t0) {
  round().samples[name].push_back(host_now() - t0);
  round().close(span, boot_.sim_now());
  call_span_ = -1;
}

// --- TracedIface ------------------------------------------------------------

class TracedIface::Measure {
 public:
  Measure(TracedIface& iface, const char* name)
      : program_(iface.program_),
        core_(program_.boot().sys().sched().current_core()),
        c0_(program_.boot().cycles_on(core_)) {
    Round& r = program_.round();
    if (r.traced) {
      hrt_ = iface.inner_.mode() == Mode::kHrt;
      span_ = r.open(std::string("sys:") + name, program_.parent(),
                     program_.id(), c0_);
      t0_ = host_now();
    }
  }
  ~Measure() {
    const std::uint64_t c1 = program_.boot().cycles_on(core_);
    Round& r = program_.round();
    r.req_cycles.push_back(c1 - c0_);
    if (r.traced) {
      if (hrt_) {
        r.samples["multiverse.fwd_wait"].push_back(host_now() - t0_);
      }
      r.close(span_, c1);
    }
  }
  Measure(const Measure&) = delete;
  Measure& operator=(const Measure&) = delete;

 private:
  Program& program_;
  unsigned core_;
  std::uint64_t c0_;
  int span_ = -1;
  bool hrt_ = false;
  double t0_ = 0;
};

Result<std::uint64_t> TracedIface::syscall(ros::SysNr nr,
                                           std::array<std::uint64_t, 6> args) {
  Measure m(*this, ros::sysnr_name(nr));
  return inner_.syscall(nr, args);
}

std::vector<Result<std::uint64_t>> TracedIface::syscall_batch(
    const std::vector<ros::SysReq>& reqs) {
  Measure m(*this, "batch");
  return inner_.syscall_batch(reqs);
}

Result<int> TracedIface::thread_create(ros::GuestThreadFn fn) {
  Program* program = &program_;
  return inner_.thread_create(
      [program, fn = std::move(fn)](ros::SysIface& child) {
        TracedIface traced(child, *program);
        fn(traced);
      });
}

Status TracedIface::sigaction(int sig, ros::GuestSigHandler handler) {
  Program* program = &program_;
  return inner_.sigaction(
      sig, [program, handler = std::move(handler)](
               int s, std::uint64_t addr, ros::SysIface& iface) {
        TracedIface traced(iface, *program);
        handler(s, addr, traced);
      });
}

// --- helpers ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.host_start,
                                                            s.host_end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0;
    double reach = spans[i].host_start;
    for (const auto& [a, b] : k) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::string& name = spans[i].name;
    const std::string key = name.rfind("system:", 0) == 0     ? "system"
                            : name.rfind("program:", 0) == 0 ? "program"
                                                             : name;
    out[key] += spans[i].host_end - spans[i].host_start - covered;
  }
  return out;
}

namespace {
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}
}  // namespace

bool write_trace(const std::string& path, const std::string& workload,
                 const Round& round) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = round.spans.empty() ? 0 : round.spans.front().host_start;
  std::fprintf(f, "{\"workload\": %s,\n \"self_time_s\": {",
               json_string(workload).c_str());
  bool first = true;
  for (const auto& [name, s] : self_times(round.spans)) {
    std::fprintf(f, "%s\n  %s: %.9f", first ? "" : ",",
                 json_string(name).c_str(), s);
    first = false;
  }
  std::fprintf(f, "},\n \"spans\": [");
  for (std::size_t i = 0; i < round.spans.size(); ++i) {
    const Span& s = round.spans[i];
    std::fprintf(f,
                 "%s\n  {\"name\": %s, \"parent\": %d, \"id\": %d, "
                 "\"host_start_ns\": %.0f, \"host_end_ns\": %.0f, "
                 "\"sim_start\": %llu, \"sim_end\": %llu}",
                 i == 0 ? "" : ",", json_string(s.name).c_str(), s.parent,
                 s.id, (s.host_start - t0) * 1e9, (s.host_end - t0) * 1e9,
                 static_cast<unsigned long long>(s.sim_start),
                 static_cast<unsigned long long>(s.sim_end));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
