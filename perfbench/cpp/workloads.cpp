#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common.hpp"  // bench/: racket_profile(), interpreter_profile()
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "runtime/taskpar/hpcg.hpp"
#include "runtime/vcode/vcode.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {
namespace {

using namespace mv;               // NOLINT
using namespace mv::multiverse;  // NOLINT

// Guest exit codes: what the benchmark's guests report back.
constexpr int kOk = 0;
constexpr int kError = 1;        // a runtime call returned an error status
constexpr int kWrongAnswer = 2;  // the call succeeded with a wrong result
constexpr int kFaulted = 14;     // a runtime call returned EFAULT
constexpr int kInitFailed = 70;  // Engine::init failed (EX_SOFTWARE)

int exit_code(const Status& s) {
  return s.is_ok() ? kOk : s.code() == Err::kFault ? kFaulted : kError;
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

std::string golden_path(const std::string& dir, bool tiny, scheme::Bench b) {
  return strfmt("%s/%s/%s.out", dir.c_str(), tiny ? "test" : "bench",
                scheme::benchmark_name(b));
}

int size_of(scheme::Bench b, bool tiny) {
  return tiny ? scheme::benchmark_test_size(b)
              : scheme::benchmark_bench_size(b);
}

void add_gc_stats(Round& r, scheme::Engine& engine) {
  const scheme::GcStats& gc = engine.heap().stats();
  r.add("scheme.gc_collections", static_cast<double>(gc.collections));
  r.add("scheme.cells_allocated", static_cast<double>(gc.cells_allocated));
  r.add("scheme.barrier_hits", static_cast<double>(gc.barrier_hits));
  r.add("scheme.env_reuses", static_cast<double>(gc.env_reuses));
  r.add("scheme.chunks_unmapped", static_cast<double>(gc.chunks_unmapped));
  r.add("scheme.eval_steps", static_cast<double>(engine.eval_steps()));
}

// Engine::init then Engine::eval_string of `src`; `expect`, when set, is the
// printed value the last form must produce.
int vessel_main(Program& p, ros::SysIface& raw, const std::string& src,
                const scheme::Engine::Config& config,
                const std::string* expect = nullptr) {
  p.enter();
  int code = kOk;
  {
    TracedIface sys(raw, p);
    scheme::Engine engine(sys, config);
    if (!p.call("scheme.init", [&] { return engine.init(); }).is_ok()) {
      code = kInitFailed;
    } else if (expect == nullptr) {
      auto r = p.call("scheme.eval", [&] { return engine.eval_string(src); });
      code = exit_code(r.status());
    } else {
      auto r =
          p.call("scheme.eval", [&] { return engine.eval_to_string(src); });
      code = !r.is_ok()        ? exit_code(r.status())
             : *r == *expect ? kOk
                             : kWrongAnswer;
    }
    (void)engine.flush();
    add_gc_stats(p.round(), engine);
  }
  p.leave();
  return code;
}

// --- vessel_vm / vessel_gc --------------------------------------------------

struct VesselRun {
  scheme::Bench bench;
  bool hybrid;
};

Workload vessel(const WorkloadOptions& o, bool gc_leg, std::string* error) {
  // The seed fixes the program order. On the VM leg each program runs
  // Native, then Multiverse: the first system a process boots pays for its
  // cold start, and a seeded mode order made setup_s twice as large on the
  // seeds that boot Multiverse first.
  Rng rng(o.seed);
  std::vector<scheme::Bench> order;
  for (int i = 0; i < scheme::kBenchCount; ++i) {
    order.push_back(static_cast<scheme::Bench>(i));
  }
  shuffle(order, rng);
  std::vector<VesselRun> runs;
  for (const scheme::Bench b : order) {
    if (gc_leg) {
      runs.push_back({b, true});
    } else {
      runs.push_back({b, false});
      runs.push_back({b, true});
    }
  }
  auto golden = std::make_shared<std::vector<std::string>>(scheme::kBenchCount);
  for (int i = 0; i < scheme::kBenchCount; ++i) {
    const std::string path =
        golden_path(o.golden_dir, o.tiny, static_cast<scheme::Bench>(i));
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      *error = "missing golden output " + path;
      return {};
    }
    std::ostringstream text;
    text << in.rdbuf();
    (*golden)[static_cast<std::size_t>(i)] = text.str();
  }
  const scheme::Engine::Config engine = gc_leg ? mvbench::interpreter_profile()
                                               : mvbench::racket_profile();
  Workload units;
  int id = 0;
  for (const VesselRun& run : runs) {
    const std::string src =
        scheme::benchmark_source(run.bench, size_of(run.bench, o.tiny));
    units.push_back([run, src, golden, engine, id = ++id](Round& round) {
      const char* name = scheme::benchmark_name(run.bench);
      SystemConfig cfg;
      cfg.virtualized = run.hybrid;
      Boot boot(round, strfmt("%s:%s", name, run.hybrid ? "mv" : "native"),
                cfg);
      if (!scheme::install_boot_files(boot.sys().linux().fs()).is_ok()) {
        round.op(false, "install_boot_files");
      }
      Program& p = boot.program(name, id);
      auto guest = [&p, &src, &engine](ros::SysIface& sys) {
        return vessel_main(p, sys, src, engine);
      };
      boot.starting_run(run.hybrid);
      auto r = run.hybrid ? boot.sys().run_hybrid(name, guest)
                          : boot.sys().run(name, guest);
      round.op(r.is_ok() && r->exit_code == kOk &&
                   r->stdout_text ==
                       (*golden)[static_cast<std::size_t>(run.bench)],
               strfmt("%s (%s) exit %d", name, run.hybrid ? "mv" : "native",
                      r.is_ok() ? r->exit_code : -1));
      boot.finish(r.is_ok() ? std::vector<ProgramResult>{*r}
                            : std::vector<ProgramResult>{});
    });
  }
  return units;
}

// --- tenant_fleet -----------------------------------------------------------

enum class TenantKind { kVessel, kVcode, kCg };

const char* kind_name(TenantKind k) {
  switch (k) {
    case TenantKind::kVessel: return "vessel";
    case TenantKind::kVcode: return "vcode";
    case TenantKind::kCg: return "cg";
  }
  return "?";
}

constexpr const char* kFibSource =
    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
    "(fib 10)";
constexpr const char* kVcodeProgram =
    "CONST 60\nIOTA\nDUP\nMUL\nREDUCE +\nPRINT\n";
constexpr const char* kVcodeOutput = "[70210]\n";  // sum of i^2, i < 60

int tenant_main(Program& p, ros::SysIface& raw, TenantKind kind) {
  static const std::string kFib = "55";
  switch (kind) {
    case TenantKind::kVessel:
      // No boot files are installed: init stats the missing collection
      // tree and must carry on without it.
      return vessel_main(p, raw, kFibSource, scheme::Engine::Config{}, &kFib);
    case TenantKind::kVcode: {
      p.enter();
      int code = kOk;
      {
        TracedIface sys(raw, p);
        vcode::Vm vm(sys);
        const Status s =
            p.call("vcode.run", [&] { return vm.run(kVcodeProgram); });
        code = exit_code(s);
      }
      p.leave();
      return code;
    }
    case TenantKind::kCg: {
      p.enter();
      int code = kOk;
      {
        TracedIface sys(raw, p);
        taskpar::CgConfig cfg;
        cfg.n = 64;
        cfg.iterations = 2;
        cfg.workers = 2;
        cfg.chunks = 2;
        auto r = p.call("taskpar.cg",
                        [&] { return taskpar::run_hpcg_like(sys, cfg); });
        code = !r.is_ok() ? exit_code(r.status())
               : r->final_residual < r->initial_residual ? kOk
                                                         : kWrongAnswer;
      }
      p.leave();
      return code;
    }
  }
  return kError;
}

// Tenant 0 hosts the stack; its own workload is a handful of getpids that
// must all agree.
int host_main(Program& p, ros::SysIface& raw) {
  p.enter();
  int code = kOk;
  {
    TracedIface sys(raw, p);
    std::uint64_t first = 0;
    for (int i = 0; i < 8; ++i) {
      auto pid = sys.getpid();
      if (!pid.is_ok()) {
        code = kError;
      } else if (i == 0) {
        first = *pid;
      } else if (*pid != first) {
        code = kWrongAnswer;
      }
    }
  }
  p.leave();
  return code;
}

struct Fleet {
  std::vector<TenantKind> kinds;   // created tenants 1..N-1
  std::vector<std::string> faults;  // fault spec per created tenant
};

// One open-loop fleet: every tenant is admitted at t=0 through run_tenants.
void run_fleet(Round& round, const Fleet& fleet) {
  const int tenants = static_cast<int>(fleet.kinds.size()) + 1;
  SystemConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 4;
  cfg.ros_cores = {0, 1, 2};
  cfg.hrt_cores = {4, 5, 6, 7};
  cfg.extra_override_config = strfmt("option tenants %d\n", tenants);
  Boot boot(round, "fleet", cfg);
  std::vector<HybridSystem::TenantProgram> programs;
  Program& host = boot.program("host", 0);
  programs.push_back(
      {"host", [&host](ros::SysIface& sys) { return host_main(host, sys); },
       ""});
  for (int i = 1; i < tenants; ++i) {
    const TenantKind kind = fleet.kinds[static_cast<std::size_t>(i - 1)];
    Program& p = boot.program(kind_name(kind), i);
    programs.push_back(
        {strfmt("tenant-%d-%s", i, kind_name(kind)),
         [&p, kind](ros::SysIface& sys) { return tenant_main(p, sys, kind); },
         fleet.faults[static_cast<std::size_t>(i - 1)]});
  }
  boot.starting_run(true);
  auto r = boot.sys().run_tenants(std::move(programs));
  if (!r.is_ok()) {
    round.op(false, "run_tenants: " + r.status().to_string());
    boot.finish({});
    return;
  }
  for (int i = 0; i < tenants; ++i) {
    const ProgramResult& pr = r->programs[static_cast<std::size_t>(i)];
    const char* kind = "host";
    bool right_output = true;
    // The open seed defects: a Vessel tenant whose Engine::init fails, a
    // VCODE tenant that exits 0 with its PRINT's bytes on its stdout all
    // zero, and a tenant whose guest memory access ends in an unrepaired
    // fault (EFAULT).
    bool known = false;
    if (i > 0) {
      const TenantKind k = fleet.kinds[static_cast<std::size_t>(i - 1)];
      kind = kind_name(k);
      if (k == TenantKind::kVcode) {
        // A VCODE tenant's result is what its PRINT wrote to its stdout.
        right_output = pr.stdout_text == kVcodeOutput;
        known = pr.exit_code == kOk &&
                pr.stdout_text ==
                    std::string(std::strlen(kVcodeOutput), '\0');
      }
      known |= pr.exit_code == kFaulted ||
               (k == TenantKind::kVessel && pr.exit_code == kInitFailed);
    }
    round.op(pr.exit_code == kOk && right_output,
             strfmt("tenant %d (%s) exit %d stdout '%s'", i, kind,
                    pr.exit_code, pr.stdout_text.substr(0, 40).c_str()),
             known);
  }
  for (const Cycles c : r->boot_cycles) {
    round.samples["vmm.tenant_boot_cycles"].push_back(static_cast<double>(c));
  }
  for (const auto& snap : r->slo) {
    absorb_tenant_snapshot(round, snap.metrics_text);
  }
  boot.finish(r->programs);
}

Workload tenant_fleet(const WorkloadOptions& o) {
  // 1 host + 23 created tenants: about 1.7 GB of host memory at seed, and
  // well past the 16 contending tenants at which the seed's missing-file
  // stat defect shows.
  const int tenants = o.tiny ? 4 : 24;
  // A round runs one fleet: the kinds interleave Vessel, VCODE, CG, and
  // every fourth created tenant carries abl_tenant_density's storm fault
  // spec, with a fault seed the seed draws. One fleet per process: with
  // three fleets in one process, whether the allocator gave a fleet's
  // memory back before the next one depended on the fault seeds, and
  // ru_minflt (and with it cpu_s) swung by half between seeds.
  Rng rng(o.seed);
  Fleet fleet;
  for (int i = 1; i < tenants; ++i) {
    fleet.kinds.push_back(static_cast<TenantKind>((i - 1) % 3));
    fleet.faults.push_back(
        i % 4 == 0 ? strfmt("drop_doorbell=0.5,dup_doorbell=0.25,seed=%llu",
                            static_cast<unsigned long long>(
                                rng.below(1u << 30)))
                   : std::string{});
  }
  return {[fleet](Round& round) { run_fleet(round, fleet); }};
}

// --- syscall_storm ----------------------------------------------------------

enum class StormOp : std::uint8_t { kGetpid, kWrite, kRead, kNanosleep };

constexpr std::uint64_t kIoBytes = 64;
// abl_group_scaleout's forwarded nanosleep duration.
constexpr std::uint64_t kSleepUs = 10;

// The open seed defect: with 8 or more groups, a group's first touch of its
// HRT-stack scratch slice can end in EFAULT. What follows from it counts as
// part of it: the read-side open of a file whose create failed (ENOENT),
// and every call on an fd that never opened.
bool storm_defect(const Status& s, bool follows_defect) {
  return follows_defect || s.code() == Err::kFault;
}

std::uint8_t pattern_byte(int group, std::uint64_t offset) {
  return static_cast<std::uint8_t>(offset * 31 +
                                   static_cast<unsigned>(group) * 7);
}

// One execution group: its own file, opened once for writing and once for
// reading, then the seeded mix back to back, each return value checked.
void storm_group(Program& p, ros::SysIface& raw, int group,
                 const std::vector<StormOp>& ops, std::uint64_t pid) {
  p.enter();
  {
    TracedIface sys(raw, p);
    Round& round = p.round();
    const std::string path = strfmt("/storm-%d.dat", group);
    auto wfd = sys.open(path, ros::kOCreat | ros::kOWrOnly | ros::kOTrunc);
    round.op(wfd.is_ok(), "open " + path + ": " + wfd.status().to_string(),
             storm_defect(wfd.status(), false));
    auto rfd = sys.open(path, ros::kORdOnly);
    round.op(rfd.is_ok(), "open " + path + ": " + rfd.status().to_string(),
             storm_defect(rfd.status(), !wfd.is_ok()));
    // A failed open leaves the mix running on fd -1, so its writes and
    // reads fail and count too.
    const int out_fd = wfd.is_ok() ? *wfd : -1;
    const int in_fd = rfd.is_ok() ? *rfd : -1;
    std::uint64_t written = 0;
    std::uint64_t read_pos = 0;
    std::uint8_t buf[kIoBytes];
    for (const StormOp op : ops) {
      switch (op) {
        case StormOp::kGetpid: {
          auto r = sys.getpid();
          round.op(r.is_ok() && *r == pid, "getpid");
          break;
        }
        case StormOp::kWrite: {
          for (std::uint64_t i = 0; i < kIoBytes; ++i) {
            buf[i] = pattern_byte(group, written + i);
          }
          auto r = sys.write(out_fd, buf, kIoBytes);
          round.op(r.is_ok() && *r == kIoBytes, "write",
                   storm_defect(r.status(), out_fd < 0));
          if (r.is_ok()) written += *r;
          break;
        }
        case StormOp::kRead: {
          const std::uint64_t expect = std::min(kIoBytes, written - read_pos);
          auto r = sys.read(in_fd, buf, kIoBytes);
          bool same = r.is_ok() && *r == expect;
          for (std::uint64_t i = 0; same && i < expect; ++i) {
            same = buf[i] == pattern_byte(group, read_pos + i);
          }
          round.op(same, "read", storm_defect(r.status(), in_fd < 0));
          if (r.is_ok()) read_pos += *r;
          break;
        }
        case StormOp::kNanosleep: {
          auto r =
              sys.syscall(ros::SysNr::kNanosleep, {kSleepUs, 0, 0, 0, 0, 0});
          round.op(r.is_ok() && *r == 0, "nanosleep");
          break;
        }
      }
    }
    const Status wc = sys.close(out_fd);
    round.op(wc.is_ok(), "close", storm_defect(wc, out_fd < 0));
    const Status rc = sys.close(in_fd);
    round.op(rc.is_ok(), "close", storm_defect(rc, in_fd < 0));
  }
  p.leave();
}

Workload syscall_storm(const WorkloadOptions& o) {
  // 16 groups of 2000 calls: the size of the getpid-only storm whose host
  // cost perfbench/README.md quotes.
  const int groups = o.tiny ? 2 : 16;
  const int calls = o.tiny ? 50 : 2000;
  Rng rng(o.seed);
  // The four calls are drawn with equal weight. This is a choice, not a
  // measurement: no run in the repository issues all four, so there is no
  // histogram to take the weights from.
  std::vector<std::vector<StormOp>> ops(static_cast<std::size_t>(groups));
  for (auto& group_ops : ops) {
    for (int i = 0; i < calls; ++i) {
      group_ops.push_back(static_cast<StormOp>(rng.below(4)));
    }
  }
  return {[groups, ops](Round& round) {
    SystemConfig cfg;
    cfg.sockets = 2;
    cfg.cores_per_socket = 4;
    cfg.ros_cores = {0, 1, 2};
    cfg.hrt_cores = {4, 5, 6, 7};
    cfg.group_mode = GroupMode::kSharedDaemon;
    cfg.extra_override_config = "option service_workers 2\n";
    Boot boot(round, "storm", cfg);
    Program& main_p = boot.program("main", 0);
    std::vector<Program*> group_p;
    for (int g = 0; g < groups; ++g) {
      group_p.push_back(&boot.program(strfmt("group-%d", g), g + 1));
    }
    boot.starting_run(true);
    auto r = boot.sys().run_accelerator(
        "storm", [&](ros::SysIface& raw, MultiverseRuntime& rt,
                     ros::Thread& self) {
          main_p.enter();
          {
            TracedIface sys(raw, main_p);
            auto pid = sys.getpid();
            round.op(pid.is_ok(), "getpid (main)");
            std::vector<int> ids;
            for (int g = 0; g < groups && pid.is_ok(); ++g) {
              Program* gp = group_p[static_cast<std::size_t>(g)];
              const auto* group_ops = &ops[static_cast<std::size_t>(g)];
              const std::uint64_t want = *pid;
              auto id = rt.hrt_thread_create(
                  self, [gp, g, group_ops, want](ros::SysIface& hrt) {
                    storm_group(*gp, hrt, g, *group_ops, want);
                  });
              round.op(id.is_ok(), "hrt_thread_create");
              if (id.is_ok()) ids.push_back(*id);
            }
            for (const int id : ids) {
              round.op(rt.hrt_thread_join(self, id).is_ok(), "hrt_thread_join");
            }
          }
          main_p.leave();
          return kOk;
        });
    if (!r.is_ok()) {
      round.op(false, "run_accelerator: " + r.status().to_string());
      boot.finish({});
      return;
    }
    if (r->exit_code != kOk) {
      round.op(false, strfmt("storm main exit %d", r->exit_code));
    }
    boot.finish({*r});
  }};
}

}  // namespace

Workload make_workload(const WorkloadOptions& o, std::string* error) {
  if (o.name == "vessel_vm") return vessel(o, false, error);
  if (o.name == "vessel_gc") return vessel(o, true, error);
  if (o.name == "tenant_fleet") return tenant_fleet(o);
  if (o.name == "syscall_storm") return syscall_storm(o);
  *error = "unknown workload " + o.name;
  return {};
}

bool write_golden(const std::string& dir, bool tiny) {
  for (int i = 0; i < scheme::kBenchCount; ++i) {
    const auto b = static_cast<scheme::Bench>(i);
    auto r = mvbench::run_scheme_benchmark(mvbench::Mode::kNative, b,
                                           size_of(b, tiny),
                                           mvbench::interpreter_profile());
    if (!r.is_ok() || r->exit_code != 0) return false;
    std::ofstream out(golden_path(dir, tiny, b), std::ios::binary);
    out << r->stdout_text;
    if (!out) return false;
  }
  return true;
}

}  // namespace perfbench
