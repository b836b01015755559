#pragma once

// HybridSystem: one-stop construction of the full stack (machine -> VMM/HVM
// -> ROS + AeroKernel -> Multiverse runtime) with the paper's three
// measurement configurations:
//
//   run()         with virtualized=false  ->  "Native"  (bare metal Linux)
//   run()         with virtualized=true   ->  "Virtual" (Linux as HVM guest)
//   run_hybrid()                          ->  "Multiverse" (incremental HRT)
//
// The same guest program (a std::function over ros::SysIface) runs unmodified
// in all three — which is the paper's entire point.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aerokernel/nautilus.hpp"
#include "multiverse/runtime.hpp"
#include "multiverse/toolchain.hpp"
#include "ros/linux.hpp"
#include "support/result.hpp"
#include "support/sched.hpp"
#include "support/telemetry.hpp"
#include "vmm/hvm.hpp"

namespace mv::multiverse {

struct SystemConfig {
  unsigned sockets = 2;
  unsigned cores_per_socket = 2;
  std::uint64_t dram_bytes = 1ull << 30;      // 1 GiB guest, as the paper
  std::uint64_t ros_mem_bytes = 1ull << 29;   // ROS partition
  unsigned ros_core = 0;
  unsigned hrt_core = 1;  // same socket by default; cross-socket for Fig 2
  // Multi-core partitions (group scale-out): when non-empty these override
  // the singular ros_core/hrt_core above. The placement policies spread
  // top-level HRT threads over hrt_cores; the ROS schedules its threads
  // (service workers included) round-robin over ros_cores.
  std::vector<unsigned> ros_cores;
  std::vector<unsigned> hrt_cores;
  bool virtualized = true;
  std::string extra_override_config;  // appended to the defaults at build
  naut::Nautilus::Config naut_config;
  // Execution-group structure (future-work variant switch).
  GroupMode group_mode = GroupMode::kDedicatedPartner;
};

// Everything the paper's tables report about one program execution.
struct ProgramResult {
  int exit_code = 0;
  bool killed = false;
  int fatal_signal = 0;
  std::string stdout_text;
  std::string stderr_text;
  std::uint64_t total_syscalls = 0;
  std::map<std::string, std::uint64_t> syscall_histogram;
  std::uint64_t vdso_calls = 0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t signals_delivered = 0;
  double utime_s = 0;
  double stime_s = 0;
  double elapsed_s = 0;
  // Multiverse-specific:
  std::uint64_t forwarded_syscalls = 0;
  std::uint64_t forwarded_faults = 0;
  std::uint64_t remerges = 0;
};

class HybridSystem {
 public:
  explicit HybridSystem(SystemConfig config);
  HybridSystem() : HybridSystem(SystemConfig{}) {}

  // Run a guest program in the ROS (Native or Virtual, per config).
  Result<ProgramResult> run(const std::string& name,
                            std::function<int(ros::SysIface&)> guest_main);

  // Run the same program hybridized (incremental model): the toolchain-built
  // fat binary's init hooks run before main, then main executes in the HRT.
  // A one-program run_tenants.
  Result<ProgramResult> run_hybrid(
      const std::string& name,
      std::function<int(ros::SysIface&)> guest_main);

  // One tenant's workload in a multi-tenant run.
  struct TenantProgram {
    std::string name;
    std::function<int(ros::SysIface&)> guest_main;  // runs in the tenant's HRT
    // Per-tenant deterministic fault spec (empty = fault-free tenant); only
    // honored for created tenants — program 0 (tenant 0) takes its plan from
    // the embedded config's `option fault`.
    std::string fault_spec;
  };
  struct TenantRunResult {
    std::vector<ProgramResult> programs;  // one per program, in input order
    // Cached-image boot cost per tenant_create, in creation order.
    std::vector<Cycles> boot_cycles;
    // Per-tenant SLO snapshots captured at each tenant_destroy, in
    // destruction order: registry-sourced request-latency percentiles,
    // fault/stall/suppression counts, and the tenant's full metric export.
    std::vector<TenantSloSnapshot> slo;
  };

  // Host every program as its own tenant in ONE system: program 0 boots the
  // stack (becoming tenant 0) and stays up until the others finish; each
  // later program waits for startup, tenant_creates itself (cached-image
  // boot), runs hybridized, and destroys its tenant on the way out. The
  // config must allow the head count (`option tenants N` via
  // extra_override_config). run_hybrid is the one-program case.
  Result<TenantRunResult> run_tenants(std::vector<TenantProgram> programs);

  // Machine-readable per-tenant metric export: JSON and Prometheus-style
  // text, every instrument labeled with its owning tenant. For a live
  // tenant (or tenant 0, which is always live) the export reads the
  // registry directly; for an already-destroyed tenant it replays the
  // snapshot tenant_destroy captured. `found` is false when the id was
  // never a tenant this run.
  struct TenantMetricsExport {
    bool found = false;
    std::string json;
    std::string text;
  };
  [[nodiscard]] TenantMetricsExport export_tenant_metrics(int tenant_id);

  // Accelerator-model entry: main runs in the ROS and gets the runtime to
  // raise explicit HRT work (hrt_invoke_func / overridden pthreads).
  using AcceleratorMain = std::function<int(
      ros::SysIface& iface, MultiverseRuntime& runtime, ros::Thread& self)>;
  Result<ProgramResult> run_accelerator(const std::string& name,
                                        AcceleratorMain main_fn);

  // --- component access for white-box tests & microbenches ----------------
  [[nodiscard]] hw::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] Sched& sched() noexcept { return sched_; }
  [[nodiscard]] vmm::Hvm& hvm() noexcept { return hvm_; }
  [[nodiscard]] ros::LinuxSim& linux() noexcept { return linux_; }
  [[nodiscard]] naut::Nautilus& naut() noexcept { return naut_; }
  [[nodiscard]] MultiverseRuntime& runtime() noexcept { return runtime_; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<std::uint8_t>& fat_binary() const noexcept {
    return fat_binary_;
  }

  // Manually drive startup on a process's main thread (white-box testing).
  Status manual_startup(ros::Thread& main_thread) {
    return runtime_.startup(main_thread, fat_binary_);
  }

 private:
  ProgramResult collect(const ros::Process& proc, std::uint64_t start_us,
                        bool hybrid);

  // First member: snapshots the telemetry singletons before any component
  // (machine clock binding, instrument creation) touches them, and rolls
  // them back after every component is gone — so a second system booted in
  // the same process is bitwise identical to a fresh-process boot.
  TelemetryScope telemetry_;
  SystemConfig config_;
  hw::Machine machine_;
  Sched sched_;
  vmm::Hvm hvm_;
  ros::LinuxSim linux_;
  naut::Nautilus naut_;
  MultiverseRuntime runtime_;
  std::vector<std::uint8_t> fat_binary_;
};

}  // namespace mv::multiverse
