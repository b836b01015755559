#pragma once

// The Multiverse runtime component: the code the toolchain links into the
// application. Performs the initialization tasks of Sec 3.5 (signal handler
// registration, exit hooking, AeroKernel function linkage, image install,
// boot, address-space merger), owns the execution groups of Sec 4.2 (partner
// threads, top-level and nested HRT threads, join semantics, exit
// signaling), and implements AeroKernel overrides (Sec 3.4).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aerokernel/nautilus.hpp"
#include "multiverse/event_channel.hpp"
#include "multiverse/hybridize.hpp"
#include "multiverse/toolchain.hpp"
#include "ros/linux.hpp"
#include "support/faultplan.hpp"
#include "support/result.hpp"
#include "vmm/hvm.hpp"

namespace mv::multiverse {

class MultiverseRuntime;

// One tenant: an independent guest sharing the machine, the ROS, and the
// service pool with every other tenant, but owning its execution groups,
// event channels, fault plan, and hybridization state. Tenant 0 is the
// process that ran startup(): it runs on the boot root (hrt_root and ros_cr3
// stay 0), takes its fault plan from `option fault`, keeps the bare
// pre-tenant metric names, and lives as long as the runtime. Every other
// tenant comes from tenant_create.
struct Tenant {
  int id = 0;
  ros::Process* proc = nullptr;  // the tenant's ROS process
  std::uint64_t hrt_root = 0;    // per-tenant HRT address-space root
  std::uint64_t ros_cr3 = 0;     // the tenant process's CR3
  Cycles boot_cycles = 0;        // measured cached-image boot cost
  // Per-tenant fault plan (null = no injection for this tenant's channels
  // and shootdowns) and hybridization state, so one tenant's fault schedule
  // or runtime promotions never leak into another's. The override table is
  // the single source of truth for the tenant's override dispatch; the
  // governor (when enabled) promotes/demotes its entries in place.
  std::unique_ptr<FaultPlan> fault_plan;
  OverrideTable override_table;
  std::unique_ptr<HybridizationGovernor> governor;
  std::vector<int> group_ids;  // groups this tenant created
  // Cached SLO instruments in the tenant's metric namespace
  // (tenant/<id>/...), resolved once at tenant_create so the channel hot
  // path bumps pointers, never resolves names. Null for tenant 0.
  metrics::Histogram* slo_latency = nullptr;          // slo/request_latency
  metrics::Counter* slo_watchdog_stalls = nullptr;    // watchdog/stalls
  metrics::Counter* slo_doorbells_suppressed = nullptr;  // doorbells_suppressed
  // Tenant-local channel numbering for instrument names: ordinals restart at
  // 0 for every tenant incarnation, so a destroyed-then-recreated tenant
  // exports byte-identical metrics even though group ids keep climbing.
  int next_channel_ordinal = 0;
};

// Final per-tenant SLO accounting, captured by tenant_destroy in the instant
// before the tenant's instruments are erased from the registry. Survives the
// tenant (and the registry rollback ordering within a run), so the density
// bench and export paths can report on tenants that already left.
struct TenantSloSnapshot {
  int tenant_id = 0;
  std::uint64_t requests = 0;           // slo/request_latency count
  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t watchdog_stalls = 0;
  std::uint64_t doorbells_suppressed = 0;
  std::string metrics_json;  // Registry::to_json(tenant_id) at destroy
  std::string metrics_text;  // Registry::to_prometheus(tenant_id) at destroy
};

// One execution group: a top-level HRT thread paired with its ROS partner.
struct ExecGroup {
  int id = 0;
  MultiverseRuntime* runtime = nullptr;
  // Owning tenant: the tenant whose process created the group. In
  // shared-daemon mode the partner is a pool worker whose process may belong
  // to another tenant, so per-process state (vdso counters, signal table,
  // utime) must go through tenant->proc.
  Tenant* tenant = nullptr;
  // The one-shot HVM invocation trampoline registered for this group's
  // launch (unbound again when the group is destroyed).
  std::uint64_t invocation_id = 0;
  std::unique_ptr<EventChannel> channel;
  ros::Thread* partner = nullptr;
  int hrt_tid = -1;                 // Nautilus thread id, set after creation
  // HRT core the placement policy picked for this group's top-level thread;
  // the channel is bound to the same core, by construction.
  unsigned hrt_core = 0;
  std::uint64_t hrt_stack_base = 0; // ROS-side stack the partner allocated
  std::uint64_t hrt_stack_size = 0;
  ros::GuestThreadFn body;          // what the HRT thread runs
  std::uint64_t fs_base = 0;        // TLS superposition payload
  hw::Gdt gdt;                      // GDT superposition payload
  bool finished = false;
  // Each HRT context (top-level + nested threads) stages syscall arguments
  // in its own slice of the ROS-side stack, so concurrent requests on the
  // shared channel cannot clobber each other's buffers.
  std::uint64_t next_scratch_slice = 0;
  // Shared-daemon mode (no dedicated partner): joiners park here.
  bool uses_daemon = false;
  // Already sitting in its service worker's ready queue (dedup flag so a
  // burst of doorbells enqueues the group once).
  bool ready_enqueued = false;
  std::vector<TaskId> join_waiters;
};

// How execution groups are structured on the ROS side (the paper's future
// work: "radically different execution groups"):
//   kDedicatedPartner — the paper's design: one ROS partner thread per
//                       top-level HRT thread (preserves join semantics
//                       directly, scales ROS threads with HRT threads).
//   kSharedDaemon     — a fixed pool of ROS service workers (default 1, the
//                       classic daemon; `option service_workers K` shards
//                       channels across K workers by group id) drains
//                       doorbell-fed ready queues (constant ROS-side
//                       footprint, service parallelism bounded by K).
enum class GroupMode { kDedicatedPartner, kSharedDaemon };

// SysIface for code executing in HRT context. Same programs, different
// plumbing: syscalls hit the Nautilus stub and forward over the group's
// event channel; memory goes through the HRT core against the merged address
// space; pthread calls are overridden to AeroKernel threads.
class HrtCtx final : public ros::SysIface {
 public:
  HrtCtx(MultiverseRuntime& runtime, ExecGroup& group);

  Result<std::uint64_t> syscall(ros::SysNr nr,
                                std::array<std::uint64_t, 6> args) override;
  // Batched forwarding: runs of non-overridden syscalls go through the
  // Nautilus batch stub (one channel flush per run); overridden memory calls
  // and exits keep their direct paths, in order.
  std::vector<Result<std::uint64_t>> syscall_batch(
      const std::vector<ros::SysReq>& reqs) override;
  Status mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) override;
  Status mem_write(std::uint64_t vaddr, const void* in,
                   std::uint64_t len) override;
  Status mem_touch(std::uint64_t vaddr, hw::Access access) override;
  ros::TimeVal vdso_gettimeofday() override;
  std::uint64_t vdso_getpid() override;
  Result<int> thread_create(ros::GuestThreadFn fn) override;
  Status thread_join(int tid) override;
  void thread_yield() override;
  Status sigaction(int sig, ros::GuestSigHandler handler) override;
  void charge_user(std::uint64_t cycles) override;
  std::uint64_t scratch_base() override;
  std::uint64_t scratch_size() override { return kScratchSliceBytes - 4096; }
  [[nodiscard]] Mode mode() const override { return Mode::kHrt; }

  // Accelerator-model direct AeroKernel call (Fig 4's aerokernel_func()).
  Result<std::uint64_t> aerokernel_call(std::string_view symbol,
                                        std::uint64_t arg);

  [[nodiscard]] ExecGroup& group() noexcept { return *group_; }

  static constexpr std::uint64_t kScratchSliceBytes = 64 * 1024;

 private:
  MultiverseRuntime* rt_;
  ExecGroup* group_;
  std::uint64_t scratch_slice_ = 0;
};

class MultiverseRuntime {
 public:
  MultiverseRuntime(Sched& sched, ros::LinuxSim& linux, vmm::Hvm& hvm,
                    naut::Nautilus& naut);
  ~MultiverseRuntime();

  // ------ toolchain-inserted initialization (before the program's main) ----
  // Parses the fat binary, installs and boots the AeroKernel, registers the
  // ROS signal handlers, links AeroKernel functions, merges address spaces.
  Status startup(ros::Thread& main_thread,
                 std::span<const std::uint8_t> fat_binary);
  // Process-exit hook: shuts the HRT down (all groups must have finished).
  Status shutdown();

  // ------ usage-model entry points -------------------------------------------
  // Accelerator model: run `fn` to completion in a fresh HRT thread
  // (hrt_invoke_func() of Fig 4). Blocks the caller via partner join.
  Status hrt_invoke_func(ros::Thread& caller, ros::GuestThreadFn fn);
  // Incremental model / overridden pthread_create: returns a group id the
  // caller can later join (join blocks on the partner, per Sec 4.2).
  Result<int> hrt_thread_create(ros::Thread& caller, ros::GuestThreadFn fn);
  Status hrt_thread_join(ros::Thread& caller, int group_id);

  // ------ multi-tenant hosting ----------------------------------------------
  // Admit the caller's process as a new tenant: boot its HRT view from the
  // cached image (kBootTenant — a sparse PML4 stamp over the already-booted
  // kernel, microseconds against the ~2.2 ms cold boot), give it its own
  // fault plan (parsed from `fault_spec`, empty = fault-free) and
  // hybridization state, and associate every group the process later creates
  // with it. Fails once `option tenants N` is reached. Returns the tenant id.
  Result<int> tenant_create(ros::Thread& caller,
                            const std::string& fault_spec = {});
  // Tear the tenant down: every group it owns must have finished. Destroys
  // its groups (channels, ring pages, shard membership, trampolines, load
  // accounting), drops its address-space root, and detaches its fault plan —
  // a destroy-then-recreate must leave no residue anywhere. Tenant 0 lives
  // as long as the runtime and is refused.
  Status tenant_destroy(int tenant_id);
  [[nodiscard]] Tenant* find_tenant(int tenant_id) {
    const auto it = tenants_.find(tenant_id);
    return it == tenants_.end() ? nullptr : it->second.get();
  }
  // Live tenants, tenant 0 included.
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.size();
  }
  // Cached-boot cost of every tenant_create this run, in creation order
  // (survives the tenants' destruction — the density bench reads it last).
  [[nodiscard]] const std::vector<Cycles>& tenant_boot_history()
      const noexcept {
    return tenant_boot_history_;
  }
  // Per-tenant SLO snapshots in destruction order (same lifetime contract as
  // the boot history above).
  [[nodiscard]] const std::vector<TenantSloSnapshot>& tenant_slo_history()
      const noexcept {
    return tenant_slo_history_;
  }
  // Force the shared-daemon service pool into existence from `caller`'s
  // process (no-op in dedicated-partner mode or when it already runs).
  // Multi-tenant drivers call this from the startup process so pool workers
  // never land in — and die with — a transient tenant's process.
  Status warm_service_pool(ros::Thread& caller) {
    if (group_mode_ != GroupMode::kSharedDaemon) return Status::ok();
    return ensure_service_pool(caller);
  }

  // ------ accessors -----------------------------------------------------------
  [[nodiscard]] const OverrideConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] naut::Nautilus& naut() noexcept { return *naut_; }
  [[nodiscard]] ros::LinuxSim& linux() noexcept { return *linux_; }
  [[nodiscard]] vmm::Hvm& hvm() noexcept { return *hvm_; }
  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t groups_created() const noexcept {
    return next_group_id_ - 1;
  }
  void set_group_mode(GroupMode mode) noexcept { group_mode_ = mode; }
  [[nodiscard]] GroupMode group_mode() const noexcept { return group_mode_; }
  // White-box inspection for placement/service-pool tests.
  [[nodiscard]] ExecGroup* find_group(int group_id) {
    const auto it = groups_by_id_.find(group_id);
    return it == groups_by_id_.end() ? nullptr : it->second;
  }
  [[nodiscard]] std::size_t join_waiter_count(int group_id) const {
    const auto it = groups_by_id_.find(group_id);
    return it == groups_by_id_.end() ? 0 : it->second->join_waiters.size();
  }
  [[nodiscard]] std::size_t service_worker_count() const noexcept {
    return workers_.size();
  }
  // Tenant 0's state, for benches and tests that inspect the startup
  // process's run: the fault plan built from `option fault` (null when the
  // config carries none), the adaptive-hybridization governor (null unless
  // `option hybridize on`), and the override dispatch table.
  [[nodiscard]] FaultPlan* fault_plan() { return host().fault_plan.get(); }
  [[nodiscard]] HybridizationGovernor* governor() {
    return host().governor.get();
  }
  [[nodiscard]] const OverrideTable& override_table() {
    return host().override_table;
  }
  // Single source of truth for override dispatch: the active entry for `nr`
  // in `tenant`'s table, or nullptr when the call must forward. Consulted by
  // both HrtCtx::syscall and syscall_batch, so a family can never drift
  // between the two paths, and a governor promotion in one tenant never
  // flips another tenant's calls.
  [[nodiscard]] static OverrideEntry* find_override(ros::SysNr nr,
                                                    Tenant& tenant) noexcept {
    OverrideEntry* entry = tenant.override_table.entry(nr);
    return entry != nullptr && entry->active ? entry : nullptr;
  }

  // Kernel-mode memory-op overrides (the incremental->accelerator porting
  // path of Sec 5's conclusion: mmap/mprotect "hundreds of times faster
  // within the kernel").
  // `proc` is the calling group's tenant process, whose address space the
  // op edits.
  Result<std::uint64_t> kernel_mode_memop(ros::SysNr nr,
                                          std::array<std::uint64_t, 6> args,
                                          unsigned hrt_core,
                                          ros::Process& proc);

 private:
  friend class HrtCtx;

  // One shard of the shared-daemon service pool: a ROS worker thread plus
  // the doorbell-fed queue of groups with pending work and the shard's
  // channel membership (group id modulo worker count).
  struct ServiceWorker {
    ros::Thread* thread = nullptr;
    std::deque<ExecGroup*> ready;
    std::vector<ExecGroup*> groups;
    Cycles busy_cycles = 0;
    // Exitless-mode accounting: cycles burnt polling shard rings, and how
    // many spin windows ended with work found vs expired empty.
    Cycles spin_cycles_spent = 0;
    std::uint64_t spin_hits = 0;
    std::uint64_t spin_timeouts = 0;
  };

  Result<ExecGroup*> create_group(ros::Thread& caller, ros::GuestThreadFn fn);
  // Erase one finished group everywhere it is referenced: the kernel's
  // channel pointers, shard ready deques and group lists, the
  // invocation trampoline, and the id indexes. Destroying the group frees
  // its channel (ring page, providers, watchdog state) with it.
  void destroy_group(ExecGroup* group);
  // Per-tenant state shared by tenant 0 and created tenants: the fault plan
  // parsed from `fault_spec` (empty = fault-free), the override table seeded
  // from the embedded config, and the governor when hybridization is on.
  Status init_tenant_state(Tenant& tenant, const std::string& fault_spec);
  // Tenant 0 (the startup process); exists from startup() on.
  [[nodiscard]] Tenant& host() { return *tenants_.at(0); }
  void partner_body(ExecGroup* group, ros::SysIface& pctx);
  // Shared-daemon service-pool internals.
  Status ensure_service_pool(ros::Thread& caller);
  void service_worker_body(std::size_t idx, ros::SysIface& dctx);
  // Adaptive exitless mode: after draining its ready deque, a worker polls
  // its shard's submission rings for the configured spin window before
  // re-arming the doorbell and blocking. Returns true when polling found
  // work (the ready deque is non-empty again).
  bool service_worker_spin(ServiceWorker& worker, hw::Core& core);
  // Doorbell path: push the group onto its shard's ready queue (deduped) and
  // wake only that shard's worker.
  void enqueue_ready(ExecGroup* group);
  // Placement for a new group's top-level HRT thread: round-robin over the
  // HRT partition.
  [[nodiscard]] unsigned pick_hrt_core();
  Status launch_hrt_thread(ExecGroup* group, ros::Thread& launcher,
                           ros::SysIface& lctx);
  // Lazily resolve an override entry's kernel symbol on its first use
  // (charged) and cache the vaddr so later calls charge no lookup.
  Status warm_override(OverrideEntry& entry, unsigned core);
  void link_aerokernel_functions();
  void on_user_interrupt(std::uint64_t hrt_tid);

  Sched* sched_;
  ros::LinuxSim* linux_;
  vmm::Hvm* hvm_;
  naut::Nautilus* naut_;
  OverrideConfig config_;
  bool started_ = false;
  int next_group_id_ = 1;
  std::vector<std::unique_ptr<ExecGroup>> groups_;
  std::map<int, ExecGroup*> groups_by_hrt_tid_;
  std::map<int, ExecGroup*> groups_by_id_;
  // Trampoline registry for HVM async function-call requests.
  std::map<std::uint64_t, ExecGroup*> pending_invocations_;
  std::uint64_t next_invocation_id_ = 0x100000;
  // Shared-daemon service-pool state.
  GroupMode group_mode_ = GroupMode::kDedicatedPartner;
  std::vector<ServiceWorker> workers_;
  bool pool_stop_ = false;
  // Placement state: the round-robin cursor over the HRT partition.
  std::size_t next_hrt_core_rr_ = 0;
  // Tenants by id, process, and HRT root (tenant 0 from startup on).
  std::map<int, std::unique_ptr<Tenant>> tenants_;
  std::map<ros::Process*, Tenant*> tenants_by_proc_;
  std::map<std::uint64_t, Tenant*> tenants_by_root_;
  std::vector<Cycles> tenant_boot_history_;
  std::vector<TenantSloSnapshot> tenant_slo_history_;
};

}  // namespace mv::multiverse
