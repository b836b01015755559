#pragma once

// Event channels: "event-based, VMM-controlled communication channels
// between the two contexts. The VMM only expects that the execution group
// adheres to a strict protocol for event requests and completion."
//
// One channel exists per execution group. The HRT side (top-level thread and
// its nested threads) stages requests into a submission/completion ring in a
// shared physical page and raises the partner; the partner services requests
// in the originating ROS thread context and completes them. Two transports
// are modeled:
//   - asynchronous (default): hypercall + VMM injection, ~25 K cycles RTT
//   - synchronous (post-merge): pure memory polling protocol, ~0.8-1 K cycles
//
// The ring is io_uring-shaped: a fixed slot array indexed by free-running
// sequence numbers plus head/tail words, all in the shared page. Nested HRT
// threads claim slots independently (no global channel lock); the partner
// drains the ring in submission order per wakeup. Doorbells are batched: in
// the async transport one kRaiseRos hypercall flushes every pending
// submission (a coalescing flag suppresses redundant rings while the server
// is already draining), and in sync mode the partner polls the ring with no
// hypercall at all.
//
// Compatibility mode: ring depth 1 with the eager doorbell reproduces the
// old single-slot protocol bit-for-bit — each request charges exactly one
// transport round trip on the requester's core, so the pre-ring cycle
// numbers (Fig 2 / Fig 9) are unchanged.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "aerokernel/nautilus.hpp"
#include "ros/linux.hpp"
#include "support/faultplan.hpp"
#include "support/metrics.hpp"
#include "support/result.hpp"
#include "support/sched.hpp"
#include "vmm/hvm.hpp"

namespace mv::multiverse {

class EventChannel final : public naut::LegacyChannel {
 public:
  // Shared-page ring layout (all offsets within the channel page). Exposed
  // for white-box protocol tests.
  struct Ring {
    static constexpr std::uint64_t kMaxDepth = 16;
    // Header words.
    static constexpr std::uint64_t kOffSubHead = 0x00;   // next seq to serve
    static constexpr std::uint64_t kOffSubTail = 0x08;   // next seq to claim
    static constexpr std::uint64_t kOffDoorbell = 0x10;  // coalescing flag
    static constexpr std::uint64_t kOffDepth = 0x18;     // slot count
    // Exitless-mode handshake word: non-zero while the ROS-side consumer is
    // actively polling this ring (a service worker in its spin window). A
    // guest flush that reads it non-zero skips the kRaiseRos doorbell
    // hypercall — the submission is picked up from shared memory. The
    // consumer must clear it *before* its final ring re-check on the way to
    // blocking, or a flush racing the clear is silently lost.
    static constexpr std::uint64_t kOffConsumerPoll = 0x20;
    // Slot array: slot(seq) = kSlot0 + (seq % depth) * kSlotStride.
    static constexpr std::uint64_t kSlot0 = 0x40;
    static constexpr std::uint64_t kSlotStride = 0x80;
    // Slot-relative offsets.
    static constexpr std::uint64_t kSlotState = 0x00;
    static constexpr std::uint64_t kSlotKind = 0x08;
    static constexpr std::uint64_t kSlotSysNr = 0x10;
    static constexpr std::uint64_t kSlotArgs = 0x18;  // 6 x u64
    static constexpr std::uint64_t kSlotVaddr = 0x48;
    static constexpr std::uint64_t kSlotError = 0x50;
    static constexpr std::uint64_t kSlotRspStatus = 0x58;
    static constexpr std::uint64_t kSlotRspValue = 0x60;
    // Free-running sequence number of the completion occupying the slot.
    // Lets a requester distinguish its own completion from a stale duplicate
    // aimed at an earlier occupant of the same physical slot.
    static constexpr std::uint64_t kSlotRspSeq = 0x68;
    // Causal span id of the request occupying the slot: the requester stamps
    // it at submit and both sides thread it through their trace/flight-
    // recorder events, so one request is one arrow chain across contexts.
    static constexpr std::uint64_t kSlotSpan = 0x70;
    // Slot lifecycle: free -> submitted -> completed -> free. A slot is
    // reusable only once the submitter has reaped the completion.
    enum State : std::uint64_t {
      kFree = 0,
      kSubmitted = 1,
      kCompleted = 2,
    };
  };

  // Request kinds in a slot's kind word.
  enum : std::uint64_t { kIdle = 0, kSyscall = 1, kFault = 2 };

  // Attribution of this channel to its tenant. Tenant 0 (the default) names
  // instruments exactly as the pre-tenant code did — bare names keyed by
  // the channel id — and wires no SLO hooks, so single-tenant behavior is
  // bitwise unchanged. For a created tenant the runtime passes the tenant id
  // (tags flight-recorder events, traces, and the MV_CHECK context), a
  // tenant-local channel ordinal (instrument names become
  // tenant/<id>/channel/<ordinal>/... — ordinals restart at 0 per tenant
  // incarnation, so destroy-then-recreate exports identically even though
  // group ids keep climbing), and the tenant's cached SLO instruments
  // (resolved once at tenant_create; null pointers are skipped on the hot
  // path, never looked up).
  struct TenantBinding {
    int tenant_id = 0;
    int local_ordinal = 0;  // instrument-name key for tenants other than 0
    metrics::Histogram* slo_latency = nullptr;
    metrics::Counter* slo_watchdog_stalls = nullptr;
    metrics::Counter* slo_doorbells_suppressed = nullptr;
  };

  // `id` names the channel in metrics/traces (the runtime passes the
  // execution-group id; white-box tests may leave the default).
  EventChannel(vmm::Hvm& hvm, ros::LinuxSim& linux, Sched& sched,
               unsigned hrt_core, int id = 0);
  EventChannel(vmm::Hvm& hvm, ros::LinuxSim& linux, Sched& sched,
               unsigned hrt_core, int id, TenantBinding tenant);
  ~EventChannel() override;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int tenant_id() const noexcept { return tenant_.tenant_id; }
  // The HRT core this channel is bound to: requester-side cycle clock,
  // doorbell hypercall origin, and transport cost model all key off it. Must
  // match the core the group's HRT thread actually runs on.
  [[nodiscard]] unsigned hrt_core() const noexcept { return hrt_core_; }

  // Allocate the shared channel page. Must be called before use.
  Status init();

  // Ring geometry. Depth 1 (the default) also selects the eager doorbell,
  // reproducing the single-slot protocol's cycle numbers exactly; deeper
  // rings batch the doorbell. Clamped to [1, Ring::kMaxDepth]; must be set
  // before traffic flows.
  void set_ring_depth(unsigned depth);
  [[nodiscard]] unsigned ring_depth() const noexcept { return depth_; }
  [[nodiscard]] bool eager_doorbell() const noexcept { return eager_; }

  void bind_partner(ros::Thread* partner) { partner_ = partner; }
  [[nodiscard]] ros::Thread* partner() noexcept { return partner_; }

  // Post-merge synchronous transport ("a single hypercall to initiate
  // synchronous operation... they can then use a simple memory-based
  // protocol to communicate" without VMM intervention).
  Status enable_sync_mode(std::uint64_t sync_vaddr);
  [[nodiscard]] bool sync_mode() const noexcept { return sync_mode_; }

  // Arm deterministic fault injection and the recovery machinery. With a
  // null plan (or a plan with no channel-visible class armed) every code
  // path is bit-identical to the legacy protocol.
  void set_fault_plan(FaultPlan* plan) noexcept {
    plan_ = plan;
    fault_mode_ = plan != nullptr && plan->channel_armed();
  }
  [[nodiscard]] bool fault_mode() const noexcept { return fault_mode_; }

  // Virtual-time stall watchdog: an in-flight request older than
  // `mult` x transport round trip is flagged once (flight-recorder snapshot
  // + mv/watchdog/stalls). 0 disables. Purely observational: checking reads
  // clocks but charges nothing, so results are identical with it on or off.
  void set_watchdog_multiple(unsigned mult) noexcept { watchdog_mult_ = mult; }
  [[nodiscard]] unsigned watchdog_multiple() const noexcept {
    return watchdog_mult_;
  }
  [[nodiscard]] std::uint64_t watchdog_stalls() const noexcept {
    return watchdog_stalls_;
  }
  // The partner thread died mid-service; in-flight and future requests fail
  // with kIo until the group tears down.
  [[nodiscard]] bool partner_dead() const noexcept { return partner_died_; }

  // Exitless mode (spin-then-doorbell service workers). The consumer toggles
  // the ring's poll word around its spin window; `spin_window` is the bounded
  // polling budget, granted to the watchdog as extra slack so a request
  // legitimately waiting on a poll pickup (no doorbell was rung for it) is
  // not flagged as stalled. Toggling is host-side bookkeeping: the caller
  // charges the store on its own core.
  void set_consumer_polling(bool on, Cycles spin_window = 0);
  [[nodiscard]] bool consumer_polling() const {
    return page_ != 0 && page_read(Ring::kOffConsumerPoll) != 0;
  }

  // --- HRT side (naut::LegacyChannel) ----------------------------------------
  Result<std::uint64_t> forward_syscall(
      ros::SysNr nr, std::array<std::uint64_t, 6> args) override;
  std::vector<Result<std::uint64_t>> forward_syscall_batch(
      const std::vector<ros::SysReq>& reqs) override;
  Status forward_fault(std::uint64_t vaddr, std::uint32_t error_code) override;
  void notify_thread_exit(int hrt_tid) override;

  // --- ROS side -----------------------------------------------------------------
  // Runs on the partner thread's task until the HRT thread's exit event.
  void service_loop();
  // Non-blocking: serve one pending request in `server`'s context if any.
  // Used by the shared-daemon execution-group mode, which multiplexes many
  // channels onto one ROS context.
  bool serve_pending(ros::Thread& server);
  [[nodiscard]] bool has_request() const {
    return page_read(Ring::kOffSubHead) != page_read(Ring::kOffSubTail);
  }
  [[nodiscard]] bool exit_requested() const noexcept { return exit_; }
  // Flip the exit bit (invoked from the HVM "interrupt to user" handler).
  // `hrt_tid` >= 0 records which HRT thread exited; both the injected-signal
  // path and the direct fallback thread it through here.
  void mark_exit(int hrt_tid = -1);
  // ROS-side doorbell delivery (the runtime's kRaiseRos dispatcher).
  void on_doorbell();
  // Override how the ROS-side server is woken (defaults to a race-free
  // Sched::wake() of the bound partner's task: a wake that lands while the
  // partner is mid-service is remembered and consumed by its next block()).
  void set_wake_server(std::function<void()> wake) {
    wake_server_ = std::move(wake);
  }

  // --- telemetry -------------------------------------------------------------------
  // Well-formed requests completed by the ROS side. Malformed (protocol
  // error) requests are counted separately and never inflate this.
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_;
  }
  [[nodiscard]] std::uint64_t protocol_errors() const noexcept {
    return protocol_errors_;
  }
  // Slot claims that found the ring full and had to queue.
  [[nodiscard]] std::uint64_t contended_acquires() const noexcept {
    return contended_acquires_;
  }
  // Doorbells raised on the async transport (eager: one per request;
  // batched: one kRaiseRos per flush, so < 1 per request under load). On the
  // batched transport every increment is one kRaiseRos hypercall actually
  // issued; flushes suppressed by a polling consumer are counted separately
  // below and never inflate this.
  [[nodiscard]] std::uint64_t doorbells() const noexcept { return doorbells_; }
  // Flushes that skipped the doorbell because the consumer was polling.
  [[nodiscard]] std::uint64_t doorbells_suppressed() const noexcept {
    return doorbells_suppressed_;
  }
  // Deadline expiries that re-drove the transport (fault mode only).
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  // Async->sync transport degradations after consecutive doorbell losses.
  [[nodiscard]] std::uint64_t degradations() const noexcept {
    return degradations_;
  }
  [[nodiscard]] int exited_hrt_tid() const noexcept { return exited_tid_; }
  // Shared-page base address (white-box protocol tests poke raw slot words).
  [[nodiscard]] std::uint64_t page_base() const noexcept { return page_; }

 private:
  // Host-side bookkeeping per ring slot (requester identity and latency
  // accounting live outside the simulated page).
  struct SlotMeta {
    TaskId requester = kNoTask;
    Cycles begin = 0;
    std::size_t kind_idx = 0;
    std::size_t transport_idx = 0;
    std::uint64_t span = 0;       // causal span id (mirrors kSlotSpan)
    unsigned retries = 0;         // transport re-drives for this request
    bool degraded = false;        // completed after async->sync degradation
    bool stall_flagged = false;   // watchdog fired for this occupancy
    // Extra watchdog slack for this occupancy: the consumer's spin window at
    // submit time when the flush was suppressed (exitless pickup has no
    // doorbell latency bound, only the poll window).
    Cycles spin_slack = 0;
  };

  std::uint64_t page_read(std::uint64_t off) const;
  void page_write(std::uint64_t off, std::uint64_t value);
  [[nodiscard]] std::uint64_t slot_base(std::uint64_t seq) const {
    return Ring::kSlot0 + (seq % depth_) * Ring::kSlotStride;
  }

  // Requester-side cycle clock (the HRT core all requesters run on).
  [[nodiscard]] Cycles requester_cycles() const;
  [[nodiscard]] Cycles transport_cost() const;

  // --- submission-side protocol ---------------------------------------------
  // Claim the next free slot, blocking while the ring is full. The waiter
  // enqueues itself exactly once per wait episode and drops its queue entry
  // when it stops waiting, so stale TaskIds never linger in the queue.
  std::uint64_t claim_slot();
  [[nodiscard]] bool slot_is_free(std::uint64_t seq) const;
  // Publish a claimed slot (kind + state + tail) and ring/flush the
  // doorbell according to the eager/batched mode.
  void submit(std::uint64_t seq, std::uint64_t kind);
  // Block until `seq` completes, reap the completion, free the slot, and
  // wake the next claim waiter. Validates the raw status word.
  Result<std::uint64_t> complete(std::uint64_t seq);
  // Fault-mode variant: deadline-driven polling with bounded retry and
  // exponential backoff, duplicate-completion drop, corrupt-status recovery
  // from the host-side completion record, async->sync degradation, and
  // partner-death teardown.
  Result<std::uint64_t> complete_hardened(std::uint64_t seq);
  Result<std::uint64_t> reap(std::uint64_t seq);
  // Complete `seq`'s slot locally with kIo (no server will answer it), so
  // the reap path — latency, slot release, claimer wake — stays uniform.
  void fail_in_place(std::uint64_t slot, std::uint64_t seq);
  // Deadline expiry handling: re-drive whatever transport the request used;
  // may degrade the channel to the sync transport. Returns true when the
  // expiry was attributed to a lost async doorbell.
  bool retry_transport(SlotMeta& meta);
  void degrade_to_sync(std::uint64_t span);
  // One-cycle "vmm" slice + flow hop on the synthetic VMM track, tying the
  // doorbell traversal into the request's span chain.
  void trace_vmm_hop(std::uint64_t span, const char* what);
  // Stall watchdog (see set_watchdog_multiple). Called from the requester's
  // completion waits; flags each slot occupancy at most once.
  void check_watchdog(std::uint64_t seq);
  // Flight-recorder state provider: ring pointers + in-flight slots.
  [[nodiscard]] std::string debug_state() const;
  // Partner-death paths (fault mode): fail every in-flight submission with
  // kIo, then linger (serving nothing) until the HRT thread exits so join
  // semantics survive the death.
  void partner_die();
  void fail_inflight();
  void wake_partner();
  void wake_next_claimer();

  vmm::Hvm* hvm_;
  ros::LinuxSim* linux_;
  Sched* sched_;
  unsigned hrt_core_;
  int id_ = 0;
  TenantBinding tenant_{};
  // Pre-rendered `,"tenant":N` JSON fragment for trace args (empty for
  // tenant 0, keeping single-tenant trace output byte-identical).
  std::string tenant_args_;
  std::uint64_t page_ = 0;
  ros::Thread* partner_ = nullptr;
  bool sync_mode_ = false;
  std::uint64_t sync_vaddr_ = 0;
  unsigned depth_ = 1;
  bool eager_ = true;

  std::function<void()> wake_server_;
  std::deque<TaskId> claim_waiters_;
  std::array<SlotMeta, Ring::kMaxDepth> slots_{};
  bool exit_ = false;
  int exited_tid_ = -1;
  std::uint64_t requests_served_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t contended_acquires_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t doorbells_suppressed_ = 0;
  // The polling consumer's spin budget while kOffConsumerPoll is set
  // (watchdog slack); 0 whenever no consumer is polling.
  Cycles spin_window_hint_ = 0;

  // --- fault-injection & recovery state (inert unless fault_mode_) ---------
  // Host-side record of every completion the server produced, keyed by the
  // physical slot. Authoritative when the in-page status word is corrupted:
  // recovery re-fetches from here instead of re-executing the request, so
  // reissue stays idempotent.
  struct CompletionRecord {
    std::uint64_t seq = 0;
    std::uint64_t status = 0;
    std::uint64_t value = 0;
    bool valid = false;
  };
  FaultPlan* plan_ = nullptr;
  bool fault_mode_ = false;
  bool partner_died_ = false;
  bool pending_delayed_wake_ = false;
  std::array<CompletionRecord, Ring::kMaxDepth> completions_{};
  // Armed stale-completion replay (a duplicated delivery racing slot reuse).
  bool replay_armed_ = false;
  std::uint64_t replay_slot_ = 0;
  CompletionRecord replay_{};
  unsigned consecutive_doorbell_losses_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t degradations_ = 0;
  unsigned watchdog_mult_ = 0;
  std::uint64_t watchdog_stalls_ = 0;

  // Cached metrics instruments, resolved once at construction:
  // latency_[kind][transport] with kind in {syscall, fault} and transport in
  // {async, sync}. Recording is in simulated cycles and charges none.
  metrics::Histogram* latency_metric_[2][2] = {};
  metrics::Histogram* queue_wait_metric_ = nullptr;
  metrics::Histogram* occupancy_metric_ = nullptr;
  metrics::Counter* served_metric_ = nullptr;
  metrics::Counter* protocol_error_metric_ = nullptr;
  metrics::Counter* contended_metric_ = nullptr;
  metrics::Counter* doorbell_metric_ = nullptr;
  metrics::Counter* suppressed_metric_ = nullptr;
  metrics::Counter* retry_metric_ = nullptr;
  metrics::Counter* degradation_metric_ = nullptr;
  metrics::Counter* watchdog_stall_metric_ = nullptr;
};

}  // namespace mv::multiverse
