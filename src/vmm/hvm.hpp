#pragma once

// Palacios-style VMM with the HVM (Hybrid Virtual Machine) extension: one VM
// whose cores and memory are partitioned between a ROS (Linux) and an HRT
// (Nautilus). The ROS partition sees only its cores and its slice of guest
// physical memory; the HRT partition may touch everything. The two sides and
// the VMM communicate through hypercalls, a shared data page, and injected
// exceptions/interrupts — exactly the primitive set the paper builds
// Multiverse's event channels from.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "support/faultplan.hpp"
#include "support/metrics.hpp"
#include "support/result.hpp"
#include "support/units.hpp"
#include "vmm/hrt_image.hpp"

namespace mv::vmm {

enum class Hypercall : std::uint32_t {
  kInstallHrtImage = 0,
  kBootHrt,
  kRebootHrt,
  kMergeAddressSpaces,
  kAsyncCall,        // asynchronous function invocation in the HRT
  kSetupSyncCall,    // register a vaddr for the post-merge memory protocol
  kHrtDone,          // HRT signals completion of the current request
  kSignalRos,        // HRT raises an async signal to the ROS application
  kRegisterRosSignal,  // ROS app registers its signal handler + stack
  kRaiseRos,         // channel doorbell: a0 = channel id, a1 = pending
                     // submissions flushed by this one hypercall
  kBootTenant,       // cached-image tenant boot: a0 = the tenant process's
                     // CR3; returns the new per-tenant HRT address-space root
  kCount_,
};

const char* hypercall_name(Hypercall h) noexcept;

// Event kinds the VMM forwards to the HRT as injected exceptions. Stored in
// the shared data page's `request_kind` slot.
enum class HrtEventKind : std::uint64_t {
  kNone = 0,
  kFunctionCall = 1,
  kMerge = 2,
  kReboot = 3,
};

// The VMM<->HRT shared data page, as fixed offsets within one physical page.
// "For a function call request, the page contains a pointer to the function
// and its arguments at the start and the return code at completion. For an
// address space merger, the page contains the CR3 of the calling process."
struct CommPage {
  static constexpr std::uint64_t kOffKind = 0x00;
  static constexpr std::uint64_t kOffFuncPtr = 0x08;
  static constexpr std::uint64_t kOffFuncArg = 0x10;
  static constexpr std::uint64_t kOffRetCode = 0x18;
  static constexpr std::uint64_t kOffRosCr3 = 0x20;
  static constexpr std::uint64_t kOffSyncVaddr = 0x28;
  static constexpr std::uint64_t kOffDone = 0x30;
  // Placement hint for a function-call request: 1 + the HRT core the new
  // top-level thread should land on, 0 for "kernel's choice". Written by the
  // requester before the kAsyncCall hypercall, consumed (and cleared) by the
  // AeroKernel's event handler.
  static constexpr std::uint64_t kOffFuncCore = 0x38;
};

// Boot information handed to the AeroKernel: an extension of multiboot2, per
// the paper's specialized boot protocol.
struct BootInfo {
  std::uint64_t image_base_paddr = 0;
  std::uint64_t image_span = 0;
  std::uint64_t entry_offset = 0;
  std::uint64_t comm_page_paddr = 0;
  std::uint64_t hrt_mem_base = 0;   // first byte of HRT-private physical mem
  std::uint64_t hrt_mem_bytes = 0;
  std::uint64_t dram_bytes = 0;     // full guest-physical span (HRT sees all)
  std::vector<unsigned> hrt_cores;
  std::uint64_t higher_half_base = 0xffff800000000000ull;
};

// Interface the HRT kernel implements so the HVM can boot it and inject
// events into it.
class HrtKernelIface {
 public:
  virtual ~HrtKernelIface() = default;
  virtual Status boot(const BootInfo& info) = 0;
  virtual void reboot() = 0;
  // Injected exception: the kernel reads the shared data page and acts.
  // Runs at the highest precedence inside the HRT (exception injection).
  virtual Status on_hvm_event(HrtEventKind kind) = 0;
  // Cached-image tenant boot: stamp a fresh per-tenant address-space root
  // from the already-booted kernel's page tables (higher half shared
  // copy-on-write, user half merged from `ros_cr3`) without re-running the
  // firmware bring-up. Returns the new root. Kernels that predate
  // multi-tenancy keep the single-tenant default.
  virtual Result<std::uint64_t> boot_tenant(std::uint64_t ros_cr3) {
    (void)ros_cr3;
    return err(Err::kNoSys, "HRT kernel does not support tenant boot");
  }
};

struct HvmConfig {
  std::vector<unsigned> ros_cores{0};
  std::vector<unsigned> hrt_cores{1};
  std::uint64_t ros_mem_bytes = 1ull << 29;  // 512 MiB to the ROS
};

class Hvm {
 public:
  Hvm(hw::Machine& machine, HvmConfig config);

  [[nodiscard]] hw::Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] const HvmConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t comm_page_paddr() const noexcept {
    return comm_page_;
  }
  [[nodiscard]] bool hrt_booted() const noexcept { return hrt_booted_; }

  void attach_hrt(HrtKernelIface* hrt) { hrt_ = hrt; }

  // The "interrupt to user" construct: when the HRT raises a signal, the HVM
  // waits for a user-mode entry of the registering process and builds an
  // interrupt frame on the registered stack. In the simulation the ROS-side
  // Multiverse runtime registers this callback.
  using UserInterrupt = std::function<void(std::uint64_t payload)>;

  // Channel doorbell delivery: invoked when the HRT flushes a batch of ring
  // submissions with one kRaiseRos hypercall. Arguments are the channel id
  // and the number of submissions the flush covered.
  using RosDoorbell = std::function<void(std::uint64_t chan_id,
                                         std::uint64_t count)>;

  // --- hypercall interface (called from guest code on `vcore`) -----------
  // Install a serialized AeroKernel image into HRT-private physical memory;
  // returns the physical load base.
  Result<std::uint64_t> install_hrt_image(unsigned vcore,
                                          std::span<const std::uint8_t> blob);
  // Generic hypercalls. Returns a hypercall-specific value (0 when unused).
  Result<std::uint64_t> hypercall(unsigned vcore, Hypercall nr,
                                  std::uint64_t a0 = 0, std::uint64_t a1 = 0);

  // Register the ROS application's signal handler trampoline (normally via
  // the kRegisterRosSignal hypercall; exposed directly for the runtime).
  void register_ros_user_interrupt(std::uint64_t handler_id, UserInterrupt fn);

  // Register the ROS-side doorbell dispatcher for kRaiseRos (the Multiverse
  // runtime routes it to the channel's server wake path).
  void register_ros_doorbell(RosDoorbell fn);

  // Deterministic fault injection (dropped/duplicated doorbell deliveries):
  // the resolver maps a doorbell's channel id to the plan that governs it
  // (nullptr = no injection for that channel), so one tenant's fault
  // schedule cannot touch another tenant's channels. Without a resolver no
  // doorbell is faulted.
  using DoorbellFaultResolver = std::function<FaultPlan*(std::uint64_t)>;
  void set_doorbell_fault_resolver(DoorbellFaultResolver fn) {
    doorbell_fault_resolver_ = std::move(fn);
  }

  // --- shared data page access (both sides use these) ---------------------
  [[nodiscard]] std::uint64_t comm_read(std::uint64_t offset) const;
  void comm_write(std::uint64_t offset, std::uint64_t value);

  // --- partition queries ---------------------------------------------------
  [[nodiscard]] bool is_ros_core(unsigned core) const;
  [[nodiscard]] bool is_hrt_core(unsigned core) const;
  [[nodiscard]] std::uint64_t ros_mem_limit() const noexcept {
    return config_.ros_mem_bytes;
  }
  // Allocate HRT-private physical memory (above the ROS partition). Reuses
  // same-size freed ranges before growing the bump cursor, so tenant churn
  // (channel pages, per-tenant roots) cannot exhaust the partition.
  Result<std::uint64_t> hrt_alloc(std::uint64_t bytes);
  // Return a range from hrt_alloc to the allocator's freelist.
  void hrt_free(std::uint64_t base, std::uint64_t bytes);
  // High-water footprint of the HRT partition (tenants/GB accounting).
  [[nodiscard]] std::uint64_t hrt_bytes_used() const noexcept {
    return hrt_bump_ - config_.ros_mem_bytes;
  }

  // --- telemetry -----------------------------------------------------------
  [[nodiscard]] std::uint64_t exit_count() const noexcept { return exits_; }
  [[nodiscard]] std::uint64_t hypercall_count(Hypercall nr) const {
    return hc_counts_.at(static_cast<std::size_t>(nr));
  }
  // Events/interrupts the VMM injected into a guest context: HRT event
  // exceptions (function call / merge requests) plus ROS "interrupt to
  // user" deliveries.
  [[nodiscard]] std::uint64_t injection_count() const noexcept {
    return injections_;
  }
  [[nodiscard]] Cycles last_boot_cycles() const noexcept {
    return last_boot_cycles_;
  }

 private:
  Status check_partition_boot_state(unsigned vcore) const;
  void count_hypercall(Hypercall nr);
  void count_injection(unsigned vcore, const char* what);
  Result<std::uint64_t> do_boot(unsigned vcore);
  Result<std::uint64_t> do_merge(unsigned vcore, std::uint64_t ros_cr3);
  Result<std::uint64_t> do_async_call(unsigned vcore, std::uint64_t func,
                                      std::uint64_t arg);

  hw::Machine* machine_;
  HvmConfig config_;
  HrtKernelIface* hrt_ = nullptr;
  std::uint64_t comm_page_ = 0;
  std::uint64_t hrt_bump_ = 0;  // bump allocator over the HRT partition
  // Freed HRT ranges keyed by size, reused LIFO (deterministic).
  std::map<std::uint64_t, std::vector<std::uint64_t>> hrt_freelist_;
  std::uint64_t installed_base_ = 0;
  std::uint64_t installed_span_ = 0;
  std::uint64_t installed_entry_ = 0;
  bool hrt_booted_ = false;
  std::uint64_t exits_ = 0;
  std::uint64_t injections_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(Hypercall::kCount_)>
      hc_counts_{};
  // Cached metrics instruments (resolved once in the constructor).
  std::array<metrics::Counter*, static_cast<std::size_t>(Hypercall::kCount_)>
      hc_metrics_{};
  metrics::Counter* injection_metric_ = nullptr;
  metrics::Counter* exit_metric_ = nullptr;
  Cycles last_boot_cycles_ = 0;
  std::uint64_t ros_signal_handler_ = 0;
  UserInterrupt ros_user_interrupt_;
  RosDoorbell ros_doorbell_;
  DoorbellFaultResolver doorbell_fault_resolver_;
};

}  // namespace mv::vmm
