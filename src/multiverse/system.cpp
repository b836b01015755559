#include "multiverse/system.hpp"

#include <cassert>

#include "support/log.hpp"
#include "support/metrics.hpp"

namespace mv::multiverse {

namespace {

hw::MachineConfig machine_config(const SystemConfig& cfg) {
  hw::MachineConfig mc;
  mc.sockets = cfg.sockets;
  mc.cores_per_socket = cfg.cores_per_socket;
  mc.dram_bytes = cfg.dram_bytes;
  return mc;
}

vmm::HvmConfig hvm_config(const SystemConfig& cfg) {
  vmm::HvmConfig hc;
  hc.ros_cores =
      cfg.ros_cores.empty() ? std::vector<unsigned>{cfg.ros_core}
                            : cfg.ros_cores;
  hc.hrt_cores =
      cfg.hrt_cores.empty() ? std::vector<unsigned>{cfg.hrt_core}
                            : cfg.hrt_cores;
  hc.ros_mem_bytes = cfg.ros_mem_bytes;
  return hc;
}

ros::LinuxSim::Config linux_config(const SystemConfig& cfg) {
  ros::LinuxSim::Config lc;
  lc.cores =
      cfg.ros_cores.empty() ? std::vector<unsigned>{cfg.ros_core}
                            : cfg.ros_cores;
  lc.virtualized = cfg.virtualized;
  lc.numa_zone = 0;
  return lc;
}

}  // namespace

HybridSystem::HybridSystem(SystemConfig config)
    : config_(config),
      machine_(machine_config(config)),
      hvm_(machine_, hvm_config(config)),
      linux_(machine_, sched_, linux_config(config)),
      naut_(machine_, sched_, hvm_, config.naut_config),
      runtime_(sched_, linux_, hvm_, naut_) {
  runtime_.set_group_mode(config.group_mode);
  Toolchain::BuildInputs inputs;
  inputs.program_name = "hybrid-program";
  inputs.extra_override_config = config_.extra_override_config;
  auto fb = Toolchain::build(inputs);
  MV_CHECK_OK(fb);
  fat_binary_ = fb->serialize();
}

ProgramResult HybridSystem::collect(const ros::Process& proc,
                                    std::uint64_t start_us, bool hybrid) {
  ProgramResult r;
  r.exit_code = proc.exit_code;
  r.killed = proc.killed_by_signal;
  r.fatal_signal = proc.fatal_signal;
  r.stdout_text = proc.stdout_text;
  r.stderr_text = proc.stderr_text;
  r.total_syscalls = proc.total_syscalls;
  for (std::size_t i = 0; i < proc.sys_counts.size(); ++i) {
    if (proc.sys_counts[i] != 0) {
      r.syscall_histogram[ros::sysnr_name(static_cast<ros::SysNr>(i))] =
          proc.sys_counts[i];
    }
  }
  r.vdso_calls = proc.vdso_getpid_calls + proc.vdso_gtod_calls;
  r.max_rss_kb = proc.as->max_resident_pages() * hw::kPageSize / 1024;
  r.minor_faults = proc.as->minor_faults();
  r.major_faults = proc.as->major_faults();
  r.page_faults = r.minor_faults + r.major_faults;
  r.ctx_switches = proc.nvcsw + proc.nivcsw;
  r.signals_delivered = proc.signals_delivered;
  r.utime_s = cycles_to_seconds(proc.utime_cycles);
  r.stime_s = cycles_to_seconds(proc.stime_cycles);
  r.elapsed_s = static_cast<double>(linux_.now_us() - start_us) / 1e6;
  if (hybrid) {
    r.forwarded_syscalls = naut_.forwarded_syscalls();
    r.forwarded_faults = naut_.forwarded_faults();
    r.remerges = naut_.remerge_count();
  }
  return r;
}

Result<ProgramResult> HybridSystem::run(
    const std::string& name, std::function<int(ros::SysIface&)> guest_main) {
  const std::uint64_t start_us = linux_.now_us();
  MV_ASSIGN_OR_RETURN(ros::Process* const proc,
                      linux_.spawn(name, std::move(guest_main)));
  MV_RETURN_IF_ERROR(linux_.run_all());
  return collect(*proc, start_us, /*hybrid=*/false);
}

Result<ProgramResult> HybridSystem::run_hybrid(
    const std::string& name, std::function<int(ros::SysIface&)> guest_main) {
  std::vector<TenantProgram> programs;
  programs.push_back({name, std::move(guest_main), {}});
  MV_ASSIGN_OR_RETURN(TenantRunResult run, run_tenants(std::move(programs)));
  return std::move(run.programs.front());
}

Result<HybridSystem::TenantRunResult> HybridSystem::run_tenants(
    std::vector<TenantProgram> programs) {
  if (programs.empty()) {
    return err(Err::kInval, "run_tenants with no programs");
  }
  const std::uint64_t start_us = linux_.now_us();
  MultiverseRuntime* rt = &runtime_;
  ros::LinuxSim* kernel = &linux_;
  const std::vector<std::uint8_t>* fat = &fat_binary_;
  // Shared completion count (cooperative scheduler: no atomicity needed).
  auto done = std::make_shared<std::size_t>(0);
  const std::size_t tenants = programs.size() - 1;

  std::vector<ros::Process*> procs(programs.size(), nullptr);
  // Program 0 becomes tenant 0: the toolchain-inserted hooks boot the stack
  // before its main, warm the service pool into its own process (pool
  // workers must not live in — and die with — a transient tenant), run main
  // in the HRT (incremental model), and keep the system up until every
  // created tenant has finished before the exit hook shuts the HRT down.
  MV_ASSIGN_OR_RETURN(
      procs[0],
      linux_.spawn(
          programs[0].name,
          [rt, kernel, fat, done, tenants,
           guest_main =
               std::move(programs[0].guest_main)](ros::SysIface& iface) -> int {
            (void)iface;
            ros::Thread* self = kernel->current_thread();
            assert(self != nullptr);
            const Status up = rt->startup(*self, *fat);
            if (!up.is_ok()) {
              MV_ERROR("multiverse", "startup failed: " + up.to_string());
              return 127;
            }
            if (!rt->warm_service_pool(*self).is_ok()) return 126;
            int exit_code = 0;
            const Status st = rt->hrt_invoke_func(
                *self, [&exit_code, &guest_main](ros::SysIface& hrt_iface) {
                  exit_code = guest_main(hrt_iface);
                });
            if (!st.is_ok()) {
              MV_ERROR("multiverse",
                       "hrt_invoke_func failed: " + st.to_string());
              exit_code = 126;
            }
            while (*done < tenants) kernel->sched().yield();
            (void)rt->shutdown();
            return exit_code;
          }));
  for (std::size_t i = 1; i < programs.size(); ++i) {
    MV_ASSIGN_OR_RETURN(
        procs[i],
        linux_.spawn(
            programs[i].name,
            [rt, kernel, done, fault_spec = programs[i].fault_spec,
             guest_main = std::move(programs[i].guest_main)](
                ros::SysIface& iface) -> int {
              (void)iface;
              ros::Thread* self = kernel->current_thread();
              assert(self != nullptr);
              while (!rt->started()) kernel->sched().yield();
              int exit_code = 0;
              const auto tenant_id = rt->tenant_create(*self, fault_spec);
              if (!tenant_id.is_ok()) {
                MV_ERROR("multiverse", "tenant_create failed: " +
                                           tenant_id.status().to_string());
                exit_code = 125;
              } else {
                const Status st = rt->hrt_invoke_func(
                    *self, [&exit_code, &guest_main](ros::SysIface& hrt_iface) {
                      exit_code = guest_main(hrt_iface);
                    });
                if (!st.is_ok()) exit_code = 124;
                const Status down = rt->tenant_destroy(*tenant_id);
                if (!down.is_ok()) {
                  MV_ERROR("multiverse",
                           "tenant_destroy failed: " + down.to_string());
                  exit_code = 123;
                }
              }
              ++*done;
              return exit_code;
            }));
  }
  MV_RETURN_IF_ERROR(linux_.run_all());
  TenantRunResult out;
  out.boot_cycles = rt->tenant_boot_history();
  out.slo = rt->tenant_slo_history();
  for (ros::Process* proc : procs) {
    out.programs.push_back(collect(*proc, start_us, /*hybrid=*/true));
  }
  return out;
}

HybridSystem::TenantMetricsExport HybridSystem::export_tenant_metrics(
    int tenant_id) {
  TenantMetricsExport out;
  // Tenant 0 is the host and always live; created tenants export live as
  // long as their instruments are still in the registry.
  if (tenant_id == 0 || runtime_.find_tenant(tenant_id) != nullptr) {
    auto& reg = metrics::Registry::instance();
    out.found = true;
    out.json = reg.to_json(tenant_id);
    out.text = reg.to_prometheus(tenant_id);
    return out;
  }
  // Destroyed tenant: replay the snapshot captured at tenant_destroy (last
  // incarnation wins when the id was recycled).
  const auto& history = runtime_.tenant_slo_history();
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    if (it->tenant_id == tenant_id) {
      out.found = true;
      out.json = it->metrics_json;
      out.text = it->metrics_text;
      return out;
    }
  }
  return out;
}

Result<ProgramResult> HybridSystem::run_accelerator(const std::string& name,
                                                    AcceleratorMain main_fn) {
  const std::uint64_t start_us = linux_.now_us();
  MultiverseRuntime* rt = &runtime_;
  ros::LinuxSim* kernel = &linux_;
  const std::vector<std::uint8_t>* fat = &fat_binary_;

  MV_ASSIGN_OR_RETURN(
      ros::Process* const proc,
      linux_.spawn(name, [rt, kernel, fat, main_fn = std::move(main_fn)](
                             ros::SysIface& iface) -> int {
        ros::Thread* self = kernel->current_thread();
        assert(self != nullptr);
        const Status up = rt->startup(*self, *fat);
        if (!up.is_ok()) return 127;
        const int code = main_fn(iface, *rt, *self);
        (void)rt->shutdown();
        return code;
      }));
  MV_RETURN_IF_ERROR(linux_.run_all());
  return collect(*proc, start_us, /*hybrid=*/true);
}

}  // namespace mv::multiverse
