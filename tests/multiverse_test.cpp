// Multiverse integration tests: toolchain/fat binary, override config, the
// three usage models, split execution, event channels, state superpositions,
// fault forwarding with re-merge, exit signaling, and the paper's fault-trace
// equivalence property ("the traces should look identical").

#include <gtest/gtest.h>

#include <algorithm>

#include "multiverse/system.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;
using ros::SysNr;

// --- override config ---------------------------------------------------------

TEST(OverrideConfigTest, ParsesOverridesAndOptions) {
  auto cfg = parse_override_config(
      "# comment\n"
      "override mmap nk_mmap\n"
      "override pthread_create nk_thread_create\n"
      "option symbol_cache on\n"
      "\n"
      "option merge_address_space off\n");
  ASSERT_TRUE(cfg.is_ok());
  ASSERT_EQ(cfg->overrides.size(), 2u);
  EXPECT_EQ(cfg->overrides[0].legacy_name, "mmap");
  EXPECT_EQ(cfg->overrides[1].kernel_symbol, "nk_thread_create");
  EXPECT_TRUE(cfg->options.symbol_cache);
  EXPECT_FALSE(cfg->options.merge_address_space);
  EXPECT_NE(cfg->find("mmap"), nullptr);
  EXPECT_EQ(cfg->find("munmap"), nullptr);
}

TEST(OverrideConfigTest, RejectsBadDirectives) {
  EXPECT_EQ(parse_override_config("overide mmap nk_mmap\n").code(),
            Err::kParse);
  EXPECT_EQ(parse_override_config("override onlyone\n").code(), Err::kParse);
  EXPECT_EQ(parse_override_config("option nonsense on\n").code(), Err::kParse);
  // Malformed operands end in a parse error, never in an exception that
  // escapes the parser and aborts the host.
  EXPECT_EQ(parse_override_config("override mmap nk_mmap args=a:b\n").code(),
            Err::kParse);
  EXPECT_EQ(
      parse_override_config("override mmap nk_mmap args=0:99999999999\n")
          .code(),
      Err::kParse);
  // Integer options take the whole token: no trailing junk, no overflow.
  for (const char* key : {"ring_depth", "service_workers", "tenants",
                          "watchdog", "spin_cycles"}) {
    EXPECT_TRUE(parse_override_config(strfmt("option %s 8\n", key)).is_ok())
        << key;
    EXPECT_EQ(parse_override_config(strfmt("option %s 8abc\n", key)).code(),
              Err::kParse)
        << key;
    EXPECT_EQ(parse_override_config(
                  strfmt("option %s 99999999999999999999\n", key))
                  .code(),
              Err::kParse)
        << key;
  }
  EXPECT_EQ(parse_override_config("option ring_depth 3000000000\n").code(),
            Err::kParse);
}

TEST(OverrideConfigTest, DefaultsIncludePthreadInterposition) {
  auto cfg = parse_override_config(default_override_config());
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_NE(cfg->find("pthread_create"), nullptr);
  EXPECT_NE(cfg->find("pthread_join"), nullptr);
}

// --- toolchain -----------------------------------------------------------------

TEST(ToolchainTest, FatBinaryRoundTrip) {
  Toolchain::BuildInputs inputs;
  inputs.program_name = "racket";
  inputs.extra_override_config = "override mmap nk_mmap\n";
  auto fb = Toolchain::build(inputs);
  ASSERT_TRUE(fb.is_ok());
  const auto blob = fb->serialize();
  auto parsed = Toolchain::load(blob);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->binary.program_name, "racket");
  EXPECT_NE(parsed->config.find("mmap"), nullptr);
  EXPECT_NE(parsed->config.find("pthread_create"), nullptr);  // defaults kept
  EXPECT_TRUE(parsed->image.find_symbol("nk_mmap").has_value());
}

TEST(ToolchainTest, BuildValidatesConfig) {
  Toolchain::BuildInputs inputs;
  inputs.extra_override_config = "garbage directive here\n";
  EXPECT_EQ(Toolchain::build(inputs).code(), Err::kParse);
}

TEST(ToolchainTest, LoadRejectsCorruptBinary) {
  std::vector<std::uint8_t> junk(32, 7);
  EXPECT_EQ(Toolchain::load(junk).code(), Err::kParse);
}

// --- full-stack: the same program in all three modes ---------------------------

int hello_program(SysIface& sys) {
  (void)sys.printf("hello from mode %d\n", static_cast<int>(sys.mode()));
  auto pid = sys.getpid();
  EXPECT_TRUE(pid.is_ok());
  return 7;
}

TEST(HybridTest, NativeRun) {
  SystemConfig cfg;
  cfg.virtualized = false;
  HybridSystem sys(cfg);
  auto r = sys.run("hello", hello_program);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 7);
  EXPECT_NE(r->stdout_text.find("hello from mode 0"), std::string::npos);
}

TEST(HybridTest, VirtualRun) {
  HybridSystem sys;
  auto r = sys.run("hello", hello_program);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 7);
  EXPECT_NE(r->stdout_text.find("hello from mode 1"), std::string::npos);
}

TEST(HybridTest, HybridRunLooksIdenticalToUser) {
  HybridSystem sys;
  auto r = sys.run_hybrid("hello", hello_program);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 7);
  // Same user-visible behaviour (module the mode the test itself prints).
  EXPECT_NE(r->stdout_text.find("hello from mode 2"), std::string::npos);
  // But internally the work was forwarded from kernel mode.
  EXPECT_GT(r->forwarded_syscalls, 0u);
  EXPECT_GT(r->syscall_histogram["write"], 0u);
}

TEST(HybridTest, HybridFileIoWorks) {
  HybridSystem sys;
  auto r = sys.run_hybrid("fileio", [](SysIface& s) {
    auto fd = s.open("/out.txt", ros::kOCreat | ros::kORdWr);
    EXPECT_TRUE(fd.is_ok());
    EXPECT_TRUE(s.write_str(*fd, "written from ring 0").is_ok());
    EXPECT_TRUE(s.close(*fd).is_ok());
    auto st = s.stat("/out.txt");
    EXPECT_TRUE(st.is_ok());
    EXPECT_EQ(st->size, 19u);
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 0);
  auto content = sys.linux().fs().read_file("/out.txt");
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(*content, "written from ring 0");
}

TEST(HybridTest, HybridMemoryManagementThroughMergedSpace) {
  HybridSystem sys;
  auto r = sys.run_hybrid("mm", [](SysIface& s) {
    auto addr = s.mmap(0, 8 * hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                       ros::kMapPrivate | ros::kMapAnonymous);
    EXPECT_TRUE(addr.is_ok());
    // Writes from the HRT: faults forward to the ROS, pages appear in the
    // merged address space, HRT retries succeed.
    std::uint64_t x = 0xfeedface;
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(
          s.mem_write(*addr + i * hw::kPageSize, &x, sizeof(x)).is_ok());
    }
    std::uint64_t back = 0;
    EXPECT_TRUE(s.mem_read(*addr + 3 * hw::kPageSize, &back, sizeof(back))
                    .is_ok());
    EXPECT_EQ(back, 0xfeedfaceu);
    EXPECT_TRUE(s.munmap(*addr, 8 * hw::kPageSize).is_ok());
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_GT(r->forwarded_faults, 0u);
  EXPECT_GT(r->syscall_histogram["mmap"], 0u);
}

TEST(HybridTest, VdsoCallsAreNotForwarded) {
  HybridSystem sys;
  auto r = sys.run_hybrid("vdso", [](SysIface& s) {
    const std::uint64_t before = 0;
    (void)before;
    for (int i = 0; i < 100; ++i) {
      (void)s.vdso_getpid();
      (void)s.vdso_gettimeofday();
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->vdso_calls, 200u);
  // vdso reads go through the merged address space, not the event channel.
  EXPECT_EQ(r->syscall_histogram.count("getpid"), 0u);
  EXPECT_EQ(r->syscall_histogram.count("gettimeofday"), 0u);
}

TEST(HybridTest, DisallowedFunctionalityReportsErrors) {
  HybridSystem sys;
  auto r = sys.run_hybrid("disallowed", [](SysIface& s) {
    EXPECT_EQ(s.syscall(SysNr::kExecve, {}).code(), Err::kNoSys);
    EXPECT_EQ(s.syscall(SysNr::kFutex, {}).code(), Err::kNoSys);
    EXPECT_EQ(s.syscall(SysNr::kClone, {}).code(), Err::kNoSys);
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 0);
}

TEST(HybridTest, PthreadOverrideCreatesNestedHrtThreads) {
  HybridSystem sys;
  auto r = sys.run_hybrid("threads", [](SysIface& s) {
    // Incremental-model parallelism: pthread_create maps to nested
    // AeroKernel threads with pthread semantics.
    static int counter;
    counter = 0;
    std::vector<int> tids;
    for (int i = 0; i < 3; ++i) {
      auto tid = s.thread_create([](SysIface& ts) {
        ++counter;
        (void)ts.vdso_getpid();
      });
      EXPECT_TRUE(tid.is_ok());
      tids.push_back(*tid);
    }
    for (const int tid : tids) EXPECT_TRUE(s.thread_join(tid).is_ok());
    EXPECT_EQ(counter, 3);
    return counter;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 3);
  // Nested threads live in the AeroKernel, not as ROS clones: only the
  // group-creating clone of the main HRT thread's partner appears.
  EXPECT_EQ(r->syscall_histogram["clone"], 1u);
}

TEST(HybridTest, SigsegvBarrierRoundTripsThroughRos) {
  // The GC write-barrier path under hybridization: HRT write -> fault
  // forwarded -> ROS replays -> SIGSEGV -> handler mprotects -> HRT retry OK.
  HybridSystem sys;
  auto r = sys.run_hybrid("barrier", [](SysIface& s) {
    auto addr = s.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                       ros::kMapPrivate | ros::kMapAnonymous);
    std::uint64_t x = 1;
    EXPECT_TRUE(s.mem_write(*addr, &x, sizeof(x)).is_ok());

    static int hits;
    hits = 0;
    EXPECT_TRUE(s.sigaction(
        ros::kSigSegv,
        [](int, std::uint64_t fault_addr, SysIface& hs) {
          ++hits;
          EXPECT_TRUE(hs.mprotect(hw::page_floor(fault_addr), hw::kPageSize,
                                  ros::kProtRead | ros::kProtWrite)
                          .is_ok());
        }).is_ok());
    EXPECT_TRUE(s.mprotect(*addr, hw::kPageSize, ros::kProtRead).is_ok());
    x = 2;
    EXPECT_TRUE(s.mem_write(*addr, &x, sizeof(x)).is_ok());
    EXPECT_EQ(hits, 1);
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_GE(r->syscall_histogram["rt_sigreturn"], 1u);
}

TEST(HybridTest, FaultTraceEquivalence) {
  // Sec 4.4: "if we collect a trace of page faults in the application
  // running native and under Multiverse, the traces should look identical."
  auto workload = [](SysIface& s) {
    auto addr = s.mmap(0, 32 * hw::kPageSize,
                       ros::kProtRead | ros::kProtWrite,
                       ros::kMapPrivate | ros::kMapAnonymous);
    std::uint64_t x = 1;
    for (int i = 0; i < 32; i += 2) {
      (void)s.mem_write(*addr + i * hw::kPageSize, &x, sizeof(x));
    }
    for (int i = 1; i < 32; i += 4) {
      (void)s.mem_read(*addr + i * hw::kPageSize, &x, sizeof(x));
    }
    return 0;
  };
  SystemConfig native_cfg;
  native_cfg.virtualized = false;
  HybridSystem native_sys(native_cfg);
  auto native = native_sys.run("trace", workload);
  ASSERT_TRUE(native.is_ok());

  HybridSystem hybrid_sys;
  auto hybrid = hybrid_sys.run_hybrid("trace", workload);
  ASSERT_TRUE(hybrid.is_ok());

  EXPECT_EQ(native->minor_faults, hybrid->minor_faults);
  EXPECT_EQ(native->major_faults, hybrid->major_faults);
}

TEST(HybridTest, FaultTraceSequenceEquivalence) {
  // Stronger than count equality: the *ordered sequence* of faults (error
  // codes + pages, canonically renamed since mmap bases differ between
  // modes) must be identical — "the traces should look identical" (§4.4).
  auto run_traced = [](bool hybrid) {
    SystemConfig cfg;
    cfg.virtualized = hybrid;
    HybridSystem sys(cfg);
    ros::LinuxSim* kernel = &sys.linux();
    auto workload = [kernel](SysIface& s) {
      // Start tracing exactly at workload entry.
      kernel->processes().front()->as->enable_fault_trace();
      auto a = s.mmap(0, 16 * hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      std::uint64_t v = 0;
      // A deterministic mix of reads (zero-page maps), writes (fresh frames),
      // COW breaks, and protection faults.
      for (int i = 0; i < 16; i += 2) {
        (void)s.mem_read(*a + i * hw::kPageSize, &v, sizeof(v));
      }
      for (int i = 0; i < 16; i += 3) {
        (void)s.mem_write(*a + i * hw::kPageSize, &v, sizeof(v));
      }
      (void)s.sigaction(ros::kSigSegv,
                        [](int, std::uint64_t addr, SysIface& hs) {
                          (void)hs.mprotect(hw::page_floor(addr),
                                            hw::kPageSize,
                                            ros::kProtRead | ros::kProtWrite);
                        });
      (void)s.mprotect(*a, 4 * hw::kPageSize, ros::kProtRead);
      for (int i = 0; i < 4; ++i) {
        (void)s.mem_write(*a + i * hw::kPageSize, &v, sizeof(v));
      }
      return 0;
    };
    auto r = hybrid ? sys.run_hybrid("trace-seq", workload)
                    : sys.run("trace-seq", workload);
    EXPECT_TRUE(r.is_ok());
    return kernel->processes().front()->as->fault_trace();
  };

  const auto canonical = [](const std::vector<ros::AddressSpace::FaultEvent>&
                                trace) {
    std::map<std::uint64_t, std::size_t> rename;
    std::vector<std::tuple<std::size_t, std::uint32_t, bool>> out;
    for (const auto& e : trace) {
      const auto [it, inserted] = rename.emplace(e.page, rename.size());
      out.emplace_back(it->second, e.error_code, e.repaired);
    }
    return out;
  };

  const auto native = canonical(run_traced(false));
  const auto hybrid = canonical(run_traced(true));
  ASSERT_GT(native.size(), 10u);
  EXPECT_EQ(native, hybrid);
}

TEST(HybridTest, AcceleratorModelFig4) {
  // Fig 4: routine() calls an AeroKernel function directly, then printf —
  // which relies on the merged address space and the event channel.
  HybridSystem sys;
  auto r = sys.run_accelerator(
      "fig4", [](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        std::uint64_t result = 0;
        const Status st = rt.hrt_invoke_func(
            self, [&result](SysIface& hrt) {
              auto& ctx = static_cast<HrtCtx&>(hrt);
              auto ret = ctx.aerokernel_call("aerokernel_func", 0);
              EXPECT_TRUE(ret.is_ok());
              result = *ret;
              (void)hrt.printf("Result = %d\n", static_cast<int>(*ret));
            });
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        EXPECT_EQ(result, 42u);
        return 0;
      });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_NE(r->stdout_text.find("Result = 42"), std::string::npos);
}

TEST(HybridTest, ExitSignalingBypassesRosKernel) {
  HybridSystem sys;
  const std::uint64_t before =
      sys.hvm().hypercall_count(vmm::Hypercall::kSignalRos);
  auto r = sys.run_hybrid("exit-sig", [](SysIface&) { return 0; });
  ASSERT_TRUE(r.is_ok());
  EXPECT_GT(sys.hvm().hypercall_count(vmm::Hypercall::kSignalRos), before);
}

TEST(HybridTest, StateSuperpositionMirrorsGdtAndTls) {
  HybridSystem sys;
  auto r = sys.run_accelerator(
      "superpos", [&sys](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        const hw::Gdt ros_gdt =
            sys.machine().core(self.core).gdt();
        bool checked = false;
        const Status st = rt.hrt_invoke_func(self, [&](SysIface&) {
          const unsigned hrt_core = sys.config().hrt_core;
          EXPECT_EQ(sys.machine().core(hrt_core).gdt(), ros_gdt);
          EXPECT_NE(sys.machine().core(hrt_core).fs_base(), 0u);
          checked = true;
        });
        EXPECT_TRUE(st.is_ok());
        EXPECT_TRUE(checked);
        return 0;
      });
  ASSERT_TRUE(r.is_ok());
}

TEST(HybridTest, MergedAddressSpaceSetUpOnce) {
  HybridSystem sys;
  auto r = sys.run_hybrid("merge-count", [](SysIface& s) {
    (void)s.getpid();
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(
      sys.hvm().hypercall_count(vmm::Hypercall::kMergeAddressSpaces), 1u);
  EXPECT_TRUE(sys.naut().merged());
}

TEST(HybridTest, NoMergeOptionStillBootsButCannotTouchRosMemory) {
  SystemConfig cfg;
  cfg.extra_override_config = "option merge_address_space off\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("nomerge", [](SysIface& s) {
    // Without the merged address space, lower-half access from the HRT has
    // no mapping and cannot be repaired locally.
    std::uint64_t v = 0;
    const Status st = s.mem_read(ros::kBrkBase, &v, sizeof(v));
    EXPECT_FALSE(st.is_ok());
    return 3;
  });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 3);
  EXPECT_EQ(sys.hvm().hypercall_count(vmm::Hypercall::kMergeAddressSpaces),
            0u);
}

TEST(HybridTest, KernelModeMemopOverrides) {
  // ABL3: with mmap/mprotect/munmap overridden to AeroKernel variants, the
  // memory-management traffic never reaches the ROS.
  SystemConfig cfg;
  cfg.extra_override_config =
      "override mmap nk_mmap\n"
      "override munmap nk_munmap\n"
      "override mprotect nk_mprotect\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("memop-override", [](SysIface& s) {
    for (int i = 0; i < 10; ++i) {
      auto a = s.mmap(0, 2 * hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      EXPECT_TRUE(a.is_ok());
      std::uint64_t x = 7;
      EXPECT_TRUE(s.mem_write(*a, &x, sizeof(x)).is_ok());
      EXPECT_TRUE(s.mprotect(*a, hw::kPageSize, ros::kProtRead).is_ok());
      EXPECT_TRUE(s.munmap(*a, 2 * hw::kPageSize).is_ok());
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  // The ROS saw none of the overridden calls from the program itself — the
  // single mmap/munmap pair that remains is the partner thread allocating
  // and releasing the HRT thread's ROS-side stack.
  EXPECT_EQ(r->syscall_histogram["mmap"], 1u);
  EXPECT_EQ(r->syscall_histogram["munmap"], 1u);
  EXPECT_EQ(r->syscall_histogram.count("mprotect"), 0u);
}

TEST(HybridTest, RepeatFaultTriggersRemerge) {
  // Force the ROS to install a brand-new PML4 entry after the merge by
  // mapping at a far-away fixed address, then touch it from the HRT.
  HybridSystem sys;
  auto r = sys.run_hybrid("remerge", [](SysIface& s) {
    const std::uint64_t far_addr = 0x500000000000ull;  // fresh PML4 slot
    auto a = s.syscall(SysNr::kMmap,
                       {far_addr, hw::kPageSize,
                        ros::kProtRead | ros::kProtWrite,
                        ros::kMapPrivate | ros::kMapAnonymous | ros::kMapFixed,
                        0, 0});
    EXPECT_TRUE(a.is_ok());
    std::uint64_t x = 0x77;
    EXPECT_TRUE(s.mem_write(far_addr, &x, sizeof(x)).is_ok());
    std::uint64_t back = 0;
    EXPECT_TRUE(s.mem_read(far_addr, &back, sizeof(back)).is_ok());
    EXPECT_EQ(back, 0x77u);
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_GE(r->remerges, 1u);
}

TEST(HybridTest, NativeUsageModelUsesNoLegacyFunctionality) {
  // The paper's Native model (Sec 3.3): the HRT work uses only AeroKernel
  // facilities — kernel memory, AeroKernel threads and events, direct
  // function calls — never glibc or syscalls. Nothing is forwarded.
  HybridSystem sys;
  auto r = sys.run_accelerator(
      "native-model",
      [&sys](SysIface&, MultiverseRuntime& rt, ros::Thread&) {
        naut::Nautilus& nk = rt.naut();
        const std::uint64_t fwd_before = nk.forwarded_syscalls();
        std::uint64_t computed = 0;
        const int ev = nk.event_create();
        auto worker = nk.thread_create(
            [&nk, &computed, ev] {
              auto block = nk.kmalloc(4096);
              EXPECT_TRUE(block.is_ok());
              std::uint64_t v = 21;
              EXPECT_TRUE(nk.hrt_mem_write(*block, &v, sizeof(v)).is_ok());
              std::uint64_t back = 0;
              EXPECT_TRUE(nk.hrt_mem_read(*block, &back, sizeof(back)).is_ok());
              computed = back * 2;
              EXPECT_TRUE(nk.event_signal(ev).is_ok());
            },
            /*nested=*/false, /*channel=*/nullptr, "native-model-worker");
        EXPECT_TRUE(worker.is_ok());
        EXPECT_TRUE(nk.event_wait(ev).is_ok());
        EXPECT_TRUE(nk.thread_join((*worker)->id).is_ok());
        EXPECT_EQ(computed, 42u);
        // No legacy interaction whatsoever.
        EXPECT_EQ(nk.forwarded_syscalls(), fwd_before);
        EXPECT_EQ(nk.forwarded_faults(), 0u);
        return 0;
      });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->exit_code, 0);
}

TEST(HybridTest, ChannelProtocolViolationRejected) {
  // A malformed request kind on the channel page must produce a protocol
  // error response, not crash the partner.
  HybridSystem sys;
  auto r = sys.run_hybrid("protocol", [&sys](SysIface& s) {
    // Normal operation first.
    (void)s.getpid();
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  // Drive serve_pending directly with a bogus kind via a scratch channel.
  multiverse::EventChannel channel(sys.hvm(), sys.linux(), sys.sched(),
                                   sys.config().hrt_core);
  ASSERT_TRUE(channel.init().is_ok());
  // No partner bound: forwarding must fail cleanly, not crash.
  EXPECT_EQ(channel.forward_syscall(ros::SysNr::kGetpid, {}).code(),
            Err::kState);
}

TEST(HybridTest, CustomAerokernelImageAccepted) {
  // The toolchain accepts a developer-supplied AeroKernel image, validating
  // it at build time.
  vmm::HrtImageBuilder b;
  b.set_entry(0x10)
      .add_section(".text", 0, std::vector<std::uint8_t>(1024, 0x90))
      .add_symbol("nk_thread_create", 0x100)
      .add_symbol("nk_thread_join", 0x180)
      .add_symbol("custom_entry", 0x200);
  Toolchain::BuildInputs inputs;
  inputs.custom_aerokernel = b.build().serialize();
  auto fb = Toolchain::build(inputs);
  ASSERT_TRUE(fb.is_ok());
  auto parsed = Toolchain::load(fb->serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed->image.find_symbol("custom_entry").has_value());
  // Garbage custom images are rejected at build time, not at boot.
  Toolchain::BuildInputs bad;
  bad.custom_aerokernel = {1, 2, 3};
  EXPECT_EQ(Toolchain::build(bad).code(), Err::kParse);
}

// The future-work variant: execution groups without dedicated partner
// threads — one shared ROS daemon services every channel.
TEST(SharedDaemonTest, HybridRunBehavesIdentically) {
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("daemon-hello", [](SysIface& s) {
    (void)s.printf("daemon-mode hello\n");
    auto fd = s.open("/d.txt", ros::kOCreat | ros::kORdWr);
    (void)s.write_str(*fd, "x");
    (void)s.close(*fd);
    return 5;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 5);
  EXPECT_NE(r->stdout_text.find("daemon-mode hello"), std::string::npos);
  EXPECT_GT(r->forwarded_syscalls, 0u);
}

TEST(SharedDaemonTest, ManyGroupsOneRosServiceThread) {
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  HybridSystem sys(cfg);
  auto r = sys.run_accelerator(
      "daemon-groups",
      [](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        std::vector<int> groups;
        static int counter;
        counter = 0;
        for (int i = 0; i < 5; ++i) {
          auto g = rt.hrt_thread_create(self, [](SysIface& s) {
            ++counter;
            (void)s.getpid();   // forwarded through the shared daemon
            (void)s.vdso_getpid();
          });
          EXPECT_TRUE(g.is_ok());
          groups.push_back(*g);
        }
        for (const int g : groups) {
          EXPECT_TRUE(rt.hrt_thread_join(self, g).is_ok());
        }
        EXPECT_EQ(counter, 5);
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  // Five execution groups, but the ROS only ever created ONE service thread
  // (vs five partners in the dedicated mode).
  EXPECT_EQ(r->syscall_histogram["clone"], 1u);
  EXPECT_EQ(sys.runtime().groups_created(), 5u);
}

TEST(SharedDaemonTest, FaultForwardingStillWorks) {
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("daemon-faults", [](SysIface& s) {
    auto a = s.mmap(0, 8 * hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                    ros::kMapPrivate | ros::kMapAnonymous);
    std::uint64_t v = 0x42;
    for (int i = 0; i < 8; ++i) {
      if (!s.mem_write(*a + i * hw::kPageSize, &v, sizeof(v)).is_ok()) {
        return 1;
      }
    }
    std::uint64_t back = 0;
    (void)s.mem_read(*a + 5 * hw::kPageSize, &back, sizeof(back));
    return back == 0x42 ? 0 : 2;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_GT(r->forwarded_faults, 0u);
}

TEST(SharedDaemonTest, OutputMatchesDedicatedMode) {
  auto run_with = [](GroupMode mode) {
    SystemConfig cfg;
    cfg.group_mode = mode;
    HybridSystem sys(cfg);
    auto r = sys.run_hybrid("modes", [](SysIface& s) {
      for (int i = 0; i < 3; ++i) (void)s.printf("line %d\n", i);
      return 0;
    });
    EXPECT_TRUE(r.is_ok());
    return r ? r->stdout_text : std::string{};
  };
  EXPECT_EQ(run_with(GroupMode::kDedicatedPartner),
            run_with(GroupMode::kSharedDaemon));
}

TEST(HybridTest, ChannelContentionFromNestedThreads) {
  // Several nested HRT threads hammer the one channel of their execution
  // group: acquires must queue (not interleave round trips), every queued
  // waiter must eventually win the channel, and the contention must be
  // visible in the channel's queue-wait instrumentation.
  metrics::Registry::instance().reset();
  HybridSystem sys;
  auto r = sys.run_hybrid("contention", [](SysIface& s) {
    std::vector<int> tids;
    for (int i = 0; i < 4; ++i) {
      auto tid = s.thread_create([](SysIface& ts) {
        for (int j = 0; j < 8; ++j) (void)ts.getcwd();
      });
      EXPECT_TRUE(tid.is_ok());
      tids.push_back(*tid);
    }
    for (const int tid : tids) EXPECT_TRUE(s.thread_join(tid).is_ok());
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_GE(r->syscall_histogram["getcwd"], 32u);

  metrics::Registry& reg = metrics::Registry::instance();
  std::uint64_t contended = 0;
  for (const auto& [name, c] : reg.counters_with_prefix("channel/")) {
    if (name.find("contended_acquires") != std::string::npos) {
      contended += c->value();
    }
  }
  EXPECT_GT(contended, 0u);
  // Every contended acquire recorded exactly one queue-wait sample, and the
  // wait was real simulated time (other requesters' round trips advanced the
  // shared HRT core's clock).
  std::uint64_t wait_samples = 0;
  double wait_max = 0;
  for (const auto& [name, h] : reg.histograms_with_prefix("channel/")) {
    if (name.find("queue_wait") != std::string::npos) {
      wait_samples += h->count();
      wait_max = std::max(wait_max, h->max());
    }
  }
  EXPECT_EQ(wait_samples, contended);
  EXPECT_GT(wait_max, 0.0);
}

TEST(HybridTest, MarkExitWithRequestInFlight) {
  // White-box: the exit signal lands while a request is posted but not yet
  // served. service_loop must serve the in-flight request first and only
  // then exit — the requester must never deadlock on a dropped response.
  hw::Machine machine;
  Sched sched;
  vmm::Hvm hvm(machine, {});
  ros::LinuxSim kernel(machine, sched, {});
  EventChannel chan(hvm, kernel, sched, /*hrt_core=*/1, /*id=*/77);
  ASSERT_TRUE(chan.init().is_ok());

  // Partner: a real ROS thread whose guest main runs the service loop.
  auto proc = kernel.spawn("partner", [&](SysIface&) {
    chan.bind_partner(kernel.current_thread());
    chan.service_loop();
    return 0;
  });
  ASSERT_TRUE(proc.is_ok());

  // Requester on the HRT core: posts one forwarded syscall.
  Result<std::uint64_t> forwarded = err(Err::kState, "never ran");
  sched.spawn(1, [&] { forwarded = chan.forward_syscall(SysNr::kGetpid, {}); },
              "requester");
  // Third task: flips the exit bit after the request is posted (round-robin
  // order guarantees the requester has already blocked in its round trip)
  // but before the partner has served it.
  sched.spawn(0, [&] { chan.mark_exit(); }, "exiter");

  ASSERT_TRUE(sched.run().is_ok()) << "deadlock: exit dropped the response";
  ASSERT_TRUE(forwarded.is_ok()) << forwarded.status().to_string();
  EXPECT_EQ(*forwarded, static_cast<std::uint64_t>((*proc)->pid));
  EXPECT_EQ(chan.requests_served(), 1u);
  EXPECT_TRUE(chan.exit_requested());
  EXPECT_EQ(chan.protocol_errors(), 0u);
}

TEST(HybridTest, MultipleSequentialGroups) {
  HybridSystem sys;
  auto r = sys.run_accelerator(
      "groups", [](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        for (int i = 0; i < 4; ++i) {
          int ran = 0;
          EXPECT_TRUE(rt.hrt_invoke_func(self, [&ran](SysIface& s) {
            ++ran;
            (void)s.vdso_getpid();
          }).is_ok());
          EXPECT_EQ(ran, 1);
        }
        return 0;
      });
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(sys.runtime().groups_created(), 4u);
}

}  // namespace
}  // namespace mv::multiverse
