// Adaptive hybridization: the HybridizationGovernor's promote/demote state
// machine, the unified enum-indexed override dispatch table (one
// find_override() consulted by both the single-call and batch paths), the
// warmed-symbol cache contract (second override call charges no lookup), and
// the byte-identical-output property with `hybridize on` vs `off` under
// injected override failures.

#include <gtest/gtest.h>

#include "multiverse/hybridize.hpp"
#include "multiverse/system.hpp"
#include "support/faultplan.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;
using ros::SysNr;

using State = HybridizationGovernor::State;

// --- config parsing ----------------------------------------------------------

TEST(HybridizeConfigTest, ParseAcceptsFullSpec) {
  auto cfg = parse_override_config(
      "option hybridize "
      "on,promote_after=8,demote_on_fail=2,threshold=500,window=1000000\n");
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  const HybridizeOptions& h = cfg->options.hybridize;
  EXPECT_TRUE(h.enabled);
  EXPECT_EQ(h.promote_after, 8u);
  EXPECT_EQ(h.demote_on_fail, 2);
  EXPECT_DOUBLE_EQ(h.threshold_cycles, 500.0);
  EXPECT_EQ(h.window_cycles, 1000000u);
}

TEST(HybridizeConfigTest, OffByDefaultAndParseRejectsGarbage) {
  auto cfg = parse_override_config("");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_FALSE(cfg->options.hybridize.enabled);

  auto off = parse_override_config("option hybridize off,promote_after=3\n");
  ASSERT_TRUE(off.is_ok());
  EXPECT_FALSE(off->options.hybridize.enabled);
  EXPECT_EQ(off->options.hybridize.promote_after, 3u);

  EXPECT_EQ(parse_override_config("option hybridize promote_after=8\n").code(),
            Err::kParse);
  EXPECT_EQ(parse_override_config("option hybridize on,bogus=2\n").code(),
            Err::kParse);
  EXPECT_EQ(
      parse_override_config("option hybridize on,promote_after=0\n").code(),
      Err::kParse);
  EXPECT_EQ(
      parse_override_config("option hybridize on,demote_on_fail=zz\n").code(),
      Err::kParse);
  for (const char* knob : {"promote_after=8abc", "demote_on_fail=2x",
                           "threshold=500cycles", "threshold=nan",
                           "window=-5"}) {
    EXPECT_EQ(parse_override_config(
                  strfmt("option hybridize on,%s\n", knob))
                  .code(),
              Err::kParse)
        << knob;
  }
}

TEST(HybridizeConfigTest, OverrideFailClassParsesButDoesNotArmChannel) {
  // kOverrideFail is the governor's class: the event channel must not switch
  // into its hardened paths because of it (like the machine-absorbed IPI
  // class), or a hybridize fault run would perturb unrelated transport
  // schedules.
  auto plan = FaultPlan::parse("override_fail=0.5,seed=3");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_DOUBLE_EQ(plan->probability(FaultClass::kOverrideFail), 0.5);
  EXPECT_TRUE(plan->enabled());
  EXPECT_FALSE(plan->channel_armed());
}

// --- family mapping ----------------------------------------------------------

TEST(HybridizeTableTest, FamilyMappingRoundTrips) {
  for (std::size_t i = 0; i < kSysFamilyCount; ++i) {
    const auto f = static_cast<SysFamily>(i);
    EXPECT_EQ(sys_family(family_sysnr(f)), f);
  }
  EXPECT_EQ(sys_family(SysNr::kGetpid), SysFamily::kCount_);
  EXPECT_EQ(sys_family(SysNr::kExitGroup), SysFamily::kCount_);

  OverrideTable table;
  EXPECT_EQ(table.entry(SysNr::kGetpid), nullptr);
  ASSERT_NE(table.entry(SysNr::kMmap), nullptr);
  EXPECT_FALSE(table.entry(SysNr::kMmap)->active);
  EXPECT_EQ(table.entry(SysNr::kMmap)->kernel_symbol(), "nk_mmap");
  EXPECT_EQ(table.entry(SysNr::kBrk)->kernel_symbol(), "nk_brk");
}

// --- unified dispatch table (satellite: de-duplicated spec switch) -----------

TEST(HybridizeDispatchTest, SingleAndBatchPathsConsultTheSameTable) {
  // Regression for the copied override-spec switch: the same family issued
  // through HrtCtx::syscall and through syscall_batch must make the same
  // dispatch decision. mmap/munmap are overridden (kernel-mode from both
  // paths, so the ROS never sees them); mprotect is not (forwarded from both
  // paths, so the ROS sees every call).
  SystemConfig cfg;
  cfg.extra_override_config =
      "override mmap nk_mmap\n"
      "override munmap nk_munmap\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("dispatch-paths", [](SysIface& s) {
    for (int i = 0; i < 4; ++i) {
      // Single-call path.
      auto a = s.mmap(0, 2 * hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      if (!a.is_ok()) return 10;
      if (!s.mprotect(*a, hw::kPageSize, ros::kProtRead).is_ok()) return 11;
      if (!s.munmap(*a, 2 * hw::kPageSize).is_ok()) return 12;
      // Batch path: the same three calls as one batch.
      auto b = s.mmap(0, 2 * hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      if (!b.is_ok()) return 13;
      auto results = s.syscall_batch(
          {ros::SysReq{SysNr::kMprotect,
                       {*b, hw::kPageSize, ros::kProtRead, 0, 0, 0}},
           ros::SysReq{SysNr::kMunmap, {*b, 2 * hw::kPageSize, 0, 0, 0, 0}}});
      for (const auto& res : results) {
        if (!res.is_ok()) return 14;
      }
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  // Overridden family: only the partner's stack allocation reaches the ROS,
  // from either path.
  EXPECT_EQ(r->syscall_histogram["mmap"], 1u);
  EXPECT_EQ(r->syscall_histogram["munmap"], 1u);
  // Non-overridden family: every call reaches the ROS, from either path.
  EXPECT_EQ(r->syscall_histogram["mprotect"], 8u);
}

// --- enum-indexed dispatch cost (satellite: no string lookup on hot path) ----

TEST(HybridizeDispatchTest, DispatchChargesIdenticalCyclesAcrossRuns) {
  // The dispatch decision itself is host-side (charges nothing), so two
  // identical runs over the enum-indexed table must land on cycle-identical
  // per-core schedules — the same pin the zero-probability fault plan has.
  auto measure = [] {
    SystemConfig cfg;
    cfg.extra_override_config =
        "override mmap nk_mmap\n"
        "override munmap nk_munmap\n"
        "override mprotect nk_mprotect\n";
    HybridSystem sys(cfg);
    auto r = sys.run_hybrid("dispatch-cycles", [](SysIface& s) {
      for (int i = 0; i < 8; ++i) {
        auto a = s.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                        ros::kMapPrivate | ros::kMapAnonymous);
        if (!a.is_ok()) return 1;
        if (!s.mprotect(*a, hw::kPageSize, ros::kProtRead).is_ok()) return 2;
        if (!s.munmap(*a, hw::kPageSize).is_ok()) return 3;
      }
      return 0;
    });
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    std::vector<Cycles> cycles;
    for (unsigned c = 0; c < 4; ++c) {
      cycles.push_back(sys.machine().core(c).cycles());
    }
    return std::make_pair(r.is_ok() ? r->exit_code : -1, cycles);
  };
  const auto first = measure();
  const auto second = measure();
  EXPECT_EQ(first.first, 0);
  EXPECT_EQ(first, second)
      << "override dispatch must charge identical cycles on identical runs";
}

TEST(HybridizeDispatchTest, SecondOverrideCallChargesNoLookup) {
  // The "charged lookup; cacheable" contract, actually honoured: the first
  // overridden call resolves the AeroKernel symbol (one charged symbol-table
  // lookup); the resolved vaddr is cached in the override table entry, so
  // later calls charge no lookup cycles at all.
  SystemConfig cfg;
  cfg.extra_override_config = "override mmap nk_mmap\n";
  HybridSystem sys(cfg);
  const unsigned hrt_core = cfg.hrt_core;
  auto r = sys.run_hybrid("warm-once", [&sys, hrt_core](SysIface& s) {
    naut::SymbolTable& symbols = sys.naut().symbols();
    hw::Core& core = sys.machine().core(hrt_core);
    const auto overridden_mmap = [&s] {
      auto a = s.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      return a.is_ok();
    };

    const std::uint64_t lookups_before = symbols.lookups();
    const Cycles first_begin = core.cycles();
    if (!overridden_mmap()) return 1;
    const Cycles first_cost = core.cycles() - first_begin;
    EXPECT_EQ(symbols.lookups(), lookups_before + 1)
        << "first override call resolves (and charges) exactly one lookup";

    const Cycles second_begin = core.cycles();
    if (!overridden_mmap()) return 2;
    const Cycles second_cost = core.cycles() - second_begin;
    EXPECT_EQ(symbols.lookups(), lookups_before + 1)
        << "second override call must not touch the symbol table";
    EXPECT_LT(second_cost, first_cost)
        << "steady-state override call still paying the lookup";

    const Cycles third_begin = core.cycles();
    if (!overridden_mmap()) return 3;
    EXPECT_EQ(core.cycles() - third_begin, second_cost)
        << "steady-state override cost must be stable";
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
}

// --- governor promotion / demotion -------------------------------------------

TEST(HybridizeGovernorTest, PromotesHotFamilyAfterThresholdCalls) {
  SystemConfig cfg;
  cfg.extra_override_config =
      "option hybridize on,promote_after=4,threshold=1000\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("promote", [](SysIface& s) {
    for (int i = 0; i < 16; ++i) {
      auto a = s.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      if (!a.is_ok()) return 1;
      std::uint64_t v = 0x5a + static_cast<std::uint64_t>(i);
      if (!s.mem_write(*a, &v, sizeof(v)).is_ok()) return 2;
      if (!s.munmap(*a, hw::kPageSize).is_ok()) return 3;
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);

  HybridizationGovernor* gov = sys.runtime().governor();
  ASSERT_NE(gov, nullptr);
  EXPECT_EQ(gov->state(SysFamily::kMmap), State::kOverridden);
  EXPECT_EQ(gov->state(SysFamily::kMunmap), State::kOverridden);
  EXPECT_GE(gov->promotions(), 2u);
  EXPECT_EQ(gov->demotions(), 0u);
  EXPECT_GT(gov->override_calls(SysFamily::kMmap), 0u);
  // The promoted steady state is far cheaper than the forwarded path it
  // replaced.
  EXPECT_LT(gov->override_ewma(SysFamily::kMmap),
            gov->forwarded_ewma(SysFamily::kMmap) / 4);
  // After promotion (4 forwarded calls each for mmap/munmap), the remaining
  // calls run kernel-mode: the ROS sees only the forwarded prefix plus the
  // partner's stack pair.
  EXPECT_EQ(r->syscall_histogram["mmap"], 5u);
  EXPECT_EQ(r->syscall_histogram["munmap"], 5u);
  // Promotion shows up in the runtime-mutable table, flight recorder aside.
  EXPECT_TRUE(sys.runtime().override_table().at(SysFamily::kMmap).active);
  EXPECT_NE(sys.runtime().override_table().at(SysFamily::kMmap).kernel_vaddr,
            0u);
}

TEST(HybridizeGovernorTest, StaticOverridesStartOverriddenAndStayQuiet) {
  // A family the config already overrides must not generate promotions: the
  // governor adopts it as kOverridden and only tracks its steady-state cost.
  SystemConfig cfg;
  cfg.extra_override_config =
      "override mmap nk_mmap\n"
      "override munmap nk_munmap\n"
      "option hybridize on,promote_after=2,threshold=1000\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("static-adopt", [](SysIface& s) {
    for (int i = 0; i < 8; ++i) {
      auto a = s.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      if (!a.is_ok()) return 1;
      if (!s.munmap(*a, hw::kPageSize).is_ok()) return 2;
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  HybridizationGovernor* gov = sys.runtime().governor();
  ASSERT_NE(gov, nullptr);
  EXPECT_EQ(gov->state(SysFamily::kMmap), State::kOverridden);
  EXPECT_EQ(gov->promotions(), 0u);
  EXPECT_EQ(gov->demotions(), 0u);
  EXPECT_EQ(r->syscall_histogram["mmap"], 1u);  // partner stack only
}

TEST(HybridizeGovernorTest, InjectedFailureDemotesThenRepromotesWithBackoff) {
  // Every override execution fails (override_fail=1.0): the family promotes
  // after promote_after calls, demotes on the first overridden call, and
  // re-earns promotion with exponential backoff until demote_on_fail
  // consecutive failures pin it to forwarding. The program must still
  // complete with correct results — each failed call transparently retries
  // on the forwarded path.
  SystemConfig cfg;
  cfg.extra_override_config =
      "option hybridize on,promote_after=2,demote_on_fail=2,threshold=1000\n"
      "option fault override_fail=1,seed=11\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("demote", [](SysIface& s) {
    for (int i = 0; i < 40; ++i) {
      auto a = s.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                      ros::kMapPrivate | ros::kMapAnonymous);
      if (!a.is_ok()) return 1;
      std::uint64_t v = 0x77;
      if (!s.mem_write(*a, &v, sizeof(v)).is_ok()) return 2;
      std::uint64_t back = 0;
      if (!s.mem_read(*a, &back, sizeof(back)).is_ok() || back != v) return 3;
      if (!s.munmap(*a, hw::kPageSize).is_ok()) return 4;
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);

  HybridizationGovernor* gov = sys.runtime().governor();
  ASSERT_NE(gov, nullptr);
  // promote@2 -> fail (backoff target 4) -> promote@4 -> fail (target 8) ->
  // promote@8 -> fail -> third consecutive failure exceeds demote_on_fail=2:
  // pinned.
  EXPECT_EQ(gov->state(SysFamily::kMmap), State::kPinned);
  EXPECT_EQ(gov->promote_target(SysFamily::kMmap),
            gov->options().promote_after << 2);
  EXPECT_GE(gov->promotions(), 3u);
  EXPECT_GE(gov->demotions(), 3u);
  EXPECT_FALSE(sys.runtime().override_table().at(SysFamily::kMmap).active);

  // Every injected override failure was recovered by demoting + retrying
  // forwarded.
  FaultPlan* plan = sys.runtime().fault_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->injected(FaultClass::kOverrideFail), 0u);
  EXPECT_EQ(plan->recovered(FaultClass::kOverrideFail),
            plan->injected(FaultClass::kOverrideFail));
}

// --- byte-identical output property ------------------------------------------

struct GuestObservation {
  std::uint64_t checksum = 0;
  int exit_code = 0;
  std::string stdout_text;
};

GuestObservation run_workload(const std::string& extra_config) {
  SystemConfig cfg;
  cfg.extra_override_config = extra_config;
  HybridSystem system(cfg);
  GuestObservation obs;
  auto r = system.run_hybrid("hybridize-prop", [&obs](SysIface& sys) {
    std::uint64_t sum = 0;
    for (int i = 0; i < 24; ++i) {
      auto pid = sys.getpid();
      if (!pid.is_ok()) return 10;
      sum = sum * 31 + *pid;
      auto addr = sys.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                           ros::kMapPrivate | ros::kMapAnonymous);
      if (!addr.is_ok()) return 11;
      std::uint64_t v = 0x9e00 + static_cast<std::uint64_t>(i);
      if (!sys.mem_write(*addr, &v, sizeof(v)).is_ok()) return 12;
      std::uint64_t back = 0;
      if (!sys.mem_read(*addr, &back, sizeof(back)).is_ok()) return 13;
      sum = sum * 31 + back;
      if (!sys.mprotect(*addr, hw::kPageSize, ros::kProtRead).is_ok())
        return 14;
      if (!sys.munmap(*addr, hw::kPageSize).is_ok()) return 15;
    }
    obs.checksum = sum;
    return 0;
  });
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  if (r.is_ok()) {
    obs.exit_code = r->exit_code;
    obs.stdout_text = r->stdout_text;
  }
  return obs;
}

class HybridizeFaultScheduleProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridizeFaultScheduleProperty, OutputIdenticalWithHybridizeOnVsOff) {
  // The whole-point property: turning the governor on — with override
  // failures injected at a seed-derived rate, forcing promote/demote churn —
  // must not change a single guest-visible byte relative to the plain
  // forwarded run.
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const double p_fail = 0.05 + 0.30 * rng.uniform();
  const std::string spec = strfmt(
      "option hybridize on,promote_after=4,demote_on_fail=2,threshold=1000\n"
      "option fault override_fail=%.3f,seed=%llu\n",
      p_fail, static_cast<unsigned long long>(seed));

  const GuestObservation off = run_workload("");
  const GuestObservation on = run_workload(spec);

  EXPECT_EQ(on.exit_code, 0);
  EXPECT_EQ(on.exit_code, off.exit_code);
  EXPECT_EQ(on.checksum, off.checksum);
  EXPECT_EQ(on.stdout_text, off.stdout_text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridizeFaultScheduleProperty,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace mv::multiverse
