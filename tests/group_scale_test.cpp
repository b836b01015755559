// Group scale-out regressions: balanced HRT placement across the partition,
// the sharded doorbell-driven ROS service pool, the Sched pending-wake token
// (lost-wakeup fix), and the split-execution bugfixes that rode along
// (channel/thread core mismatch, remerge self-IPI, duplicate join waiters).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "multiverse/system.hpp"
#include "support/metrics.hpp"
#include "support/sched.hpp"
#include "support/strings.hpp"
#include "vmm/hrt_image.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;

// --- Sched pending-wake token (lost-wakeup fix) ------------------------------

TEST(SchedWakeTokenTest, WakeInCheckToBlockWindowIsNotLost) {
  // The exact window the old daemon_body/service_loop idle handshake lost: a
  // server checks for work (none yet), and the producer's wake lands before
  // the server reaches block() — while the server is still runnable. wake()
  // must park a token that the server's block() consumes, or the wake is
  // dropped and the schedule deadlocks.
  Sched sched;
  bool work = false;
  bool served = false;
  const TaskId server = sched.spawn(0, [&] {
    while (!work) {
      // Open the window: hand the CPU to the producer between the
      // check-for-work and the block().
      sched.yield();
      sched.block();
    }
    served = true;
  }, "server");
  sched.spawn(0, [&, server] {
    work = true;
    sched.wake(server);  // server is runnable here, not blocked
  }, "producer");
  ASSERT_TRUE(sched.run().is_ok()) << "pending wake was lost";
  EXPECT_TRUE(served);
}

TEST(SchedWakeTokenTest, WakeOnBlockedTaskUnblocksLikeUnblock) {
  Sched sched;
  bool served = false;
  const TaskId server = sched.spawn(0, [&] {
    sched.block();  // genuinely blocked when the wake arrives
    served = true;
  }, "server");
  sched.spawn(0, [&, server] { sched.wake(server); }, "producer");
  ASSERT_TRUE(sched.run().is_ok());
  EXPECT_TRUE(served);
}

// --- placement: channel core == actual HRT thread core -----------------------

TEST(PlacementRegressionTest, ChannelCoreMatchesHrtThreadCore) {
  // Regression for the placement mismatch: create_group used to bind every
  // channel to hrt_cores.front() while the kernel placed the thread
  // round-robin, so doorbells/cost charging targeted the wrong core for any
  // group whose thread landed elsewhere.
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2, 3};
  HybridSystem sys(cfg);
  std::vector<int> group_ids;
  auto r = sys.run_accelerator(
      "placement",
      [&group_ids](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        for (int i = 0; i < 4; ++i) {
          auto g = rt.hrt_thread_create(
              self, [](SysIface& s) { (void)s.getpid(); });
          if (!g.is_ok()) return 1;
          group_ids.push_back(*g);
        }
        for (const int g : group_ids) {
          if (!rt.hrt_thread_join(self, g).is_ok()) return 2;
        }
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->exit_code, 0);
  ASSERT_EQ(group_ids.size(), 4u);

  MultiverseRuntime& rt = sys.runtime();
  std::set<unsigned> cores_used;
  for (const int id : group_ids) {
    ExecGroup* group = rt.find_group(id);
    ASSERT_NE(group, nullptr);
    ASSERT_GE(group->hrt_tid, 0);
    const naut::NautThread* thread = rt.naut().find_thread(group->hrt_tid);
    ASSERT_NE(thread, nullptr);
    EXPECT_EQ(group->channel->hrt_core(), thread->core)
        << "group " << id << ": channel bound to a different core than its "
        << "HRT thread actually ran on";
    cores_used.insert(thread->core);
  }
  // Round-robin over a 3-core partition: 4 groups touch all 3 cores.
  EXPECT_EQ(cores_used.size(), 3u);
}

TEST(PlacementPolicyTest, RoundRobinSpreadsGroupsEvenly) {
  metrics::Registry::instance().reset();
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2, 3};
  HybridSystem sys(cfg);
  auto r = sys.run_accelerator(
      "rr-spread", [](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        std::vector<int> groups;
        for (int i = 0; i < 9; ++i) {
          auto g = rt.hrt_thread_create(
              self, [](SysIface& s) { (void)s.getpid(); });
          if (!g.is_ok()) return 1;
          groups.push_back(*g);
        }
        for (const int g : groups) {
          if (!rt.hrt_thread_join(self, g).is_ok()) return 2;
        }
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->exit_code, 0);
  // 9 groups round-robin over 3 cores: exactly 3 each, nobody owns the lot.
  for (const unsigned core : {1u, 2u, 3u}) {
    EXPECT_EQ(metrics::Registry::instance()
                  .counter(strfmt("mv/groups/per_core/%u", core))
                  .value(),
              3u);
  }
}

// --- sharded service pool ----------------------------------------------------

TEST(ServicePoolTest, ShardedWorkersServeAllGroups) {
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0, 1};
  cfg.hrt_cores = {2, 3};
  cfg.extra_override_config = "option service_workers 3\n";
  HybridSystem sys(cfg);
  auto r = sys.run_accelerator(
      "pool-groups",
      [](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        static int counter;
        counter = 0;
        std::vector<int> groups;
        for (int i = 0; i < 7; ++i) {
          auto g = rt.hrt_thread_create(self, [](SysIface& s) {
            ++counter;
            (void)s.getpid();  // forwarded through this group's shard worker
            (void)s.getcwd();
          });
          if (!g.is_ok()) return 1;
          groups.push_back(*g);
        }
        if (rt.service_worker_count() != 3) return 2;
        for (const int g : groups) {
          if (!rt.hrt_thread_join(self, g).is_ok()) return 3;
        }
        return counter == 7 ? 0 : 4;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  // Seven execution groups, but the ROS created exactly K=3 service threads
  // (vs seven partners in the dedicated mode, or one classic daemon).
  EXPECT_EQ(r->syscall_histogram["clone"], 3u);
  EXPECT_EQ(sys.runtime().groups_created(), 7u);
}

TEST(ServicePoolConfigTest, ParsesAndValidatesOptions) {
  auto ok = parse_override_config("option service_workers 4\n");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok->options.service_workers, 4);
  EXPECT_EQ(parse_override_config("option service_workers 0\n").code(),
            Err::kParse);
  EXPECT_EQ(parse_override_config("option service_workers banana\n").code(),
            Err::kParse);
}

// --- remerge self-IPI fix ----------------------------------------------------

TEST(RemergeSelfIpiTest, RemergeChargesOneIpiRoundPerOtherCore) {
  // The initiator flushes locally as part of the PML4 copy; it must not
  // appear in its own shootdown target list (which double-charged a full
  // tlb_shootdown_ipi round per merge).
  hw::Machine machine(hw::MachineConfig{2, 2, 1 << 26});
  Sched sched;
  vmm::Hvm hvm(machine, vmm::HvmConfig{{0}, {1, 2, 3}, 1 << 25});
  naut::Nautilus naut(machine, sched, hvm);
  const auto blob = vmm::HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm.hypercall(0, vmm::Hypercall::kBootHrt).is_ok());
  auto ros_root = machine.paging().new_root();
  ASSERT_TRUE(
      hvm.hypercall(0, vmm::Hypercall::kMergeAddressSpaces, *ros_root)
          .is_ok());
  const std::uint64_t before = machine.ipis_sent();
  ASSERT_TRUE(naut.remerge().is_ok());
  EXPECT_EQ(machine.ipis_sent() - before, 2u);  // hrt_cores - 1 rounds
}

// --- duplicate join waiters fix ----------------------------------------------

TEST(JoinWaitersTest, TwoJoinersOneGroupDaemonMode) {
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  HybridSystem sys(cfg);
  auto r = sys.run_accelerator(
      "two-joiners",
      [&sys](SysIface& iface, MultiverseRuntime& rt, ros::Thread& self) {
        auto g = rt.hrt_thread_create(self, [](SysIface& s) {
          for (int i = 0; i < 6; ++i) (void)s.getpid();
        });
        if (!g.is_ok()) return 1;
        const int gid = *g;
        // Second joiner: an ordinary ROS thread parking on the same group.
        auto tid = iface.thread_create([&rt, &sys, gid](SysIface&) {
          ros::Thread* me = sys.linux().current_thread();
          if (me != nullptr) (void)rt.hrt_thread_join(*me, gid);
        });
        if (!tid.is_ok()) return 2;
        if (!rt.hrt_thread_join(self, gid).is_ok()) return 3;
        if (!iface.thread_join(*tid).is_ok()) return 4;
        // Both joiners returned and the waiter list drained completely.
        return rt.join_waiter_count(gid) == 0 ? 0 : 5;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
}

TEST(JoinWaitersTest, SpuriousWakesDoNotAccumulateDuplicateEntries) {
  // Regression for the re-push bug: a parked joiner that wakes while the
  // group is still live must not enqueue a second waiter entry. Spuriously
  // unblock the parked joiner and watch the waiter list stay at one entry.
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  HybridSystem sys(cfg);
  std::size_t max_waiters = 0;
  auto r = sys.run_accelerator(
      "spurious-wakes",
      [&sys, &max_waiters](SysIface& iface, MultiverseRuntime& rt,
                           ros::Thread& self) {
        auto g = rt.hrt_thread_create(self, [](SysIface& s) {
          for (int i = 0; i < 16; ++i) (void)s.getcwd();
        });
        if (!g.is_ok()) return 1;
        const int gid = *g;
        TaskId joiner_task = kNoTask;
        auto tid = iface.thread_create(
            [&rt, &sys, gid, &joiner_task](SysIface&) {
              ros::Thread* me = sys.linux().current_thread();
              if (me == nullptr) return;
              joiner_task = me->task;
              (void)rt.hrt_thread_join(*me, gid);
            });
        if (!tid.is_ok()) return 2;
        for (int i = 0; i < 4; ++i) {
          iface.thread_yield();  // let the joiner park
          if (joiner_task != kNoTask) sys.sched().unblock(joiner_task);
          max_waiters = std::max(max_waiters, rt.join_waiter_count(gid));
        }
        if (!rt.hrt_thread_join(self, gid).is_ok()) return 3;
        if (!iface.thread_join(*tid).is_ok()) return 4;
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_LE(max_waiters, 1u);
}

// --- exitless spin mode (adaptive spin-then-doorbell workers) ----------------

// Pooled workload shared by the spin tests: several execution groups each
// forwarding a burst of syscalls through the shard workers, folding the
// results into a guest-computed checksum. Everything asserted about the
// result is cycle-insensitive (values, counts), so runs with different spin
// windows must agree on all of it.
struct SpinRun {
  ProgramResult result;
  std::uint64_t raise_exits = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t spin_hits = 0;
};

SpinRun run_spin_workload(long long spin_cycles) {
  const std::uint64_t hits_before =
      metrics::Registry::instance().counter("service/spin_hits").value();
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2, 3};
  // Batched rings (depth > 1): the doorbell is a real kRaiseRos hypercall,
  // which is what the spin window is meant to elide.
  cfg.extra_override_config =
      strfmt("option ring_depth 4\noption service_workers 2\n"
             "option spin_cycles %lld\n",
             spin_cycles);
  HybridSystem sys(cfg);
  SpinRun out;
  auto r = sys.run_accelerator(
      "spin-load",
      [](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        static std::uint64_t checksum;
        checksum = 0;
        std::vector<int> groups;
        for (int i = 0; i < 6; ++i) {
          auto g = rt.hrt_thread_create(self, [](SysIface& s) {
            for (int j = 0; j < 8; ++j) {
              auto pid = s.getpid();
              checksum = checksum * 31 + (pid.is_ok() ? *pid : 0);
            }
          });
          if (!g.is_ok()) return -1;
          groups.push_back(*g);
        }
        for (const int g : groups) {
          if (!rt.hrt_thread_join(self, g).is_ok()) return -2;
        }
        return static_cast<int>(checksum % 251);
      });
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  if (r.is_ok()) out.result = *r;
  out.raise_exits = sys.hvm().hypercall_count(vmm::Hypercall::kRaiseRos);
  for (const auto& [name, counter] :
       metrics::Registry::instance().counters_with_prefix("channel/")) {
    if (name.find("doorbells_suppressed") != std::string::npos) {
      out.suppressed += counter->value();
    }
  }
  out.spin_hits =
      metrics::Registry::instance().counter("service/spin_hits").value() -
      hits_before;
  return out;
}

TEST(ExitlessSpinTest, SpinModeMatchesInterruptModeByteForByte) {
  // The spin window changes when submissions are *noticed*, never what they
  // compute: guest-visible output — exit code (checksum), syscall histogram,
  // forwarded counts — must be identical with polling on and off, while the
  // polling run actually exercises suppression.
  const SpinRun off = run_spin_workload(0);
  const SpinRun on = run_spin_workload(200000);
  EXPECT_EQ(on.result.exit_code, off.result.exit_code);
  EXPECT_EQ(on.result.stdout_text, off.result.stdout_text);
  EXPECT_EQ(on.result.syscall_histogram, off.result.syscall_histogram);
  EXPECT_EQ(on.result.forwarded_syscalls, off.result.forwarded_syscalls);
  EXPECT_EQ(on.result.total_syscalls, off.result.total_syscalls);
  EXPECT_EQ(off.suppressed, 0u);
  EXPECT_GT(on.suppressed, 0u) << "spin run never suppressed a doorbell";
  EXPECT_GT(on.spin_hits, 0u) << "spin window never caught a submission";
  // The point of the exercise: polling workers take fewer doorbell exits.
  EXPECT_LT(on.raise_exits, off.raise_exits);
}

TEST(ExitlessSpinTest, TinySpinWindowsNeverStrandASubmission) {
  // Regression for the checked-empty-then-re-arm window (same lost-wakeup
  // class as the Sched::wake token fix): a worker leaving its spin window
  // must clear the poll word BEFORE its final ring re-check, or a flush that
  // suppressed its doorbell against the closing window is stranded. Tiny
  // windows make the spin expire between nearly every submission, hammering
  // the handoff edge; a lost submission deadlocks the schedule and fails the
  // run.
  for (const long long window : {1LL, 3LL, 17LL, 64LL, 700LL, 5000LL}) {
    const SpinRun run = run_spin_workload(window);
    EXPECT_FALSE(run.result.killed) << "window=" << window;
    EXPECT_GE(run.result.exit_code, 0) << "window=" << window;
  }
}

TEST(ExitlessSpinTest, PollWordClearedOnceWorkersPark) {
  // After a run completes, no channel may be left advertising a polling
  // consumer: the worker's exit path re-arms every doorbell it suppressed.
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  cfg.extra_override_config =
      "option service_workers 2\noption spin_cycles 50000\n";
  HybridSystem sys(cfg);
  std::vector<int> group_ids;
  auto r = sys.run_accelerator(
      "spin-park",
      [&group_ids](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        for (int i = 0; i < 3; ++i) {
          auto g = rt.hrt_thread_create(
              self, [](SysIface& s) { (void)s.getpid(); });
          if (!g.is_ok()) return 1;
          group_ids.push_back(*g);
          if (!rt.hrt_thread_join(self, *g).is_ok()) return 2;
        }
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  for (const int id : group_ids) {
    const ExecGroup* group = sys.runtime().find_group(id);
    ASSERT_NE(group, nullptr);
    EXPECT_FALSE(group->channel->consumer_polling())
        << "group " << id << " left with the poll word set";
  }
}

}  // namespace
}  // namespace mv::multiverse
