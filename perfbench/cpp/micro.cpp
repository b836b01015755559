#include "micro.hpp"

#include <vector>

#include "harness.hpp"
#include "hw/machine.hpp"
#include "ros/linux.hpp"
#include "support/fiber.hpp"
#include "support/sched.hpp"

namespace perfbench {

using namespace mv;  // NOLINT

double fiber_create_ns(int reps) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const double t0 = host_now();
    {
      Fiber fiber([] {});
      fiber.resume();
    }
    ns.push_back((host_now() - t0) * 1e9);
  }
  return median(ns);
}

double munmap_us(std::uint64_t resident_pages, int reps) {
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kUnmapPages = 8;
  hw::Machine machine(hw::MachineConfig{1, 1, 1ull << 30});
  Sched sched;
  ros::LinuxSim kernel(machine, sched, ros::LinuxSim::Config{{0}, false, 0});
  std::vector<double> us;
  auto proc = kernel.spawn("munmap", [&](ros::SysIface& sys) {
    const int prot = ros::kProtRead | ros::kProtWrite;
    const int flags = ros::kMapPrivate | ros::kMapAnonymous;
    auto big = sys.mmap(0, resident_pages * kPage, prot, flags);
    if (!big.is_ok()) return 1;
    for (std::uint64_t p = 0; p < resident_pages; ++p) {
      if (!sys.mem_touch(*big + p * kPage, hw::Access::kWrite).is_ok()) {
        return 1;
      }
    }
    for (int i = 0; i < reps; ++i) {
      auto small = sys.mmap(0, kUnmapPages * kPage, prot, flags);
      if (!small.is_ok()) return 1;
      for (std::uint64_t p = 0; p < kUnmapPages; ++p) {
        (void)sys.mem_touch(*small + p * kPage, hw::Access::kWrite);
      }
      const double t0 = host_now();
      const Status s = sys.munmap(*small, kUnmapPages * kPage);
      us.push_back((host_now() - t0) * 1e6);
      if (!s.is_ok()) return 1;
    }
    return 0;
  });
  if (!proc.is_ok() || !kernel.run_all().is_ok() || (*proc)->exit_code != 0 ||
      us.empty()) {
    return -1;
  }
  return median(us);
}

}  // namespace perfbench
