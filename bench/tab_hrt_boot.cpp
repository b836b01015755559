// Section 2 claim: "Due to a specialized boot protocol, an extension of the
// multiboot2 standard, the HRT can be booted or rebooted in just
// milliseconds, putting HRT boot at a cost on par with a process
// fork()+exec() in the ROS."

#include "common.hpp"

int main() {
  using namespace mvbench;
  banner("Section 2 (boot)", "HRT boot/reboot latency vs fork+exec scale");

  SystemConfig cfg;
  HybridSystem system(cfg);
  std::vector<double> boots_ms;
  auto r = system.run_accelerator(
      "boot-bench",
      [&](ros::SysIface&, MultiverseRuntime&, ros::Thread& self) {
        // startup() performed the first boot; measure reboots.
        for (int i = 0; i < 5; ++i) {
          auto hc = system.hvm().hypercall(self.core,
                                           vmm::Hypercall::kRebootHrt);
          if (!hc) return 1;
          boots_ms.push_back(cycles_to_us(system.hvm().last_boot_cycles()) /
                             1000.0);
        }
        return 0;
      });
  if (!r || r->exit_code != 0) {
    std::printf("failed\n");
    return 1;
  }

  Table table({"Boot #", "latency (ms)"});
  double total = 0;
  for (std::size_t i = 0; i < boots_ms.size(); ++i) {
    table.add_row({std::to_string(i + 1), strfmt("%.2f", boots_ms[i])});
    total += boots_ms[i];
  }
  table.print();
  const double mean = total / static_cast<double>(boots_ms.size());
  std::printf("\nmean reboot latency: %.2f ms (paper: \"just "
              "milliseconds\", on par with fork()+exec())\n",
              mean);
  Checks checks;
  checks.check("shape check", mean > 0.2 && mean < 20.0);
  return checks.exit_code();
}
