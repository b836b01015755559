// Figure 11: utilization of system calls in the Racket runtime without any
// benchmark — pure engine startup. "Calls to mmap() and munmap() dominate
// the system calls for the creation of the heap."

#include "common.hpp"

int main() {
  using namespace mvbench;
  banner("Figure 11", "syscall histogram: runtime startup, no benchmark");

  SystemConfig cfg;
  cfg.virtualized = false;
  HybridSystem system(cfg);
  auto r = run_vessel(system, Mode::kNative, "startup", VesselProgram(""));
  if (!r) {
    std::printf("failed: %s\n", r.status().to_string().c_str());
    return 1;
  }

  print_syscall_histogram(*r, 1);
  std::printf("total syscalls at startup: %llu\n",
              static_cast<unsigned long long>(r->total_syscalls));

  const auto count_of = [&r](const char* name) {
    return syscall_count(*r, name);
  };
  std::printf("\n");
  Checks checks;
  checks.check("shape check (mmap/munmap dominate heap creation; "
               "stat/open/read/close from collection loading; rt_sigaction + "
               "setitimer from runtime setup)",
               count_of("mmap") >= count_of("stat") &&
                   count_of("mmap") >= count_of("open") &&
                   count_of("mmap") > 10 && count_of("munmap") > 0 &&
                   count_of("rt_sigaction") >= 1 &&
                   count_of("setitimer") >= 1 && count_of("open") >= 3);
  return checks.exit_code();
}
