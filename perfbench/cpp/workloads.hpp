#pragma once

// The benchmark's four workloads. Each is built once from its seed (which
// fixes every generated input) as a list of units, one per system it boots;
// one round runs every unit once, and a run repeats rounds as long as its
// time allows.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct WorkloadOptions {
  std::string name;
  std::uint64_t seed = 1;
  bool tiny = false;        // self-check sizes
  std::string golden_dir;   // committed oracle outputs, one file per program
};

using Workload = std::vector<Unit>;

// Returns no units (and sets *error) for an unknown workload or a missing
// golden file.
Workload make_workload(const WorkloadOptions& options, std::string* error);

// Regenerate the golden stdout of the seven Vessel programs from the
// tree-walking interpreter oracle (Native mode).
bool write_golden(const std::string& dir, bool tiny);

}  // namespace perfbench
