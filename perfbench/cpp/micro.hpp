#pragma once

// Host-cost loops for the layer rows gbench_primitives does not have.

#include <cstdint>

namespace perfbench {

// Median host ns to construct a Fiber, run it to the end and destroy it.
double fiber_create_ns(int reps);

// Median host us of one 8-page munmap in a native process that holds
// `resident_pages` touched pages; -1 if the guest failed.
double munmap_us(std::uint64_t resident_pages, int reps);

}  // namespace perfbench
