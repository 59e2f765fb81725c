#pragma once
// Word-parallel kernel for 1-D ring CA (DESIGN.md S3, decision 2).
//
// On a bit-packed ring configuration the synchronous step of any radius-1
// rule processes 64 cells per ALU operation: the left/right neighbor
// columns are whole-vector ring shifts, and an arbitrary radius-1 table
// becomes a sum-of-products over the 8 neighborhood patterns
// (examples/traffic_rule184 runs on it).
//
// The kernel is bit-for-bit equivalent to the generic engine
// (cross-validated by tests/packed_kernels_test.cpp and
// tests/packed_boundary_test.cpp) and implements CA WITH memory on a ring
// (the paper's default).

#include <cstdint>
#include <span>

#include "core/configuration.hpp"
#include "rules/rule.hpp"

namespace tca::core {

/// out bit i := in bit (i-1+n) mod n (the "left neighbor" column).
void ring_shift_up(const Configuration& in, Configuration& out);

/// out bit i := in bit (i+1) mod n (the "right neighbor" column).
void ring_shift_down(const Configuration& in, Configuration& out);

/// Scratch buffers reused across steps (avoid per-step allocation).
struct PackedScratch {
  Configuration left;
  Configuration right;
  explicit PackedScratch(std::size_t n) : left(n), right(n) {}
};

/// Synchronous step of an arbitrary radius-1 TableRule (e.g. a Wolfram
/// elementary rule; inputs ordered left,self,right) on a ring with memory.
/// Sum-of-products over the <= 8 accepting neighborhood patterns.
void step_ring_table3_packed(const rules::TableRule& rule,
                             const Configuration& in, Configuration& out,
                             PackedScratch& scratch);

}  // namespace tca::core
