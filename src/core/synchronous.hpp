#pragma once
// Synchronous (classical, parallel) update engine (DESIGN.md S3).
//
// All nodes read the time-t configuration and write time t+1 — the paper's
// "classical, concurrent CA" where every node updates logically
// simultaneously. Implemented with double buffering: reads go only to the
// front buffer, writes only to the back buffer.

#include <cstdint>

#include "core/automaton.hpp"
#include "core/configuration.hpp"

namespace tca::core {

/// One global parallel step: out := F(in). `out` must have in.size() cells;
/// `&in != &out` is required (double buffering).
void step_synchronous(const Automaton& a, const Configuration& in,
                      Configuration& out);

/// Convenience: returns F(in).
[[nodiscard]] Configuration step_synchronous(const Automaton& a,
                                             const Configuration& in);

/// Advances `c` by `steps` parallel steps in place (internally swaps two
/// buffers).
void advance_synchronous(const Automaton& a, Configuration& c,
                         std::uint64_t steps);

/// True if c is a fixed point of the parallel map (F(c) == c).
[[nodiscard]] bool is_fixed_point_synchronous(const Automaton& a,
                                              const Configuration& c);

}  // namespace tca::core
