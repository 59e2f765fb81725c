#pragma once
// Monomorphized synchronous engine (DESIGN.md decision 1).
//
// The generic engine (synchronous.hpp) resolves the rule variant PER CELL
// (a std::visit inside eval_node). For homogeneous automata the variant
// can be resolved ONCE per step and the cell loop runs with the concrete
// rule type, letting the compiler inline the rule body. Tests verify
// bit-for-bit equivalence with the generic engine.

#include "core/automaton.hpp"
#include "core/configuration.hpp"

namespace tca::core {

/// out := F(in) with the rule variant hoisted out of the cell loop.
/// Falls back to the per-cell path for non-homogeneous automata.
/// Identical results to step_synchronous.
void step_synchronous_fast(const Automaton& a, const Configuration& in,
                           Configuration& out);

/// Advances `c` by `steps` using the monomorphized step.
void advance_synchronous_fast(const Automaton& a, Configuration& c,
                              std::uint64_t steps);

}  // namespace tca::core
