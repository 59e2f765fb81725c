#pragma once
// Supervised explicit Garden-of-Eden census (docs/robustness.md).
//
// supervised_goe_census runs count_gardens_of_eden_explicit under a
// runtime::Supervisor so that memory pressure or injected faults retry
// one rung down the engine-degradation ladder (wide-SIMD -> batch64 ->
// scalar) instead of failing the workload. Every rung is bit-for-bit
// identical (degradation_ladder_test pins this on the PBT generators),
// so a degraded result IS the result. Supervised phase-space builds are
// supervised_synchronous_sharded (phasespace/sharded_build.hpp).

#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "runtime/supervisor.hpp"

namespace tca::phasespace {

/// A supervised explicit Garden-of-Eden census (any topology, n <= 26).
struct SupervisedGoeCensus {
  GoeCensus census;
  runtime::SupervisorReport report;
};

/// Runs count_gardens_of_eden_explicit under a Supervisor starting at
/// options.start_rung. Transient failures (injected faults, bad_alloc)
/// retry per options.retry, walking the ladder down on pressure; the
/// returned census is from the last attempt.
[[nodiscard]] SupervisedGoeCensus supervised_goe_census(
    const core::Automaton& a, const runtime::SupervisorOptions& options);

}  // namespace tca::phasespace
