#pragma once
// Trajectory analysis for deterministic update maps (DESIGN.md S3).
//
// A deterministic map F over configurations (a synchronous step, a full
// sequential sweep, or a block-sequential sweep) generates a rho-shaped
// orbit from any start: `transient` steps lead into a cycle of length
// `period` (period 1 = fixed point; the paper's Definition 3 kinds).
//
// Two detectors are provided:
//  * Brent's algorithm — O(transient + period) time, O(1) configurations of
//    memory; the default.
//  * A hashing tracer that records every visited configuration — O(t+p)
//    memory, used when the visited states themselves are wanted.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/automaton.hpp"
#include "core/configuration.hpp"

namespace tca::core {

/// A deterministic successor map over configurations.
using StepFn = std::function<Configuration(const Configuration&)>;

/// Shape of a deterministic orbit.
struct Orbit {
  std::uint64_t transient = 0;  ///< steps before entering the cycle
  std::uint64_t period = 0;     ///< cycle length (1 = fixed point)
  Configuration entry;          ///< first configuration on the cycle
};

/// Finds the orbit of `start` under `step` with Brent's algorithm.
/// Returns std::nullopt if no repeat is found within `max_steps`
/// applications of `step` (cannot happen if 2^cells <= max_steps).
[[nodiscard]] std::optional<Orbit> find_orbit(const StepFn& step,
                                              const Configuration& start,
                                              std::uint64_t max_steps);

/// Orbit under the synchronous (parallel) global map.
[[nodiscard]] std::optional<Orbit> find_orbit_synchronous(
    const Automaton& a, const Configuration& start, std::uint64_t max_steps);

/// Orbit under one-full-sweep-of-permutation-`order` as the step map.
[[nodiscard]] std::optional<Orbit> find_orbit_sweep(
    const Automaton& a, const Configuration& start,
    std::span<const NodeId> order, std::uint64_t max_steps);

/// Full trace: all visited configurations plus the orbit shape.
struct Trace {
  std::vector<Configuration> states;  ///< states[0] = start; size = t + p
  std::uint64_t transient = 0;
  std::uint64_t period = 0;
};

/// Iterates `step` recording states until the first repeat (hash map).
/// Returns std::nullopt if no repeat within `max_states` states.
[[nodiscard]] std::optional<Trace> trace_orbit(const StepFn& step,
                                               const Configuration& start,
                                               std::uint64_t max_states);

/// StepFn adapters.
[[nodiscard]] StepFn synchronous_step_fn(const Automaton& a);
[[nodiscard]] StepFn sweep_step_fn(const Automaton& a,
                                   std::vector<NodeId> order);

}  // namespace tca::core
