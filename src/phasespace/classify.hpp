#pragma once
// Classification of deterministic phase spaces (DESIGN.md S4).
//
// Implements the paper's Definition 3 taxonomy over an explicit
// FunctionalGraph: every state is a fixed point (FP), a proper cycle
// configuration (CC, period >= 2), or a transient configuration (TC).
// Additionally computes what the discussion around Fig. 1 and the Section 4
// "rare cycles" remark need: in-degrees, Gardens of Eden (unreachable
// states, in-degree 0), per-attractor basin sizes, and maximum transient
// ("tail") lengths.

#include <cstdint>
#include <map>
#include <vector>

#include "phasespace/functional_graph.hpp"

namespace tca::phasespace {

/// Definition 3 state kinds.
enum class StateKind : std::uint8_t {
  kFixedPoint,  ///< period-1 cycle: F(x) = x
  kCycle,       ///< on a cycle of period >= 2
  kTransient,   ///< never revisited once left
};

/// One attractor (terminal cycle) of the functional graph.
struct Attractor {
  std::uint64_t period = 0;      ///< 1 = fixed point
  StateCode representative = 0;  ///< smallest state code on the cycle
  std::uint64_t basin_size = 0;  ///< states draining here, cycle included
};

/// Full classification of a deterministic phase space.
struct Classification {
  std::vector<StateKind> kind;           ///< per state
  std::vector<std::uint32_t> attractor;  ///< per state: index into attractors
  std::vector<Attractor> attractors;     ///< sorted by representative
  std::uint64_t num_fixed_points = 0;
  std::uint64_t num_cycle_states = 0;  ///< states on proper cycles (p >= 2)
  std::uint64_t num_transient_states = 0;
  std::uint64_t num_gardens_of_eden = 0;  ///< in-degree-0 states
  std::uint64_t max_transient = 0;  ///< longest tail into any attractor
  /// cycle length -> number of distinct cycles of that length
  /// (period 1 entries are fixed points).
  std::map<std::uint64_t, std::uint64_t> cycle_length_histogram;

  /// True if the phase space has any proper cycle (period >= 2) — the
  /// property separating parallel from sequential threshold CA.
  [[nodiscard]] bool has_proper_cycle() const {
    return num_cycle_states > 0;
  }
  /// Largest period over all attractors (0 if no states).
  [[nodiscard]] std::uint64_t max_period() const {
    return cycle_length_histogram.empty()
               ? 0
               : cycle_length_histogram.rbegin()->first;
  }
};

/// Classifies every state of the functional graph in O(num_states) work
/// (docs/performance.md, successor storage hierarchy). Five phases: an
/// image bitmap (the Gardens of Eden), in-degrees counted from image
/// sources and peeled down chains to split transient from cycle states,
/// an ascending walk of the cycle states (ids come out sorted), a
/// memoised labelling chase over the transients, and per-chunk basin
/// reductions. Scratch is about 4 B/state on top of the 5 B/state
/// result.
///
/// Threading: one core::ThreadPool per call, with one worker per 2^20
/// states capped at hardware_concurrency(), so graphs of up to 2^20
/// states run on the calling thread alone. The result is a pure function
/// of the successor table: identical in every field for any worker count.
///
/// Works on both storage backends through FunctionalGraph::succ (flat
/// index or the disk store's shared read mapping); the store must be
/// finalized.
[[nodiscard]] Classification classify(const FunctionalGraph& fg);

/// In-degree of each state (preimage counts under F).
[[nodiscard]] std::vector<std::uint32_t> in_degrees(const FunctionalGraph& fg);

/// Store-generic in-degrees: one sequential streamed pass over any
/// SuccessorStore backend (the surface the service tier and the disk
/// censuses use; the FunctionalGraph overload delegates here).
[[nodiscard]] std::vector<std::uint32_t> in_degrees(
    const SuccessorStore& store);

}  // namespace tca::phasespace
