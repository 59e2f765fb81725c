#pragma once
// Preimage counting / enumeration for 1-D ring CA via de Bruijn transfer
// matrices (DESIGN.md S4 extension; the Garden-of-Eden machinery of the
// SDS references [2-6]).
//
// Explicit phase spaces answer "how many predecessors does y have?" only
// up to ~2^26 states. For 1-D rings the question factorizes: a preimage x
// of y is a closed walk in the de Bruijn graph of 2r-cell windows, where
// the step from window (x_{i-r} ... x_{i+r-1}) to (x_{i-r+1} ... x_{i+r})
// is allowed iff the rule maps the full (2r+1)-cell neighborhood to y_i.
// Hence
//     #preimages(y) = trace( M_{y_0} M_{y_1} ... M_{y_{n-1}} ),
// with two 2^{2r} x 2^{2r} 0/1 transfer matrices M_0, M_1 — O(n) matrix
// products instead of O(2^n) search. Gardens of Eden (Definition-3
// unreachable states) are exactly the y with zero trace.
//
// Counts can exceed 2^64 on huge rings; arithmetic saturates at
// `kSaturated` and `count()` reports saturation by returning it.

#include <cstdint>
#include <vector>

#include "core/automaton.hpp"
#include "core/configuration.hpp"
#include "rules/rule.hpp"
#include "runtime/budget.hpp"

namespace tca::phasespace {

/// Saturation sentinel for preimage counts.
inline constexpr std::uint64_t kSaturated = ~std::uint64_t{0};

/// Transfer-matrix preimage solver for radius-r ring CA (left-to-right
/// neighborhoods, matching core::Automaton::line with Boundary::kRing).
/// Supports radius <= 3 (window alphabet up to 64 states).
class RingPreimageSolver {
 public:
  /// `rule` is evaluated over the full (2r+1)-cell window; for memoryless
  /// automata the middle cell is dropped before evaluation, exactly like
  /// Automaton::line(..., Memory::kWithout).
  RingPreimageSolver(const rules::Rule& rule, std::uint32_t radius,
                     core::Memory memory);

  [[nodiscard]] std::uint32_t radius() const noexcept { return radius_; }

  /// Number of configurations x with F(x) == target on the ring of
  /// target.size() cells (requires size >= 2*radius+1). Returns kSaturated
  /// if the count does not fit in 64 bits.
  [[nodiscard]] std::uint64_t count(const core::Configuration& target) const;

  /// True iff `target` has no predecessor under the parallel map.
  [[nodiscard]] bool is_garden_of_eden(const core::Configuration& target) const {
    return count(target) == 0;
  }

  /// Up to `limit` explicit preimages of `target` (DFS over de Bruijn
  /// closed walks with reachability pruning).
  [[nodiscard]] std::vector<core::Configuration> enumerate(
      const core::Configuration& target, std::size_t limit) const;

  /// The rule's output on a full window (bits MSB-first, spatially
  /// left-to-right). Exposed for tests.
  [[nodiscard]] rules::State window_output(std::uint32_t window) const {
    return table_[window];
  }

 private:
  friend std::uint64_t count_fixed_points_ring(const RingPreimageSolver&,
                                               std::size_t);
  friend std::uint64_t count_period_two_states_ring(const RingPreimageSolver&,
                                                    std::size_t);
  [[nodiscard]] std::uint64_t count_fixed_points_impl(std::size_t n) const;
  [[nodiscard]] std::uint64_t count_period_two_impl(std::size_t n) const;

  std::uint32_t radius_;
  std::uint32_t window_bits_;   // 2r
  std::uint32_t window_count_;  // 2^{2r}
  std::vector<rules::State> table_;  // 2^{2r+1} full-window outputs
};

/// Convenience: count Gardens of Eden among ALL 2^n configurations of an
/// n-cell ring by transfer-matrix counting per target (n <= 24 or so;
/// cost O(2^n * n * W^2) with W = 2^{2r} because the product against the
/// all-ones seed replaces full matrix chains).
[[nodiscard]] std::uint64_t count_gardens_of_eden_ring(
    const RingPreimageSolver& solver, std::size_t n);

/// Partial Garden-of-Eden census under a budget: `gardens` counts GoE
/// states among the first `scanned` of the 2^n targets (scan order is
/// ascending state code), with truncation reported instead of running the
/// full exponential scan.
struct GoeCensus {
  std::uint64_t gardens = 0;
  std::uint64_t scanned = 0;
  bool truncated = false;
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
};

/// Budgeted census: charges one state per target scanned and stops cleanly
/// when `control` trips (deadline, state budget, cancellation).
[[nodiscard]] GoeCensus count_gardens_of_eden_ring(
    const RingPreimageSolver& solver, std::size_t n,
    runtime::RunControl& control);

// The whole-space censuses, which enumerate every state instead of
// solving per target, are count_gardens_of_eden in
// phasespace/sharded_build.hpp: the table-free one over an automaton and
// the one over a built SuccessorStore. On rings they must agree with the
// transfer-matrix census above (tested).

/// Number of FIXED POINTS of the parallel map on an n-cell ring, by the
/// same transfer-matrix trick with the constraint "rule output == the
/// window's middle cell" — O(n) matrix products, so exact counts for
/// rings of thousands of cells (saturates past 2^64 - 1). Requires
/// n >= 2*radius + 1.
[[nodiscard]] std::uint64_t count_fixed_points_ring(
    const RingPreimageSolver& solver, std::size_t n);

/// Number of states x with F(F(x)) == x (period dividing 2: fixed points
/// PLUS proper two-cycle states), by a PAIRED transfer matrix over
/// (x-window, y-window) states with the mutual constraints F(x)_i = y_i
/// and F(y)_i = x_i. Subtracting count_fixed_points_ring gives the exact
/// number of proper two-cycle states on arbitrarily large rings — the
/// quantitative engine behind the paper's "very few cycles" remark.
/// Requires radius <= 2 (paired alphabet 4^{2r}).
[[nodiscard]] std::uint64_t count_period_two_states_ring(
    const RingPreimageSolver& solver, std::size_t n);

}  // namespace tca::phasespace
