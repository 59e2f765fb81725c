#pragma once
// The invariant/oracle registry (DESIGN.md S10).
//
// An Oracle is a named, machine-checkable property over a TestCase,
// together with the CaseOptions envelope its cases are drawn from. The
// registry covers two kinds of promises:
//
//  * cross-engine equalities — every synchronous engine path
//    (generic / monomorphized / trivial-block block-sequential)
//    computes bit-for-bit the same global map, every sequential path
//    (apply_sequence / singleton blocks / update_node chain) agrees, and
//    every available SIMD tier of the wide batch engine matches the
//    64-lane bit-slice reference lane-exactly (batch-isa-agree);
//
//  * theorem-level invariants — the paper's Theorem 1 (no sequential
//    interleaving of a monotone symmetric threshold CA can cycle),
//    Proposition 1 (parallel threshold CA have period <= 2), the
//    Section 3.2 bipartite two-cycles, the Goles-Martinez energy descent
//    certificate, and the Section 4/5 ACA subsumption of classical and
//    sequential trajectories.
//
// Every check re-validates its preconditions and passes VACUOUSLY when a
// case (typically a shrunk one) leaves its envelope, which is what makes
// the shrinker sound: a reduction is kept only if the property still
// genuinely fails.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "testing/case.hpp"
#include "testing/generators.hpp"

namespace tca::testing {

/// Outcome of one property check on one case.
struct PropertyResult {
  bool ok = true;
  std::string note;  ///< what failed (empty when ok)

  static PropertyResult pass() { return {true, {}}; }
  static PropertyResult fail(std::string why) { return {false, std::move(why)}; }
};

using Property = std::function<PropertyResult(const TestCase&)>;

/// A named property plus its generation envelope.
struct Oracle {
  std::string name;       ///< kebab-case id, e.g. "engines-agree"
  std::string test_name;  ///< gtest suffix used in printed repro filters
  CaseOptions options;
  Property check;
};

/// All registered oracles (built once, in registration order).
[[nodiscard]] const std::vector<Oracle>& oracles();

/// Looks up an oracle by kebab-case name; nullptr if absent.
[[nodiscard]] const Oracle* find_oracle(std::string_view name);

}  // namespace tca::testing
