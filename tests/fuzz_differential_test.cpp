// Differential fuzzing across engines and invariants, driven by the
// property-based harness (src/testing/): every registered oracle runs over
// seeded random cases, and any failure is delta-debug shrunk to a
// 1-minimal counterexample and reported with a one-line seeded repro
// command. Default seeds are fixed, so CI runs are deterministic;
// set TCA_PBT_SEED / TCA_PBT_CASES to explore, TCA_PBT_REPRO to replay a
// printed failure exactly (see docs/testing.md).
//
// This file replaces the pre-harness monolithic fuzzer. Notable fix over
// that version: its "random symmetric rule" branch silently degenerated to
// parity, so random totalistic rules were never exercised; the harness
// generator draws a genuine random accept mask (RuleSpec::kSymmetric), and
// GeneratorCoversRandomSymmetricRules pins that.

#include <gtest/gtest.h>

#include <set>

#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/runner.hpp"

namespace tca::testing {
namespace {

/// Runs one registry oracle under the env-configurable options and fails
/// with the full shrunk-counterexample report if any case breaks.
void run_oracle(const char* name) {
  const Oracle* oracle = find_oracle(name);
  ASSERT_NE(oracle, nullptr) << "oracle not registered: " << name;
  const auto failure = check_property(*oracle, RunOptions::from_env());
  EXPECT_FALSE(failure.has_value()) << failure->report();
}

// Cross-engine equalities: generic vs monomorphized vs threaded vs
// trivial-block synchronous paths, and the three sequential-sweep paths.
TEST(DifferentialFuzz, EnginesAgree) { run_oracle("engines-agree"); }
TEST(DifferentialFuzz, SweepConsistency) { run_oracle("sweep-consistency"); }

// Theorem-level oracles.
TEST(DifferentialFuzz, ScaNoCycle) { run_oracle("sca-no-cycle"); }
TEST(DifferentialFuzz, ParallelPeriodAtMostTwo) {
  run_oracle("parallel-period-two");
}
TEST(DifferentialFuzz, EnergyDescent) { run_oracle("energy-descent"); }
TEST(DifferentialFuzz, BipartiteTwoCycle) {
  run_oracle("bipartite-two-cycle");
}
TEST(DifferentialFuzz, AcaSubsumption) { run_oracle("aca-subsumption"); }
TEST(DifferentialFuzz, ReachSubsumption) { run_oracle("reach-subsumption"); }

// Robustness oracle: budgets truncate explicit builds into exact,
// well-reported prefixes (docs/robustness.md).
TEST(DifferentialFuzz, BudgetTruncation) { run_oracle("budget-truncation"); }

// Cross-ISA oracle: every compiled-and-available SIMD tier of the wide
// batch engine agrees lane-exactly with the 64-lane scalar bit-slice
// reference on random automata (docs/performance.md).
TEST(DifferentialFuzz, BatchIsaAgree) { run_oracle("batch-isa-agree"); }

// Supervised-equivalence oracle: a supervised build absorbing one
// injected transient failure (seed-rotated start rung) ends bit-identical
// to the fault-free baseline (docs/robustness.md).
TEST(DifferentialFuzz, SupervisedEquivalence) {
  run_oracle("supervised-equivalence");
}

// Service-vs-library oracle: the full in-process tcad request path
// (parse -> canonicalize -> cache -> coalesce -> engine -> JSON) answers
// bit-identically to direct phase-space library calls, and the cached
// replay is byte-identical to the computed response (docs/service.md).
TEST(DifferentialFuzz, ServiceVsLibrary) { run_oracle("service-vs-library"); }

// Storage-backend oracle: the sharded work-stealing build writes a
// bit-identical successor table through both SuccessorStore backends
// (flat / disk-spilled, the latter fresh and truncated-then-resumed),
// across seed-rotated worker counts, shard sizes, and engine rungs, and
// classify summaries derived through each backend agree (docs/performance.md "successor storage
// hierarchy").
TEST(DifferentialFuzz, StoreBackendAgree) { run_oracle("store-backend-agree"); }

// The registry and this file must not drift apart: every registered oracle
// has a TEST above (checked by name).
TEST(DifferentialFuzz, EveryRegisteredOracleIsDriven) {
  const std::set<std::string> driven = {
      "engines-agree",     "sweep-consistency",   "sca-no-cycle",
      "parallel-period-two", "energy-descent",
      "bipartite-two-cycle", "aca-subsumption",
      "reach-subsumption", "budget-truncation", "batch-isa-agree",
      "supervised-equivalence", "service-vs-library", "store-backend-agree"};
  for (const auto& o : oracles()) {
    EXPECT_TRUE(driven.contains(o.name))
        << "oracle '" << o.name << "' is registered but has no fuzz TEST";
  }
  EXPECT_EQ(driven.size(), oracles().size());
}

// The fixed generator actually produces random totalistic rules that are
// NOT parity (the bug the old fuzzer shipped with).
TEST(DifferentialFuzz, GeneratorCoversRandomSymmetricRules) {
  CaseOptions any;
  std::set<std::uint64_t> masks;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto c = random_case(mix_seed(0xFEEDu, i), any);
    if (c.rule.kind == RuleSpec::Kind::kSymmetric) masks.insert(c.rule.bits);
  }
  // Many distinct accept masks, not one degenerate value.
  EXPECT_GE(masks.size(), 10u);
  // And materialized at arity 3 they are not all the parity table 0...0101.
  std::set<std::string> tables;
  for (const auto bits : masks) {
    const auto rule = RuleSpec{RuleSpec::Kind::kSymmetric, 1, bits}
                          .materialize(3);
    tables.insert(rules::describe(rule));
  }
  EXPECT_GE(tables.size(), 5u);
}

}  // namespace
}  // namespace tca::testing
