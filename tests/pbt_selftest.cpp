// The harness testing the harness (src/testing/): generator determinism,
// serialization round-trips, shrinker minimality on planted failures, and
// the acceptance gate for the whole subsystem — a deliberately broken
// engine (threshold comparison flipped from >= to >) must be CAUGHT by the
// property run, shrunk to a counterexample of <= 8 nodes, and reported
// with a one-line seeded repro command that regenerates the failure.

#include <gtest/gtest.h>

#include <bit>
#include <iostream>

#include "core/synchronous.hpp"
#include "graph/builders.hpp"
#include "testing/case.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/runner.hpp"
#include "testing/shrink.hpp"

namespace tca::testing {
namespace {

using core::Configuration;

TEST(Generators, DeterministicUnderSeed) {
  const CaseOptions options;
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const auto a = random_case(seed, options);
    const auto b = random_case(seed, options);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
  EXPECT_NE(random_case(1, options), random_case(2, options));
}

TEST(Generators, CasesAreValidAutomata) {
  for (const auto& oracle : oracles()) {
    for (std::uint64_t i = 0; i < 25; ++i) {
      const auto c = random_case(mix_seed(0xBA5Eu, i), oracle.options);
      ASSERT_LE(c.n, 64u);
      // Materialization must never throw: arity-validated per node.
      const auto a = c.automaton();
      EXPECT_EQ(a.size(), c.n);
      EXPECT_EQ(c.configuration().size(), c.n);
    }
  }
}

TEST(Generators, DefaultRunReachesTheEmptyAutomaton) {
  // n = 0 (no nodes, one state) is a real input: the default run of every
  // oracle over the full substrate family must include it.
  bool seen = false;
  for (std::uint64_t i = 0; i < kDefaultCases; ++i) {
    const std::uint64_t seed = i == 0 ? kDefaultSeed : mix_seed(kDefaultSeed, i);
    seen = seen || random_case(seed, CaseOptions{}).n == 0;
  }
  EXPECT_TRUE(seen);
}

TEST(Generators, BipartiteEnvelopeHoldsPreconditions) {
  CaseOptions options;
  options.substrate = CaseOptions::SubstrateClass::kBipartite;
  for (std::uint64_t i = 0; i < 25; ++i) {
    const auto c = random_case(mix_seed(0xB1Bu, i), options);
    EXPECT_EQ(c.memory, core::Memory::kWithout);
    ASSERT_EQ(c.rule.kind, RuleSpec::Kind::kKOfN);
    const auto g = c.space();
    graph::NodeId min_deg = g.degree(0);
    for (graph::NodeId v = 1; v < c.n; ++v) {
      min_deg = std::min(min_deg, g.degree(v));
    }
    EXPECT_GE(min_deg, 1u);
    EXPECT_LE(c.rule.k, min_deg);
  }
}

TEST(Case, SerializeRoundTrips) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto c = random_case(mix_seed(0x5E71Au, i), CaseOptions{});
    const auto back = TestCase::deserialize(c.serialize());
    EXPECT_EQ(c, back) << c.serialize();
  }
}

TEST(Case, DeserializeRejectsGarbage) {
  EXPECT_THROW(TestCase::deserialize("n=3"), std::invalid_argument);
  EXPECT_THROW(TestCase::deserialize("v1;n=oops"), std::invalid_argument);
  EXPECT_THROW(TestCase::deserialize("v1;rule=frob"), std::invalid_argument);
  EXPECT_THROW(TestCase::deserialize("v1;edges=1"), std::invalid_argument);
}

TEST(Shrink, RemoveNodeRemapsEdgesAndConfig) {
  TestCase c;
  c.n = 4;
  c.edges = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  c.config_bits = 0b1011;  // cells 0,1,3 live
  const auto r = remove_node(c, 1);
  EXPECT_EQ(r.n, 3u);
  // Edges through node 1 vanish; ids above 1 shift down.
  EXPECT_EQ(r.edges, (std::vector<graph::Edge>{{1, 2}, {0, 2}}));
  // Config bit 1 spliced out: live cells 0 and 3 become 0 and 2.
  EXPECT_EQ(r.config_bits, 0b101u);
}

TEST(Shrink, PlantedFailureShrinksToMinimal) {
  // Fails iff some edge AND some live cell survive — the minimal failing
  // case is two connected nodes with exactly one live cell and one step.
  const Property planted = [](const TestCase& tc) {
    if (!tc.edges.empty() && (tc.config_bits & ((std::uint64_t{1} << tc.n) - 1)) != 0) {
      return PropertyResult::fail("edge + live cell");
    }
    return PropertyResult::pass();
  };
  TestCase big = random_case(0xC0DEu, CaseOptions{});
  big.n = 10;
  big.edges = graph::ring(10).edges();
  big.config_bits = 0x2ADu;
  ASSERT_FALSE(planted(big).ok);

  ShrinkStats stats;
  const auto small = shrink(big, planted, &stats);
  EXPECT_EQ(small.n, 2u);
  EXPECT_EQ(small.edges.size(), 1u);
  EXPECT_EQ(std::popcount(small.config_bits), 1);
  EXPECT_EQ(small.steps, 1u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_FALSE(planted(small).ok) << "shrunk case must still fail";
}

// ---------------------------------------------------------------------------
// Acceptance gate: a mutated engine is caught, shrunk, and reproducible.
// ---------------------------------------------------------------------------

/// A deliberately broken synchronous step for k-of-n automata: the
/// threshold comparison is flipped from `ones >= k` to `ones > k`.
Configuration broken_step(const TestCase& tc) {
  const auto a = tc.automaton();
  const auto in = tc.configuration();
  Configuration out(a.size());
  for (core::NodeId v = 0; v < a.size(); ++v) {
    std::uint32_t ones = 0;
    for (const auto u : a.inputs(v)) {
      ones += u == core::kConstZero ? 0u : in.get(u);
    }
    out.set(v, ones > tc.rule.k ? 1 : 0);  // BUG: should be >=
  }
  return out;
}

Oracle broken_engine_oracle() {
  CaseOptions threshold;
  threshold.rules = CaseOptions::RuleClass::kThreshold;
  return Oracle{
      "broken-engine", "BrokenEngine", threshold, [](const TestCase& tc) {
        if (tc.rule.kind != RuleSpec::Kind::kKOfN) {
          return PropertyResult::pass();
        }
        const auto a = tc.automaton();
        Configuration correct(a.size());
        core::step_synchronous(a, tc.configuration(), correct);
        const auto mutant = broken_step(tc);
        if (mutant != correct) {
          return PropertyResult::fail("mutant engine diverges: " +
                                      mutant.to_string() + " vs " +
                                      correct.to_string());
        }
        return PropertyResult::pass();
      }};
}

TEST(MutationAcceptance, BrokenThresholdComparisonIsCaughtAndShrunk) {
  const auto oracle = broken_engine_oracle();
  RunOptions options;  // fixed default seed: deterministic
  const auto failure = check_property(oracle, options);
  ASSERT_TRUE(failure.has_value())
      << "the harness must catch a flipped threshold comparison";

  // Shrunk counterexample is tiny and still failing.
  EXPECT_LE(failure->shrunk.n, 8u);
  EXPECT_FALSE(oracle.check(failure->shrunk).ok);

  // One-line seeded repro: re-seeding with the printed case seed
  // regenerates the original failing case as case 0 of a 1-case run.
  EXPECT_NE(failure->repro.find("TCA_PBT_SEED="), std::string::npos);
  EXPECT_NE(failure->repro.find("TCA_PBT_CASES=1"), std::string::npos);
  EXPECT_EQ(random_case(failure->case_seed, oracle.options),
            failure->original);

  // The exact-replay path accepts the serialized shrunk case.
  RunOptions replay;
  replay.repro = failure->shrunk.serialize();
  const auto replayed = check_property(oracle, replay);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_LE(replayed->shrunk.n, failure->shrunk.n);

  // Print the full report once so the acceptance artifact is visible in
  // test logs.
  std::cout << "[mutation acceptance] " << failure->report() << "\n";
}

TEST(Runner, PassingOracleReportsNoFailure) {
  // engines-agree over the real engines passes on the default seeds.
  const Oracle* oracle = find_oracle("engines-agree");
  ASSERT_NE(oracle, nullptr);
  RunOptions options;
  options.num_cases = 10;
  EXPECT_FALSE(check_property(*oracle, options).has_value());
}

TEST(Runner, EnvReproRunsExactCase) {
  const Oracle* oracle = find_oracle("engines-agree");
  ASSERT_NE(oracle, nullptr);
  RunOptions options;
  options.repro = random_case(0xAB1Eu, oracle->options).serialize();
  EXPECT_FALSE(check_property(*oracle, options).has_value());
}

}  // namespace
}  // namespace tca::testing
