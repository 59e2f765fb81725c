// Unit tests for the de Bruijn transfer-matrix preimage solver
// (src/phasespace/preimage.hpp), cross-validated against explicit
// phase-space in-degrees.

#include <gtest/gtest.h>

#include "core/automaton.hpp"
#include "core/synchronous.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/preimage.hpp"

namespace tca::phasespace {
namespace {

using core::Automaton;
using core::Boundary;
using core::Configuration;
using core::Memory;

TEST(Preimage, WindowTableMatchesRule) {
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  // Window bits MSB-first (left, self, right): 0b110 -> maj(1,1,0) = 1.
  EXPECT_EQ(solver.window_output(0b110), 1);
  EXPECT_EQ(solver.window_output(0b100), 0);
  EXPECT_EQ(solver.window_output(0b111), 1);
  EXPECT_EQ(solver.window_output(0b000), 0);
}

TEST(Preimage, MemorylessDropsMiddleCell) {
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWithout);
  // Window (l, s, r) = (1, 0, 1): memoryless majority of {1,1} = 1.
  EXPECT_EQ(solver.window_output(0b101), 1);
  // (1, 1, 0): majority of {1, 0} with tie->0 = 0.
  EXPECT_EQ(solver.window_output(0b110), 0);
}

TEST(Preimage, RejectsBadArguments) {
  EXPECT_THROW(RingPreimageSolver(rules::majority(), 0, Memory::kWith),
               std::invalid_argument);
  EXPECT_THROW(RingPreimageSolver(rules::majority(), 4, Memory::kWith),
               std::invalid_argument);
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  EXPECT_THROW((void)solver.count(Configuration(2)), std::invalid_argument);
}

// Counts must equal the in-degrees of the explicit phase space, for every
// target, across rules and ring sizes.
class PreimageCrossValidation
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static rules::Rule rule_for(int id) {
    switch (id) {
      case 0: return rules::majority();
      case 1: return rules::parity();
      case 2: return rules::Rule{rules::wolfram(110)};
      case 3: return rules::Rule{rules::wolfram(30)};
      default: return rules::Rule{rules::KOfNRule{1}};
    }
  }
};

TEST_P(PreimageCrossValidation, CountsMatchExplicitInDegrees) {
  const auto [rule_id, n] = GetParam();
  const auto rule = rule_for(rule_id);
  const auto a = Automaton::line(static_cast<std::size_t>(n), 1,
                                 Boundary::kRing, rule, Memory::kWith);
  const auto fg = FunctionalGraph::synchronous(a);
  const auto indeg = in_degrees(fg);
  const RingPreimageSolver solver(rule, 1, Memory::kWith);
  for (StateCode s = 0; s < fg.num_states(); ++s) {
    const auto target =
        Configuration::from_bits(s, static_cast<std::size_t>(n));
    EXPECT_EQ(solver.count(target), indeg[s])
        << "rule " << rule_id << " n " << n << " state " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RulesAndSizes, PreimageCrossValidation,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(3, 5, 8, 11)));

TEST(Preimage, RadiusTwoCrossValidation) {
  const auto rule = rules::majority();
  const std::size_t n = 9;
  const auto a = Automaton::line(n, 2, Boundary::kRing, rule, Memory::kWith);
  const auto fg = FunctionalGraph::synchronous(a);
  const auto indeg = in_degrees(fg);
  const RingPreimageSolver solver(rule, 2, Memory::kWith);
  for (StateCode s = 0; s < fg.num_states(); ++s) {
    EXPECT_EQ(solver.count(Configuration::from_bits(s, n)), indeg[s]) << s;
  }
}

TEST(Preimage, ConservationSumEqualsTwoToN) {
  // Sum of preimage counts over all targets must be 2^n (F is a function).
  const RingPreimageSolver solver(rules::Rule{rules::wolfram(90)}, 1,
                                  Memory::kWith);
  const std::size_t n = 10;
  std::uint64_t total = 0;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    total += solver.count(Configuration::from_bits(bits, n));
  }
  EXPECT_EQ(total, std::uint64_t{1} << n);
}

TEST(Preimage, GardenOfEdenDetection) {
  // For two-cell... smallest interesting: majority ring n=4; states with an
  // isolated 1 adjacent to nothing cannot be produced? Verify against the
  // classifier's in-degree-0 states.
  const std::size_t n = 8;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  const auto fg = FunctionalGraph::synchronous(a);
  const auto indeg = in_degrees(fg);
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  std::uint64_t expected_goe = 0;
  for (StateCode s = 0; s < fg.num_states(); ++s) {
    const bool goe = solver.is_garden_of_eden(Configuration::from_bits(s, n));
    EXPECT_EQ(goe, indeg[s] == 0) << s;
    if (indeg[s] == 0) ++expected_goe;
  }
  EXPECT_EQ(count_gardens_of_eden_ring(solver, n), expected_goe);
}

TEST(Preimage, EnumerateMatchesCountAndSteps) {
  const std::size_t n = 10;
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  for (const char* target_str :
       {"0000000000", "1111100000", "0110011001", "1111111111"}) {
    const auto target = Configuration::from_string(target_str);
    const auto count = solver.count(target);
    const auto preimages = solver.enumerate(target, 1u << 12);
    EXPECT_EQ(preimages.size(), count) << target_str;
    for (const auto& x : preimages) {
      EXPECT_EQ(core::step_synchronous(a, x), target)
          << x.to_string() << " is not a preimage of " << target_str;
    }
  }
}

TEST(Preimage, EnumerateRespectsLimit) {
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  const auto target = Configuration::from_string("0000000000");
  const auto limited = solver.enumerate(target, 3);
  EXPECT_EQ(limited.size(), 3u);
}

TEST(Preimage, LargeRingScalesLinearly) {
  // n = 4096 would need a 2^4096-state phase space; the transfer matrix
  // answers in O(n) matrix products.
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  const std::size_t n = 4096;
  Configuration zero(n);
  EXPECT_GT(solver.count(zero), 0u);
  // A single isolated 1 at position i is produced by the "101" hat around
  // it, optionally decorated with far-away isolated 1s that die in the
  // same step. Check the structure at n = 10 (4 such preimages), then ask
  // the same question at n = 4096 where the decoration count explodes.
  {
    const std::size_t small_n = 10;
    Configuration small_lonely(small_n);
    small_lonely.set(5, 1);
    const auto preimages = solver.enumerate(small_lonely, 16);
    EXPECT_EQ(preimages.size(), 4u);
    Configuration hat(small_n);
    hat.set(4, 1);
    hat.set(6, 1);
    bool found_hat = false;
    for (const auto& x : preimages) {
      if (x == hat) found_hat = true;
    }
    EXPECT_TRUE(found_hat);
  }
  Configuration lonely(n);
  lonely.set(2048, 1);
  EXPECT_GT(solver.count(lonely), std::uint64_t{1} << 32);
  // The alternating blinker state has in-degree exactly 1 (its two-cycle
  // partner; "cycles have no incoming transients").
  Configuration alt(n);
  for (std::size_t i = 1; i < n; i += 2) alt.set(i, 1);
  EXPECT_EQ(solver.count(alt), 1u);
}

TEST(FixedPointCount, MatchesExplicitCensus) {
  // Transfer-matrix fixed-point counts vs exhaustive classification.
  for (const auto& rule : {rules::majority(), rules::parity(),
                           rules::Rule{rules::wolfram(110)}}) {
    const RingPreimageSolver solver(rule, 1, Memory::kWith);
    for (const std::size_t n : {4u, 7u, 10u, 13u}) {
      const auto a = Automaton::line(n, 1, Boundary::kRing, rule,
                                     Memory::kWith);
      const auto cls = classify(FunctionalGraph::synchronous(a));
      EXPECT_EQ(count_fixed_points_ring(solver, n), cls.num_fixed_points)
          << rules::describe(rule) << " n=" << n;
    }
  }
}

TEST(FixedPointCount, RadiusTwoMatchesCensus) {
  const RingPreimageSolver solver(rules::majority(), 2, Memory::kWith);
  for (const std::size_t n : {5u, 8u, 11u}) {
    const auto a = Automaton::line(n, 2, Boundary::kRing, rules::majority(),
                                   Memory::kWith);
    const auto cls = classify(FunctionalGraph::synchronous(a));
    EXPECT_EQ(count_fixed_points_ring(solver, n), cls.num_fixed_points) << n;
  }
}

TEST(FixedPointCount, LargeRingLucasLikeGrowth) {
  // Majority fixed points on rings are configurations with no isolated
  // run of length 1 — a local constraint, so the count follows a linear
  // recurrence; just sanity-check growth and feasibility at n = 4096.
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  const auto fp60 = count_fixed_points_ring(solver, 60);
  const auto fp61 = count_fixed_points_ring(solver, 61);
  EXPECT_GT(fp60, std::uint64_t{1} << 40);  // plenty of striped FPs
  EXPECT_LT(fp60, kSaturated);
  EXPECT_GT(fp61, fp60);
  EXPECT_EQ(count_fixed_points_ring(solver, 4096), kSaturated);
}

TEST(FixedPointCount, RingTooSmallThrows) {
  const RingPreimageSolver solver(rules::majority(), 2, Memory::kWith);
  EXPECT_THROW((void)count_fixed_points_ring(solver, 4),
               std::invalid_argument);
}

TEST(PeriodTwoCount, MatchesExplicitCensus) {
  // trace(M_pair^n) counts states of period dividing 2: FPs + 2-cycle
  // states. Cross-checked against exhaustive classification.
  for (const auto& rule : {rules::majority(), rules::parity(),
                           rules::Rule{rules::wolfram(110)}}) {
    const RingPreimageSolver solver(rule, 1, Memory::kWith);
    for (const std::size_t n : {4u, 6u, 9u, 12u}) {
      const auto a = Automaton::line(n, 1, Boundary::kRing, rule,
                                     Memory::kWith);
      const auto cls = classify(FunctionalGraph::synchronous(a));
      std::uint64_t expected = cls.num_fixed_points;
      // Count states on proper cycles of period exactly 2.
      for (const auto& attractor : cls.attractors) {
        if (attractor.period == 2) expected += 2;
      }
      EXPECT_EQ(count_period_two_states_ring(solver, n), expected)
          << rules::describe(rule) << " n=" << n;
    }
  }
}

TEST(PeriodTwoCount, RadiusTwoMatchesCensus) {
  const RingPreimageSolver solver(rules::majority(), 2, Memory::kWith);
  for (const std::size_t n : {8u, 12u}) {
    const auto a = Automaton::line(n, 2, Boundary::kRing, rules::majority(),
                                   Memory::kWith);
    const auto cls = classify(FunctionalGraph::synchronous(a));
    std::uint64_t expected = cls.num_fixed_points;
    for (const auto& attractor : cls.attractors) {
      if (attractor.period == 2) expected += 2;
    }
    EXPECT_EQ(count_period_two_states_ring(solver, n), expected) << n;
  }
}

TEST(PeriodTwoCount, ExactlyTwoCycleStatesOnHugeRings) {
  // Lemma 1's two-cycle is THE only proper cycle even on rings explicit
  // methods could never touch (2^90 states): period-2-dividing minus
  // fixed points == 2 at n = 90 (even) and == 0 at n = 91 (odd). The
  // counts themselves are ~phi^n, just below the 64-bit saturation cap.
  const RingPreimageSolver solver(rules::majority(), 1, Memory::kWith);
  for (const std::size_t n : {90u, 91u}) {
    const auto fixed = count_fixed_points_ring(solver, n);
    const auto period2 = count_period_two_states_ring(solver, n);
    ASSERT_NE(fixed, kSaturated) << n;
    ASSERT_NE(period2, kSaturated) << n;
    EXPECT_EQ(period2 - fixed, n % 2 == 0 ? 2u : 0u) << n;
  }
}

TEST(PeriodTwoCount, RejectsRadiusThree) {
  const RingPreimageSolver solver(rules::majority(), 3, Memory::kWith);
  EXPECT_THROW((void)count_period_two_states_ring(solver, 16),
               std::invalid_argument);
}

TEST(Preimage, SaturationReporting) {
  // All-zero target under the constant-0 rule has ALL 2^n preimages;
  // for n = 80 that exceeds 2^64 and must report kSaturated.
  const RingPreimageSolver solver(rules::Rule{rules::KOfNRule{99}}, 1,
                                  Memory::kWith);
  Configuration zero(80);
  EXPECT_EQ(solver.count(zero), kSaturated);
  // At n = 32 the exact count 2^32 fits.
  Configuration zero32(32);
  EXPECT_EQ(solver.count(zero32), std::uint64_t{1} << 32);
}

}  // namespace
}  // namespace tca::phasespace
