// Integration tests: the paper's formal results verified end-to-end across
// modules (engines x phase spaces x energy certificates), plus
// cross-validation of all engine implementations against each other.

#include <gtest/gtest.h>

#include <random>

#include "analysis/census.hpp"
#include "analysis/energy.hpp"
#include "core/automaton.hpp"
#include "core/block_sequential.hpp"
#include "core/packed_kernels.hpp"
#include "core/schedule.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "core/trajectory.hpp"
#include "graph/builders.hpp"
#include "graph/properties.hpp"
#include "phasespace/choice_digraph.hpp"
#include "phasespace/classify.hpp"
#include "rules/enumerate.hpp"

namespace tca {
namespace {

using core::Automaton;
using core::Boundary;
using core::Configuration;
using core::Memory;

Automaton majority_ring(std::size_t n, std::uint32_t r = 1) {
  return Automaton::line(n, r, Boundary::kRing, rules::majority(),
                         Memory::kWith);
}

// ---------------------------------------------------------------- Lemma 1

TEST(Lemma1, PartI_ParallelMajorityHasTwoCycle) {
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u, 16u, 20u}) {
    const auto a = majority_ring(n);
    Configuration alt(n);
    for (std::size_t i = 1; i < n; i += 2) alt.set(i, 1);
    Configuration other = core::step_synchronous(a, alt);
    EXPECT_NE(other, alt) << n;
    EXPECT_EQ(core::step_synchronous(a, other), alt) << n;
  }
}

TEST(Lemma1, PartII_SequentialMajorityCycleFreeAllOrders) {
  // SCC over the full nondeterministic choice digraph: no directed cycle
  // through >= 2 states exists, so NO update sequence can ever cycle.
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u, 14u}) {
    const phasespace::ChoiceDigraph g(majority_ring(n));
    EXPECT_FALSE(phasespace::analyze(g).has_proper_cycle()) << n;
  }
}

TEST(Lemma1, PartII_RandomFairSchedulesConvergeOnLargerRings) {
  // Beyond explicit phase spaces: n = 24, many random schedules, always a
  // fixed point within the energy bound.
  const std::size_t n = 24;
  const auto a = majority_ring(n);
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    Configuration c(n);
    for (std::size_t i = 0; i < n; ++i) {
      c.set(i, static_cast<core::State>(rng() & 1u));
    }
    core::RandomSweepSchedule schedule(n, rng());
    const auto updates = core::run_schedule_to_fixed_point(a, c, schedule,
                                                           1000 * n);
    ASSERT_TRUE(updates.has_value()) << "trial " << trial;
    EXPECT_TRUE(core::is_fixed_point_sequential(a, c));
  }
}

// ---------------------------------------------------------------- Theorem 1

TEST(Theorem1, AllMonotoneSymmetricSequentialRulesAreCycleFree) {
  // Every monotone symmetric rule of arity 3 (radius 1 with memory), every
  // ring size up to 10: the choice digraph has no proper cycles.
  for (const auto& rule : rules::all_monotone_symmetric(3)) {
    for (const std::size_t n : {3u, 5u, 8u, 10u}) {
      const auto a = Automaton::line(n, 1, Boundary::kRing, rules::Rule{rule},
                                     Memory::kWith);
      const phasespace::ChoiceDigraph g(a);
      EXPECT_FALSE(phasespace::analyze(g).has_proper_cycle())
          << rules::describe(rules::Rule{rule}) << " n=" << n;
    }
  }
}

TEST(Theorem1, NonMonotoneRuleBreaksTheConclusion) {
  // Control: parity (symmetric but NOT monotone) does cycle sequentially.
  const auto a = Automaton::from_graph(graph::complete(2), rules::parity(),
                                       Memory::kWith);
  EXPECT_TRUE(phasespace::analyze(phasespace::ChoiceDigraph(a))
                  .has_proper_cycle());
}

TEST(Theorem1, EnergyCertificateAgreesWithSccCertificate) {
  // Both proofs of cycle-freeness executed on the same systems: the SCC
  // check (exhaustive over the choice digraph) and the strict-decrease
  // Lyapunov argument (exhaustive over states x nodes).
  for (const std::size_t n : {6u, 8u}) {
    const auto net =
        analysis::ThresholdNetwork::majority(graph::ring(n), true);
    const auto a = net.automaton();
    // (a) SCC certificate.
    EXPECT_FALSE(phasespace::analyze(phasespace::ChoiceDigraph(a))
                     .has_proper_cycle());
    // (b) Energy certificate: any changing update drops E by >= 1.
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
      const auto c = Configuration::from_bits(bits, n);
      const auto before = analysis::sequential_energy(net, c);
      for (graph::NodeId v = 0; v < n; ++v) {
        auto d = c;
        if (core::update_node(a, d, v)) {
          EXPECT_LE(analysis::sequential_energy(net, d), before - 1);
        }
      }
    }
  }
}

// ---------------------------------------------------------------- Lemma 2

TEST(Lemma2, PartI_RadiusTwoParallelTwoCycle) {
  // r = 2: blocks of 00 11 alternate (period-2 under 3-of-5 majority).
  for (const std::size_t n : {8u, 12u, 16u}) {
    const auto a = majority_ring(n, 2);
    Configuration c(n);
    for (std::size_t i = 0; i < n; ++i) {
      if ((i / 2) % 2 == 1) c.set(i, 1);  // 0011 0011 ...
    }
    const auto orbit = core::find_orbit_synchronous(a, c, 64);
    ASSERT_TRUE(orbit.has_value()) << n;
    EXPECT_EQ(orbit->transient, 0u) << n;
    EXPECT_EQ(orbit->period, 2u) << n;
  }
}

TEST(Lemma2, PartII_RadiusTwoSequentialCycleFree) {
  for (const std::size_t n : {5u, 8u, 11u, 13u}) {
    const phasespace::ChoiceDigraph g(majority_ring(n, 2));
    EXPECT_FALSE(phasespace::analyze(g).has_proper_cycle()) << n;
  }
}

// ------------------------------------------------------------- Corollary 1

TEST(Corollary1, EveryRadiusHasATwoCycle) {
  // (0^r 1^r)^* is a two-cycle for radius-r MAJORITY on suitable rings.
  for (const std::uint32_t r : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const std::size_t n = 4 * r;  // two full 0^r 1^r blocks
    const auto a = majority_ring(n, r);
    Configuration c(n);
    for (std::size_t i = 0; i < n; ++i) {
      if ((i / r) % 2 == 1) c.set(i, 1);
    }
    const auto orbit = core::find_orbit_synchronous(a, c, 16);
    ASSERT_TRUE(orbit.has_value()) << "r=" << r;
    EXPECT_EQ(orbit->period, 2u) << "r=" << r;
    EXPECT_EQ(orbit->transient, 0u) << "r=" << r;
  }
}

TEST(Corollary1, OddRadiusHasASecondDistinctTwoCycle) {
  // For odd r the single-cell-alternating configuration (01)^* is ALSO a
  // two-cycle, distinct from the block cycle (paper: "at least two
  // distinct two-cycles").
  for (const std::uint32_t r : {1u, 3u, 5u}) {
    const std::size_t n = 4 * r + (r == 1 ? 4 : 0);  // even, >= 2r+1
    const auto a = majority_ring(n, r);
    Configuration alt(n);
    for (std::size_t i = 1; i < n; i += 2) alt.set(i, 1);
    const auto orbit = core::find_orbit_synchronous(a, alt, 16);
    ASSERT_TRUE(orbit.has_value()) << "r=" << r;
    EXPECT_EQ(orbit->period, 2u) << "r=" << r;
  }
}

// ---------------------------------------------------------- Proposition 1

TEST(Proposition1, ParallelThresholdPeriodsAreAtMostTwo) {
  // Exhaustive over all configurations for several rings and thresholds:
  // F^{t+2} = F^t eventually; equivalently every attractor period <= 2.
  for (const std::size_t n : {8u, 10u, 12u}) {
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      const auto a = Automaton::line(n, 1, Boundary::kRing,
                                     rules::Rule{rules::KOfNRule{k}},
                                     Memory::kWith);
      const auto cls = phasespace::classify(
          phasespace::FunctionalGraph::synchronous(a));
      EXPECT_LE(cls.max_period(), 2u) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Proposition1, HoldsOnNonRingCellularSpaces) {
  for (const auto& g :
       {graph::grid2d(3, 4), graph::hypercube(3), graph::complete_bipartite(3, 3),
        graph::ring(12, 2)}) {
    const auto a = Automaton::from_graph(g, rules::majority(), Memory::kWith);
    const auto cls =
        phasespace::classify(phasespace::FunctionalGraph::synchronous(a));
    EXPECT_LE(cls.max_period(), 2u) << g.summary();
  }
}

TEST(Proposition1, ParityViolatesIt) {
  // Control: parity is not a threshold rule, and indeed has cycles of
  // period > 2 (period 3 on the 5-ring, period 7 on the 7-ring).
  for (const std::size_t n : {5u, 7u}) {
    const auto a = Automaton::line(n, 1, Boundary::kRing, rules::parity(),
                                   Memory::kWith);
    const auto cls =
        phasespace::classify(phasespace::FunctionalGraph::synchronous(a));
    EXPECT_GT(cls.max_period(), 2u) << n;
  }
}

// ---------------------------------- Bipartite extension (Section 3.2 end)

TEST(BipartiteExtension, ThresholdCAOnBipartiteSpacesHaveTwoCycles) {
  // 2D grids (tori), hypercubes, complete bipartite graphs: set one side of
  // the bipartition to 1 — majority flips sides every step.
  for (const auto& g : {graph::grid2d(4, 4, true), graph::hypercube(3),
                        graph::complete_bipartite(3, 3)}) {
    const auto coloring = graph::bipartition(g);
    ASSERT_TRUE(coloring.has_value()) << g.summary();
    const auto a = Automaton::from_graph(g, rules::majority(), Memory::kWith);
    Configuration c(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if ((*coloring)[v] == 1) c.set(v, 1);
    }
    const auto orbit = core::find_orbit_synchronous(a, c, 16);
    ASSERT_TRUE(orbit.has_value()) << g.summary();
    EXPECT_EQ(orbit->period, 2u) << g.summary();
  }
}

// --------------------------------------------- Engine cross-validation

TEST(EngineCrossValidation, AllSynchronousImplementationsAgree) {
  const std::size_t n = 193;
  const auto a = majority_ring(n);
  const rules::TableRule majority_table = rules::wolfram(232);
  core::PackedScratch scratch(n);
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Configuration c(n);
    for (std::size_t i = 0; i < n; ++i) {
      c.set(i, static_cast<core::State>(rng() & 1u));
    }
    Configuration generic(n), packed(n);
    core::step_synchronous(a, c, generic);
    core::step_ring_table3_packed(majority_table, c, packed, scratch);
    Configuration block = c;
    core::step_block_sequential(a, block, core::BlockOrder::synchronous(n));
    EXPECT_EQ(generic, packed);
    EXPECT_EQ(generic, block);
  }
}

TEST(EngineCrossValidation, SweepEqualsSingletonBlocks) {
  const std::size_t n = 40;
  const auto a = majority_ring(n);
  std::mt19937_64 rng(5);
  const auto order = core::random_permutation(n, rng);
  Configuration c(n);
  for (std::size_t i = 0; i < n; i += 3) c.set(i, 1);
  Configuration c2 = c;
  core::apply_sequence(a, c, order);
  core::step_block_sequential(a, c2, core::BlockOrder::sequential(order));
  EXPECT_EQ(c, c2);
}

// ---------------------------------------------- Fairness (footnote 2)

TEST(Fairness, BoundedFairSchedulesConvergeUnfairOnesNeedNot) {
  const std::size_t n = 12;
  const auto a = majority_ring(n);
  // Fair: cyclic permutation — converges.
  {
    Configuration c = Configuration::from_string("010101010101");
    core::CyclicSchedule fair(core::identity_order(n));
    EXPECT_TRUE(core::run_schedule_to_fixed_point(a, c, fair, 10000)
                    .has_value());
  }
  // Unfair: starving a node that must change blocks convergence from a
  // state whose only enabled update is that node.
  {
    Configuration c(n);
    c.set(3, 1);  // isolated 1: only node 3 can change
    core::StarvingSchedule unfair(n, 3);
    EXPECT_FALSE(core::run_schedule_to_fixed_point(a, c, unfair, 10000)
                     .has_value());
  }
}

}  // namespace
}  // namespace tca
