// Unit tests for deterministic phase spaces (src/phasespace) — including
// the parallel side of the paper's Fig. 1 — and for the multi-worker
// sharded build that every FunctionalGraph facade runs on.

#include <gtest/gtest.h>

#include "core/automaton.hpp"
#include "core/schedule.hpp"
#include "core/synchronous.hpp"
#include "graph/builders.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/sharded_build.hpp"

namespace tca::phasespace {
namespace {

using core::Automaton;
using core::Boundary;
using core::Memory;

Automaton two_node_xor() {
  return Automaton::from_graph(graph::complete(2), rules::parity(),
                               Memory::kWith);
}

Automaton majority_ring(std::size_t n) {
  return Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                         Memory::kWith);
}

TEST(FunctionalGraph, TwoNodeXorSuccessorTable) {
  const auto fg = FunctionalGraph::synchronous(two_node_xor());
  ASSERT_EQ(fg.num_states(), 4u);
  // Encoding: bit 0 = node 0. States: 00=0, 10=1, 01=2, 11=3.
  EXPECT_EQ(fg.succ(0b00), 0b00u);
  EXPECT_EQ(fg.succ(0b01), 0b11u);
  EXPECT_EQ(fg.succ(0b10), 0b11u);
  EXPECT_EQ(fg.succ(0b11), 0b00u);
}

TEST(FunctionalGraph, RejectsTooManyCells) {
  const auto a = majority_ring(30);
  EXPECT_THROW(FunctionalGraph::synchronous(a), std::invalid_argument);
}

TEST(Classify, Fig1aParallelXor) {
  // Fig. 1(a): 00 is the unique fixed point (a sink / stable attractor);
  // every other state is transient; no proper cycles.
  const auto cls = classify(FunctionalGraph::synchronous(two_node_xor()));
  EXPECT_EQ(cls.num_fixed_points, 1u);
  EXPECT_EQ(cls.kind[0b00], StateKind::kFixedPoint);
  EXPECT_EQ(cls.num_cycle_states, 0u);
  EXPECT_EQ(cls.num_transient_states, 3u);
  EXPECT_FALSE(cls.has_proper_cycle());
  // "after at most two parallel steps" the sink is reached:
  EXPECT_EQ(cls.max_transient, 2u);
  ASSERT_EQ(cls.attractors.size(), 1u);
  EXPECT_EQ(cls.attractors[0].basin_size, 4u);
}

TEST(Classify, XorRingOfFourHasProperCyclesInParallel) {
  // Paper, Section 3.1: "if one considers XOR CA on four nodes with
  // circular boundary conditions, these XOR CA do have nontrivial cycles
  // in the parallel case as well."
  const auto a = Automaton::line(4, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  const auto cls = classify(FunctionalGraph::synchronous(a));
  EXPECT_TRUE(cls.has_proper_cycle());
}

TEST(Classify, MajorityRingParallelHasExactlyTwoCycleStates) {
  // Lemma 1(i) + the rarity remark: the two alternating states form the
  // unique proper cycle on an even ring (n >= 4, radius 1).
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u}) {
    const auto cls = classify(FunctionalGraph::synchronous(majority_ring(n)));
    EXPECT_TRUE(cls.has_proper_cycle()) << n;
    EXPECT_EQ(cls.num_cycle_states, 2u) << n;
    EXPECT_EQ(cls.max_period(), 2u) << n;
  }
}

TEST(Classify, MajorityOddRingIsCycleFreeInParallel) {
  // Odd rings admit no alternating configuration; with radius 1 the
  // parallel majority CA has only fixed points.
  for (const std::size_t n : {5u, 7u, 9u, 11u}) {
    const auto cls = classify(FunctionalGraph::synchronous(majority_ring(n)));
    EXPECT_FALSE(cls.has_proper_cycle()) << n;
  }
}

TEST(Classify, CyclePeriodRecordedPerState) {
  const auto a = Automaton::line(4, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  const auto fg = FunctionalGraph::synchronous(a);
  const auto cls = classify(fg);
  for (StateCode s = 0; s < fg.num_states(); ++s) {
    if (cls.kind[s] == StateKind::kCycle) {
      const auto& attractor = cls.attractors[cls.attractor[s]];
      EXPECT_GE(attractor.period, 2u);
      // Following succ period times returns to s.
      StateCode t = s;
      for (std::uint64_t i = 0; i < attractor.period; ++i) t = fg.succ(t);
      EXPECT_EQ(t, s);
    }
  }
}

TEST(Classify, BasinSizesSumToStateCount) {
  const auto fg = FunctionalGraph::synchronous(majority_ring(10));
  const auto cls = classify(fg);
  std::uint64_t total = 0;
  for (const auto& a : cls.attractors) total += a.basin_size;
  EXPECT_EQ(total, fg.num_states());
}

TEST(InDegrees, SumEqualsStateCount) {
  const auto fg = FunctionalGraph::synchronous(majority_ring(8));
  const auto indeg = in_degrees(fg);
  std::uint64_t total = 0;
  for (auto d : indeg) total += d;
  EXPECT_EQ(total, fg.num_states());
}

TEST(InDegrees, GardensOfEdenDetected) {
  // For two-node XOR: preimages are {00,11}->00 {01,10}->11; states 01 and
  // 10 have no preimage (Gardens of Eden).
  const auto fg = FunctionalGraph::synchronous(two_node_xor());
  const auto indeg = in_degrees(fg);
  EXPECT_EQ(indeg[0b00], 2u);
  EXPECT_EQ(indeg[0b11], 2u);
  EXPECT_EQ(indeg[0b01], 0u);
  EXPECT_EQ(indeg[0b10], 0u);
  const auto cls = classify(fg);
  EXPECT_EQ(cls.num_gardens_of_eden, 2u);
}

TEST(SweepPhaseSpace, MajoritySweepHasOnlyFixedPointAttractors) {
  // Theorem 1 in functional-graph form: a fixed sweep order is one
  // deterministic map; its phase space must be cycle-free.
  const auto a = majority_ring(10);
  for (const auto& order : {core::identity_order(10), core::reversed_order(10)}) {
    const auto cls = classify(FunctionalGraph::sweep(a, order));
    EXPECT_FALSE(cls.has_proper_cycle());
    EXPECT_EQ(cls.max_period(), 1u);
  }
}

TEST(SweepPhaseSpace, SweepFixedPointsEqualParallelFixedPoints) {
  const auto a = majority_ring(8);
  const auto parallel = classify(FunctionalGraph::synchronous(a));
  const auto sweep = classify(FunctionalGraph::sweep(a, core::identity_order(8)));
  EXPECT_EQ(parallel.num_fixed_points, sweep.num_fixed_points);
}

TEST(ParallelBuild, MatchesSerialBuild) {
  for (const std::size_t n : {4u, 10u, 14u}) {
    const auto a = majority_ring(n);
    const auto serial = FunctionalGraph::synchronous(a);
    ShardedBuildOptions options;
    options.shard_states = 256;
    options.workers = 4;
    runtime::RunControl control;
    const auto parallel = build_synchronous_sharded(a, options, control);
    ASSERT_TRUE(parallel.complete()) << n;
    EXPECT_EQ(parallel.build.graph->successors(), serial.successors())
        << "n=" << n;
  }
}

TEST(ParallelBuild, WorksWithParityAndSingleThread) {
  const auto a = Automaton::line(9, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  const auto step = synchronous_code_step(a);
  ShardedBuildOptions options;
  options.shard_states = 100;
  options.workers = 1;
  runtime::RunControl control;
  const auto built = build_synchronous_sharded(a, options, control);
  ASSERT_TRUE(built.complete());
  for (StateCode s = 0; s < built.build.graph->num_states(); ++s) {
    ASSERT_EQ(built.build.graph->succ(s), step(s)) << s;
  }
}

TEST(CodeStep, AdapterMatchesConfigurationEngine) {
  const auto a = majority_ring(12);
  const auto step = synchronous_code_step(a);
  for (StateCode s = 0; s < 4096; s += 97) {
    const auto c = core::Configuration::from_bits(s, 12);
    EXPECT_EQ(step(s), core::step_synchronous(a, c).to_bits());
  }
}

}  // namespace
}  // namespace tca::phasespace
