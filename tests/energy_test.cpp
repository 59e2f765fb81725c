// Unit tests for the Lyapunov energy machinery (src/analysis/energy.hpp) —
// the analytic certificate behind Theorem 1 and Proposition 1.

#include <gtest/gtest.h>

#include "analysis/energy.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "graph/builders.hpp"

namespace tca::analysis {
namespace {

using core::Configuration;

TEST(ThresholdNetwork, MajorityThresholds) {
  const auto net = ThresholdNetwork::majority(graph::ring(6), true);
  // Ring: arity 3 with memory, strict majority k = 2.
  for (std::uint32_t kv : net.k) EXPECT_EQ(kv, 2u);
  const auto net5 = ThresholdNetwork::majority(graph::ring(8, 2), true);
  for (std::uint32_t kv : net5.k) EXPECT_EQ(kv, 3u);  // 3-of-5
}

TEST(ThresholdNetwork, AutomatonAgreesWithMajorityRule) {
  const auto g = graph::ring(8);
  const auto net = ThresholdNetwork::majority(g, true);
  const auto a = net.automaton();
  const auto b = core::Automaton::from_graph(g, rules::majority(),
                                             core::Memory::kWith);
  for (std::uint64_t bits = 0; bits < 256; ++bits) {
    const auto c = Configuration::from_bits(bits, 8);
    EXPECT_EQ(core::step_synchronous(a, c), core::step_synchronous(b, c))
        << bits;
  }
}

TEST(SequentialEnergy, KnownValuesOnSmallRing) {
  // Ring n=4, k=2 (majority with memory): E = -2*#{11 edges} + sum 2(k-1)x
  // = -2*#{11 edges} + 2*popcount.
  const auto net = ThresholdNetwork::majority(graph::ring(4), true);
  EXPECT_EQ(sequential_energy(net, Configuration::from_string("0000")), 0);
  EXPECT_EQ(sequential_energy(net, Configuration::from_string("1111")),
            -2 * 4 + 2 * 4);  // 4 edges all 11
  EXPECT_EQ(sequential_energy(net, Configuration::from_string("1100")),
            -2 * 1 + 2 * 2);
  EXPECT_EQ(sequential_energy(net, Configuration::from_string("0101")),
            0 + 2 * 2);
}

// The core certificate: EVERY state-changing sequential update strictly
// decreases the energy (by at least 1), exhaustively over all states, all
// nodes, several graphs, with and without memory.
class EnergyDecrease
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(EnergyDecrease, EveryChangingUpdateStrictlyDecreasesE) {
  const auto [graph_id, with_memory] = GetParam();
  graph::Graph g;
  switch (graph_id) {
    case 0: g = graph::ring(8); break;
    case 1: g = graph::ring(9, 2); break;
    case 2: g = graph::grid2d(3, 4); break;
    case 3: g = graph::hypercube(3); break;
    case 4: g = graph::complete_bipartite(3, 4); break;
    case 5: g = graph::path(9); break;
    default: FAIL();
  }
  const auto net = ThresholdNetwork::majority(g, with_memory);
  const auto a = net.automaton();
  const auto n = g.num_nodes();
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    const auto c = Configuration::from_bits(bits, n);
    const std::int64_t before = sequential_energy(net, c);
    for (graph::NodeId v = 0; v < n; ++v) {
      auto d = c;
      if (core::update_node(a, d, v)) {
        EXPECT_LE(sequential_energy(net, d), before - 1)
            << "state " << c.to_string() << " node " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndMemory, EnergyDecrease,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Bool()));

// Non-majority thresholds satisfy the same certificate.
class EnergyDecreaseK : public ::testing::TestWithParam<int> {};

TEST_P(EnergyDecreaseK, HoldsForEveryThresholdK) {
  const auto k = static_cast<std::uint32_t>(GetParam());
  const auto net = ThresholdNetwork::homogeneous(graph::ring(8), k, true);
  const auto a = net.automaton();
  for (std::uint64_t bits = 0; bits < 256; ++bits) {
    const auto c = Configuration::from_bits(bits, 8);
    const std::int64_t before = sequential_energy(net, c);
    for (graph::NodeId v = 0; v < 8; ++v) {
      auto d = c;
      if (core::update_node(a, d, v)) {
        EXPECT_LE(sequential_energy(net, d), before - 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, EnergyDecreaseK,
                         ::testing::Values(1, 2, 3));

TEST(PairEnergy, NonincreasingAlongSynchronousTrajectories) {
  // Goles' synchronous argument: E2(x(t), x(t+1)) never increases.
  const auto net = ThresholdNetwork::majority(graph::ring(10), true);
  const auto a = net.automaton();
  for (std::uint64_t bits = 0; bits < 1024; ++bits) {
    auto x = Configuration::from_bits(bits, 10);
    auto y = core::step_synchronous(a, x);
    std::int64_t prev = synchronous_pair_energy(net, x, y);
    for (int t = 0; t < 16; ++t) {
      const auto z = core::step_synchronous(a, y);
      const std::int64_t cur = synchronous_pair_energy(net, y, z);
      EXPECT_LE(cur, prev) << "start " << bits << " t " << t;
      prev = cur;
      x = y;
      y = z;
    }
  }
}

TEST(PairEnergy, SymmetricInItsTwoArguments) {
  const auto net = ThresholdNetwork::majority(graph::ring(6), true);
  const auto x = Configuration::from_string("011010");
  const auto y = Configuration::from_string("110100");
  EXPECT_EQ(synchronous_pair_energy(net, x, y),
            synchronous_pair_energy(net, y, x));
}

TEST(ChangeBound, SequentialRunsRespectTheBound) {
  const auto net = ThresholdNetwork::majority(graph::ring(16), true);
  const auto a = net.automaton();
  const std::int64_t bound = sequential_change_bound(net);
  core::RandomUniformSchedule schedule(16, 5);
  for (std::uint64_t seed_state :
       {0xAAAAULL, 0x1234ULL, 0xF0F0ULL, 0x7777ULL}) {
    auto c = Configuration::from_bits(seed_state, 16);
    std::int64_t changes = 0;
    for (int t = 0; t < 100000 && !core::is_fixed_point_sequential(a, c);
         ++t) {
      if (core::update_node(a, c, schedule.next())) ++changes;
    }
    EXPECT_TRUE(core::is_fixed_point_sequential(a, c));
    EXPECT_LE(changes, bound);
  }
}

TEST(EnergyErrors, SizeMismatchThrows) {
  const auto net = ThresholdNetwork::majority(graph::ring(6), true);
  EXPECT_THROW((void)sequential_energy(net, Configuration(5)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tca::analysis
