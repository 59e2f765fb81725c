// Unit tests for outer-totalistic (Game-of-Life-family) rules
// (src/rules/rule.hpp OuterTotalisticRule).

#include <gtest/gtest.h>

#include "core/automaton.hpp"
#include "core/synchronous.hpp"
#include "graph/builders.hpp"
#include "rules/analyze.hpp"
#include "rules/rule.hpp"

namespace tca::rules {
namespace {

TEST(OuterTotalistic, GameOfLifeTruthCases) {
  const Rule r{game_of_life()};
  // 9 inputs, self first. Dead cell with 3 live neighbors is born.
  std::vector<State> in(9, 0);
  in[1] = in[2] = in[3] = 1;
  EXPECT_EQ(eval(r, in), 1);
  // Dead with 2 stays dead.
  in[3] = 0;
  EXPECT_EQ(eval(r, in), 0);
  // Live with 2 survives.
  in[0] = 1;
  EXPECT_EQ(eval(r, in), 1);
  // Live with 4 dies.
  in[3] = in[4] = 1;
  EXPECT_EQ(eval(r, in), 0);
  // Live with 1 dies.
  in[2] = in[3] = in[4] = 0;
  EXPECT_EQ(eval(r, in), 0);
}

TEST(OuterTotalistic, SelfIndexMatters) {
  // B1/S(none) over 2 neighbors: output 1 iff self==0 and exactly one
  // OTHER input is 1.
  const std::uint32_t born[] = {1};
  const auto r0 = life_like(born, {}, 2, /*self_index=*/0);
  const auto r1 = life_like(born, {}, 2, /*self_index=*/1);
  const std::vector<State> in{1, 0, 1};
  // self_index 0: self=1 -> survive[1] = 0.
  EXPECT_EQ(eval(Rule{r0}, in), 0);
  // self_index 1: self=0, others = {1,1} -> born[2] = 0.
  EXPECT_EQ(eval(Rule{r1}, in), 0);
  const std::vector<State> in2{0, 1, 0};
  // self_index 0: self=0, others={1,0} -> born[1] = 1.
  EXPECT_EQ(eval(Rule{r0}, in2), 1);
  // self_index 1: self=1 -> survive[1]? others={0,0} -> survive[0] = 0.
  EXPECT_EQ(eval(Rule{r1}, in2), 0);
}

TEST(OuterTotalistic, ValidationErrors) {
  const std::uint32_t born[] = {3};
  EXPECT_THROW(life_like(born, {}, 2), std::invalid_argument);  // 3 > 2
  auto r = game_of_life();
  r.self_index = 99;
  const std::vector<State> in(9, 0);
  EXPECT_THROW((void)eval(Rule{r}, in), std::invalid_argument);
  const std::vector<State> wrong(5, 0);
  EXPECT_THROW((void)eval(Rule{game_of_life()}, wrong),
               std::invalid_argument);
}

TEST(OuterTotalistic, RequiredArityAndDescribe) {
  EXPECT_EQ(required_arity(Rule{game_of_life()}), 9u);
  EXPECT_EQ(describe(Rule{game_of_life()}), "outer-totalistic(B3/S23)");
}

TEST(OuterTotalistic, MajorityAsLifeLike) {
  // Majority-of-3 with memory == B2,S1,2 over 2 neighbors:
  // dead becomes 1 iff both neighbors 1 (ones >= 2 needs 2 others);
  // live stays 1 iff at least one neighbor is 1.
  const std::uint32_t born[] = {2};
  const std::uint32_t survive[] = {1, 2};
  const auto r = life_like(born, survive, 2);
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    const std::vector<State> in{static_cast<State>(bits & 1u),
                                static_cast<State>((bits >> 1) & 1u),
                                static_cast<State>((bits >> 2) & 1u)};
    EXPECT_EQ(eval(Rule{r}, in), eval(majority(), in)) << bits;
  }
}

TEST(OuterTotalistic, BlinkerOscillatesOnTorus) {
  // Classic Game-of-Life blinker on a 5x5 torus: period 2.
  const auto g = graph::grid2d(5, 5, true, graph::GridNeighborhood::kMoore);
  const auto a = core::Automaton::from_graph(g, Rule{game_of_life()},
                                             core::Memory::kWith);
  core::Configuration c(25);
  c.set(1 * 5 + 2, 1);
  c.set(2 * 5 + 2, 1);
  c.set(3 * 5 + 2, 1);  // vertical blinker in the middle column
  const auto step1 = core::step_synchronous(a, c);
  EXPECT_NE(step1, c);
  EXPECT_EQ(step1.popcount(), 3u);  // horizontal blinker
  EXPECT_EQ(core::step_synchronous(a, step1), c);
}

TEST(OuterTotalistic, BlockIsStillLife) {
  const auto g = graph::grid2d(5, 5, true, graph::GridNeighborhood::kMoore);
  const auto a = core::Automaton::from_graph(g, Rule{game_of_life()},
                                             core::Memory::kWith);
  core::Configuration c(25);
  c.set(1 * 5 + 1, 1);
  c.set(1 * 5 + 2, 1);
  c.set(2 * 5 + 1, 1);
  c.set(2 * 5 + 2, 1);  // 2x2 block
  EXPECT_TRUE(core::is_fixed_point_synchronous(a, c));
}

TEST(OuterTotalistic, GameOfLifeIsNotMonotoneNorSymmetric) {
  // Overcrowding death makes Life non-monotone; self-dependence makes it
  // non-symmetric (self is distinguished from neighbors).
  const auto table = truth_table(Rule{game_of_life()}, 9);
  EXPECT_FALSE(is_monotone(table));
  EXPECT_FALSE(is_symmetric(table));
}

}  // namespace
}  // namespace tca::rules
