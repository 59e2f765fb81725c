// The bit-packed 2-D torus grid (src/core/packed2d.hpp): cell access,
// multi-word rows, the round trip through the flat Configuration, and
// Game-of-Life ground truths stepped through that round trip.

#include <gtest/gtest.h>

#include <random>

#include "core/automaton.hpp"
#include "core/packed2d.hpp"
#include "core/synchronous.hpp"
#include "graph/builders.hpp"

namespace tca::core {
namespace {

Configuration random_config(std::size_t n, std::mt19937_64& rng) {
  Configuration c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.set(i, static_cast<State>(rng() & 1u));
  }
  return c;
}

TEST(TorusGrid, GetSetAndConversionRoundTrip) {
  std::mt19937_64 rng(1);
  const std::size_t rows = 5, cols = 70;  // multi-word rows
  const auto config = random_config(rows * cols, rng);
  const auto grid = TorusGrid::from_configuration(config, rows, cols);
  EXPECT_EQ(grid.to_configuration(), config);
  EXPECT_EQ(grid.popcount(), config.popcount());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(grid.get(r, c), config.get(r * cols + c));
    }
  }
}

TEST(TorusGrid, Validation) {
  EXPECT_THROW(TorusGrid(0, 5), std::invalid_argument);
  EXPECT_THROW(TorusGrid::from_configuration(Configuration(10), 3, 4),
               std::invalid_argument);
}

/// One Game-of-Life step of a torus grid through the generic engine on
/// the Moore torus of the same shape (the grid <-> Configuration bridge).
TorusGrid life_step(const TorusGrid& grid) {
  const auto g = graph::grid2d(static_cast<graph::NodeId>(grid.rows()),
                               static_cast<graph::NodeId>(grid.cols()), true,
                               graph::GridNeighborhood::kMoore);
  const auto a = Automaton::from_graph(g, rules::Rule{rules::game_of_life()},
                                       Memory::kWith);
  return TorusGrid::from_configuration(
      step_synchronous(a, grid.to_configuration()), grid.rows(), grid.cols());
}

TEST(Packed2d, GliderPeriodFourTranslation) {
  const std::size_t rows = 16, cols = 16;
  TorusGrid current(rows, cols);
  current.set(1, 2, 1);
  current.set(2, 3, 1);
  current.set(3, 1, 1);
  current.set(3, 2, 1);
  current.set(3, 3, 1);
  TorusGrid expect(rows, cols);
  // After 4 steps the glider translates by (+1, +1).
  expect.set(2, 3, 1);
  expect.set(3, 4, 1);
  expect.set(4, 2, 1);
  expect.set(4, 3, 1);
  expect.set(4, 4, 1);
  for (int t = 0; t < 4; ++t) current = life_step(current);
  EXPECT_EQ(current, expect);
}

TEST(Packed2d, BlockAndBlinkerGroundTruths) {
  const std::size_t rows = 8, cols = 8;
  {
    TorusGrid block(rows, cols);
    block.set(2, 2, 1);
    block.set(2, 3, 1);
    block.set(3, 2, 1);
    block.set(3, 3, 1);
    EXPECT_EQ(life_step(block), block);
  }
  {
    TorusGrid blinker(rows, cols);
    blinker.set(3, 2, 1);
    blinker.set(3, 3, 1);
    blinker.set(3, 4, 1);
    const TorusGrid out = life_step(blinker);
    EXPECT_NE(out, blinker);
    EXPECT_EQ(life_step(out), blinker);
  }
}

}  // namespace
}  // namespace tca::core
