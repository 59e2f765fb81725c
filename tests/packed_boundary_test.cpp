// Word-alignment boundary contract for the bit-packed ring kernel
// (src/core/packed_kernels.hpp): the ring shifts and the radius-1 table
// kernel must be bit-for-bit equal to the scalar step_synchronous at sizes
// straddling the 64-cell word boundary: n in {1, 63, 64, 65, 127, 128}.
// (The table kernel requires a radius-1 ring, n >= 3, so n = 1 is covered
// by the shift primitives only.)

#include <gtest/gtest.h>

#include <random>

#include "core/automaton.hpp"
#include "core/packed_kernels.hpp"
#include "core/synchronous.hpp"
#include "rules/rule.hpp"

namespace tca::core {
namespace {

constexpr std::size_t kBoundarySizes[] = {1, 63, 64, 65, 127, 128};

Configuration random_config(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Configuration c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.set(i, static_cast<State>(rng() & 1u));
  }
  return c;
}

class PackedBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedBoundary, RingShiftsInvertAcrossWordBoundaries) {
  const std::size_t n = GetParam();
  const auto c = random_config(n, 0xF00D0 + n);
  Configuration up(n), back(n);
  ring_shift_up(c, up);
  ring_shift_down(up, back);
  EXPECT_EQ(back, c) << "n=" << n;
  // Shift semantics at the seam: cell 0 of the up-shift is cell n-1.
  EXPECT_EQ(up.get(0), c.get(n - 1)) << "n=" << n;
  for (std::size_t i = 1; i < n; ++i) {
    ASSERT_EQ(up.get(i), c.get(i - 1)) << "n=" << n << " i=" << i;
  }
}

/// Eight steps of the table kernel on Wolfram `code` against the generic
/// engine running the threshold rule `rule` it encodes.
void expect_table_kernel_matches(std::uint32_t code, const rules::Rule& rule,
                                 std::size_t n, std::uint64_t seed) {
  const auto a = Automaton::line(n, 1, Boundary::kRing, rule, Memory::kWith);
  const rules::TableRule table = rules::wolfram(code);
  PackedScratch scratch(n);
  Configuration current = random_config(n, seed);
  Configuration scalar(n), packed(n);
  for (int step = 0; step < 8; ++step) {
    step_synchronous(a, current, scalar);
    step_ring_table3_packed(table, current, packed, scratch);
    ASSERT_EQ(scalar, packed) << "n=" << n << " step=" << step;
    current = scalar;
  }
}

TEST_P(PackedBoundary, Majority3KernelMatchesScalar) {
  const std::size_t n = GetParam();
  if (n < 3) GTEST_SKIP() << "radius-1 ring needs n >= 3";
  expect_table_kernel_matches(232, rules::majority(), n, 0xAB + n);
}

TEST_P(PackedBoundary, ParityKernelMatchesScalar) {
  const std::size_t n = GetParam();
  if (n < 3) GTEST_SKIP() << "radius-1 ring needs n >= 3";
  expect_table_kernel_matches(150, rules::parity(), n, 0xEF + n);
}

TEST_P(PackedBoundary, Table3KernelMatchesScalarForWolframRules) {
  const std::size_t n = GetParam();
  if (n < 3) GTEST_SKIP() << "radius-1 ring needs n >= 3";
  PackedScratch scratch(n);
  for (std::uint32_t code : {30u, 90u, 110u, 184u}) {
    const auto table = rules::wolfram(code);
    const auto a = Automaton::line(n, 1, Boundary::kRing,
                                   rules::Rule{table}, Memory::kWith);
    Configuration current = random_config(n, 0x1234 + n + code);
    Configuration scalar(n), packed(n);
    for (int step = 0; step < 4; ++step) {
      step_synchronous(a, current, scalar);
      step_ring_table3_packed(table, current, packed, scratch);
      ASSERT_EQ(scalar, packed)
          << "n=" << n << " rule=" << code << " step=" << step;
      current = scalar;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundarySizes, PackedBoundary,
                         ::testing::ValuesIn(kBoundarySizes));

}  // namespace
}  // namespace tca::core
