// Cross-validation of the word-parallel radius-1 ring kernel against the
// generic engine (src/core/packed_kernels.hpp) — bit-for-bit equivalence
// over random configurations and awkward ring sizes (word boundaries,
// partial last words), on the majority and parity tables and on every
// Wolfram elementary rule.

#include <gtest/gtest.h>

#include <random>

#include "core/automaton.hpp"
#include "core/packed_kernels.hpp"
#include "core/synchronous.hpp"

namespace tca::core {
namespace {

Configuration random_config(std::size_t n, std::mt19937_64& rng) {
  Configuration c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.set(i, static_cast<State>(rng() & 1u));
  }
  return c;
}

TEST(RingShift, UpOnSmallRing) {
  const auto c = Configuration::from_string("10010");
  Configuration out(5);
  ring_shift_up(c, out);
  // out bit i = in bit (i-1+n)%n: "01001"
  EXPECT_EQ(out.to_string(), "01001");
}

TEST(RingShift, DownOnSmallRing) {
  const auto c = Configuration::from_string("10010");
  Configuration out(5);
  ring_shift_down(c, out);
  // out bit i = in bit (i+1)%n: "00101"
  EXPECT_EQ(out.to_string(), "00101");
}

TEST(RingShift, InverseOfEachOther) {
  std::mt19937_64 rng(1);
  for (const std::size_t n : {3u, 63u, 64u, 65u, 127u, 128u, 200u}) {
    const auto c = random_config(n, rng);
    Configuration up(n), back(n);
    ring_shift_up(c, up);
    ring_shift_down(up, back);
    EXPECT_EQ(back, c) << "n=" << n;
  }
}

TEST(RingShift, CrossesWordBoundary) {
  Configuration c(130);
  c.set(63, 1);
  c.set(129, 1);
  Configuration out(130);
  ring_shift_up(c, out);
  EXPECT_EQ(out.get(64), 1);
  EXPECT_EQ(out.get(0), 1);  // wrap from cell 129
  EXPECT_EQ(out.popcount(), 2u);
}

// Parameterized sweep over ring sizes including word-boundary cases: the
// table kernel on Wolfram 232 (2-of-3 majority) and 150 (3-input parity)
// against the generic engine running the threshold rules themselves.
class PackedKernelEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void expect_table_matches(std::uint32_t code, const rules::Rule& rule,
                                   std::size_t n, std::uint64_t seed) {
    const auto a = Automaton::line(n, 1, Boundary::kRing, rule, Memory::kWith);
    const rules::TableRule table = rules::wolfram(code);
    std::mt19937_64 rng(seed);
    PackedScratch scratch(n);
    for (int trial = 0; trial < 16; ++trial) {
      const auto c = random_config(n, rng);
      Configuration packed(n);
      step_ring_table3_packed(table, c, packed, scratch);
      EXPECT_EQ(packed, step_synchronous(a, c)) << "n=" << n;
    }
  }
};

TEST_P(PackedKernelEquivalence, Majority3MatchesGenericEngine) {
  const std::size_t n = GetParam();
  expect_table_matches(232, rules::majority(), n, n);
}

TEST_P(PackedKernelEquivalence, Parity3MatchesGenericEngine) {
  const std::size_t n = GetParam();
  expect_table_matches(150, rules::parity(), n, n * 7);
}

INSTANTIATE_TEST_SUITE_P(RingSizes, PackedKernelEquivalence,
                         ::testing::Values(3, 4, 5, 7, 8, 16, 31, 32, 33, 63,
                                           64, 65, 66, 100, 127, 128, 129, 192,
                                           255, 256, 1000));

// Every Wolfram elementary rule, against the generic TableRule engine.
class WolframPackedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(WolframPackedEquivalence, Table3KernelMatchesGenericEngine) {
  const auto code = static_cast<std::uint32_t>(GetParam());
  const rules::TableRule rule = rules::wolfram(code);
  const std::size_t n = 97;  // crosses a word boundary
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::Rule{rule},
                                 Memory::kWith);
  std::mt19937_64 rng(code);
  PackedScratch scratch(n);
  for (int trial = 0; trial < 4; ++trial) {
    const auto c = random_config(n, rng);
    Configuration packed(n);
    step_ring_table3_packed(rule, c, packed, scratch);
    EXPECT_EQ(packed, step_synchronous(a, c)) << "code=" << code;
  }
}

INSTANTIATE_TEST_SUITE_P(AllElementaryRules, WolframPackedEquivalence,
                         ::testing::Range(0, 256));

TEST(PackedKernels, RejectsMismatchedSizes) {
  Configuration in(10), out(11);
  PackedScratch scratch(10);
  EXPECT_THROW(step_ring_table3_packed(rules::wolfram(232), in, out, scratch),
               std::invalid_argument);
}

TEST(PackedKernels, RejectsAliasedBuffers) {
  Configuration c(10);
  PackedScratch scratch(10);
  EXPECT_THROW(step_ring_table3_packed(rules::wolfram(232), c, c, scratch),
               std::invalid_argument);
}

TEST(PackedKernels, RejectsTooSmallRing) {
  Configuration in(2), out(2);
  PackedScratch scratch(2);
  EXPECT_THROW(step_ring_table3_packed(rules::wolfram(232), in, out, scratch),
               std::invalid_argument);
}

TEST(PackedKernels, Table3RejectsWrongArity) {
  rules::TableRule rule;
  rule.table = {0, 1, 1, 0};  // arity 2
  Configuration in(10), out(10);
  PackedScratch scratch(10);
  EXPECT_THROW(step_ring_table3_packed(rule, in, out, scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace tca::core
