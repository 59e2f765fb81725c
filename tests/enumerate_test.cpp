// Unit tests for rule-class enumeration (src/rules/enumerate.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "rules/analyze.hpp"
#include "rules/enumerate.hpp"

namespace tca::rules {
namespace {

/// A truth table of at most 64 rows as a bitmask (bit i = row i), so
/// tables compare as integers.
std::uint64_t packed(const std::vector<State>& table) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    bits |= std::uint64_t{table[i] != 0} << i;
  }
  return bits;
}

TEST(AllMonotoneSymmetric, CountIsArityPlusTwo) {
  EXPECT_EQ(all_monotone_symmetric(1).size(), 3u);
  EXPECT_EQ(all_monotone_symmetric(3).size(), 5u);
  EXPECT_EQ(all_monotone_symmetric(7).size(), 9u);
}

TEST(AllMonotoneSymmetric, AllDistinct) {
  const auto rules = all_monotone_symmetric(4);
  std::set<std::uint64_t> tables;
  for (const auto& r : rules) tables.insert(packed(truth_table(Rule{r}, 4)));
  EXPECT_EQ(tables.size(), rules.size());
}

TEST(AllMonotoneSymmetric, ContainsConstantsAndMajority) {
  const auto rules = all_monotone_symmetric(3);
  std::set<std::uint64_t> tables;
  for (const auto& r : rules) tables.insert(packed(truth_table(Rule{r}, 3)));
  EXPECT_TRUE(tables.contains(packed(truth_table(Rule{KOfNRule{0}}, 3))));
  EXPECT_TRUE(tables.contains(packed(truth_table(Rule{KOfNRule{9}}, 3))));
  EXPECT_TRUE(tables.contains(packed(truth_table(majority(), 3))));
}

TEST(AllSymmetric, CountIsTwoToArityPlusOne) {
  EXPECT_EQ(all_symmetric(2).size(), 8u);
  EXPECT_EQ(all_symmetric(3).size(), 16u);
}

TEST(AllSymmetric, EverythingIsSymmetricAndCoversParity) {
  bool found_parity = false;
  for (const auto& r : all_symmetric(3)) {
    const auto table = truth_table(Rule{r}, 3);
    EXPECT_TRUE(is_symmetric(table));
    if (table == truth_table(parity(), 3)) found_parity = true;
  }
  EXPECT_TRUE(found_parity);
}

TEST(AllMonotoneTables, DedekindNumbers) {
  EXPECT_EQ(all_monotone_tables(0).size(), 2u);
  EXPECT_EQ(all_monotone_tables(1).size(), 3u);
  EXPECT_EQ(all_monotone_tables(2).size(), 6u);
  EXPECT_EQ(all_monotone_tables(3).size(), 20u);
  EXPECT_EQ(all_monotone_tables(4).size(), 168u);
}

TEST(AllMonotoneTables, RejectsLargeArity) {
  EXPECT_THROW(all_monotone_tables(5), std::invalid_argument);
}

TEST(AllMonotoneTables, AllActuallyMonotone) {
  for (const auto& table : all_monotone_tables(3)) {
    EXPECT_TRUE(is_monotone(table));
  }
}

TEST(AllKOfN, CountAndSemantics) {
  const auto rules = all_k_of_n(4);
  ASSERT_EQ(rules.size(), 4u);
  for (std::uint32_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(rules[k - 1].k, k);
  }
}

// The classical identity: monotone symmetric = {constants} U {k-of-n}.
TEST(ClassIdentity, MonotoneSymmetricEqualsThresholdFamily) {
  const std::uint32_t arity = 4;
  std::set<std::uint64_t> from_enumeration;
  for (const auto& r : all_monotone_symmetric(arity)) {
    from_enumeration.insert(packed(truth_table(Rule{r}, arity)));
  }
  std::set<std::uint64_t> by_filter;
  for (const auto& r : all_symmetric(arity)) {
    const auto table = truth_table(Rule{r}, arity);
    if (is_monotone(table)) by_filter.insert(packed(table));
  }
  EXPECT_EQ(from_enumeration, by_filter);
}

}  // namespace
}  // namespace tca::rules
