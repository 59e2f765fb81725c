// Unit tests for bit-packed configurations (src/core/configuration.hpp).

#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "core/configuration.hpp"

namespace tca::core {
namespace {

TEST(Configuration, DefaultIsAllZero) {
  Configuration c(10);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c.popcount(), 0u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(c.get(i), 0);
}

TEST(Configuration, FillConstructor) {
  Configuration c(70, 1);
  EXPECT_EQ(c.popcount(), 70u);
  EXPECT_EQ(c.get(0), 1);
  EXPECT_EQ(c.get(69), 1);
}

TEST(Configuration, SetGetFlip) {
  Configuration c(130);
  c.set(0, 1);
  c.set(64, 1);
  c.set(129, 1);
  EXPECT_EQ(c.get(0), 1);
  EXPECT_EQ(c.get(64), 1);
  EXPECT_EQ(c.get(129), 1);
  EXPECT_EQ(c.popcount(), 3u);
  c.flip(64);
  EXPECT_EQ(c.get(64), 0);
  c.set(0, 0);
  EXPECT_EQ(c.popcount(), 1u);
}

TEST(Configuration, FromStringRoundTrip) {
  const std::string bits = "0110100111";
  const auto c = Configuration::from_string(bits);
  EXPECT_EQ(c.size(), bits.size());
  EXPECT_EQ(c.to_string(), bits);
  EXPECT_EQ(c.popcount(), 6u);
}

TEST(Configuration, FromStringRejectsGarbage) {
  EXPECT_THROW(Configuration::from_string("01x1"), std::invalid_argument);
}

TEST(Configuration, FromBitsMasksHighBits) {
  const auto c = Configuration::from_bits(0xFF, 4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.popcount(), 4u);
  EXPECT_EQ(c.to_bits(), 0xFu);
}

TEST(Configuration, FromBitsBitOrder) {
  const auto c = Configuration::from_bits(0b0101, 4);
  EXPECT_EQ(c.get(0), 1);
  EXPECT_EQ(c.get(1), 0);
  EXPECT_EQ(c.get(2), 1);
  EXPECT_EQ(c.get(3), 0);
  EXPECT_EQ(c.to_string(), "1010");
}

TEST(Configuration, FromBitsRejectsOver64) {
  EXPECT_THROW(Configuration::from_bits(0, 65), std::invalid_argument);
}

TEST(Configuration, ToBitsRejectsOver64) {
  Configuration c(70);
  EXPECT_THROW((void)c.to_bits(), std::logic_error);
}

TEST(Configuration, ToBitsFullWord) {
  const auto c = Configuration::from_bits(~std::uint64_t{0}, 64);
  EXPECT_EQ(c.to_bits(), ~std::uint64_t{0});
  EXPECT_EQ(c.popcount(), 64u);
}

TEST(Configuration, EqualityComparesContentAndSize) {
  const auto a = Configuration::from_string("0101");
  const auto b = Configuration::from_string("0101");
  const auto c = Configuration::from_string("0100");
  const auto d = Configuration::from_string("01010");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(Configuration, FillResetsPadding) {
  Configuration c(66);
  c.fill(1);
  EXPECT_EQ(c.popcount(), 66u);
  // Padding stays clear: words carry exactly 66 set bits.
  std::size_t raw = 0;
  for (auto w : c.words()) raw += static_cast<std::size_t>(__builtin_popcountll(w));
  EXPECT_EQ(raw, 66u);
  c.fill(0);
  EXPECT_EQ(c.popcount(), 0u);
}

TEST(Configuration, MaskPaddingClearsHighBits) {
  Configuration c(4);
  c.words()[0] = 0xFF;
  c.mask_padding();
  EXPECT_EQ(c.to_bits(), 0xFu);
}

TEST(ConfigurationHashing, EqualConfigsHashEqual) {
  const auto a = Configuration::from_string("0101101");
  const auto b = Configuration::from_string("0101101");
  EXPECT_EQ(hash_value(a), hash_value(b));
}

TEST(ConfigurationHashing, FewCollisionsOnDenseEnumeration) {
  std::unordered_set<std::uint64_t> hashes;
  for (std::uint64_t s = 0; s < 4096; ++s) {
    hashes.insert(hash_value(Configuration::from_bits(s, 12)));
  }
  // A 64-bit hash over 4096 inputs should essentially never collide.
  EXPECT_EQ(hashes.size(), 4096u);
}

TEST(ConfigurationHashing, SizeMatters) {
  const auto a = Configuration::from_string("01");
  const auto b = Configuration::from_string("010");
  EXPECT_NE(hash_value(a), hash_value(b));
}

TEST(ConfigurationHashing, WorksInUnorderedContainers) {
  std::unordered_set<Configuration, ConfigurationHash> set;
  set.insert(Configuration::from_string("0101"));
  set.insert(Configuration::from_string("0101"));
  set.insert(Configuration::from_string("1010"));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Configuration, LargeRandomRoundTrip) {
  std::mt19937_64 rng(42);
  Configuration c(1000);
  std::string expect(1000, '0');
  for (int i = 0; i < 500; ++i) {
    const auto pos = static_cast<std::size_t>(rng() % 1000);
    c.set(pos, 1);
    expect[pos] = '1';
  }
  EXPECT_EQ(c.to_string(), expect);
  EXPECT_EQ(Configuration::from_string(expect), c);
}

TEST(Configuration, ZeroSize) {
  Configuration c(0);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.popcount(), 0u);
  EXPECT_EQ(c.to_string(), "");
  EXPECT_EQ(c.to_bits(), 0u);
}

}  // namespace
}  // namespace tca::core
