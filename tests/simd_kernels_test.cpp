// Differential tests for the SIMD-widened batch kernels
// (core/batch_kernels_{scalar,avx2,avx512,neon}.cpp, core/batch_isa.hpp):
// every ISA tier available on this host must be lane-exact with the
// scalar reference engines — step_synchronous / apply_sequence, the
// 64-lane bit-slice BatchStepper, and the packed ring table kernel — across
// rule families (threshold r=1/2, parity, outer-totalistic, minterms)
// and ring sizes straddling every word and lane boundary. Also covers the
// wide transposes (inverses, LSB-first convention, ragged zero-padding)
// and the per-tier counter contract. Tiers absent from this host are
// covered by the same loops on hosts that have them; the scalar tier is
// always present, so the suite never collapses to nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/batch_isa.hpp"
#include "core/batch_kernels.hpp"
#include "core/packed_kernels.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "phasespace/functional_graph.hpp"
#include "rules/rule.hpp"
#include "runtime/error.hpp"

namespace tca {
namespace {

using core::Automaton;
using core::BatchIsa;
using core::BatchSlice;
using core::BatchStepper;
using core::Boundary;
using core::Configuration;
using core::Memory;
using phasespace::StateCode;

/// Every tier this host can actually run (always contains kScalar).
std::vector<BatchIsa> available_tiers() {
  std::vector<BatchIsa> tiers;
  for (unsigned i = 0; i < core::kNumBatchIsa; ++i) {
    const auto isa = static_cast<BatchIsa>(i);
    if (core::isa_available(isa)) tiers.push_back(isa);
  }
  return tiers;
}

/// Ring sizes straddling every plane-word and lane boundary the wide
/// layout cares about (64-cell config words; 64/256/512-lane blocks).
const std::vector<std::size_t>& boundary_sizes() {
  static const std::vector<std::size_t> sizes = {
      3, 63, 64, 65, 127, 128, 255, 256, 257, 511, 512, 513};
  return sizes;
}

Configuration random_config(std::size_t n, std::mt19937_64& rng) {
  Configuration c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.set(i, static_cast<core::State>(rng() & 1u));
  }
  return c;
}

struct RuleCase {
  const char* label;
  rules::Rule rule;
  std::uint32_t radius;
};

/// The ISSUE's rule families: threshold at radius 1 and 2, parity,
/// outer-totalistic, and a minterm (truth-table) rule.
std::vector<RuleCase> rule_cases(std::mt19937_64& rng) {
  std::vector<RuleCase> cases;
  cases.push_back({"threshold-r1", rules::majority(), 1});
  cases.push_back({"threshold-r2", rules::majority(), 2});
  cases.push_back({"parity", rules::parity(), 1});
  rules::OuterTotalisticRule outer;
  outer.self_index = 1;  // radius-1 ring with memory: (left, self, right)
  outer.born = {1, 0, 0};
  outer.survive = {0, 1, 1};
  cases.push_back({"outer-totalistic", outer, 1});
  rules::TableRule minterm;
  minterm.table.resize(8);
  for (auto& v : minterm.table) v = static_cast<rules::State>(rng() & 1u);
  cases.push_back({"minterm", minterm, 1});
  return cases;
}

TEST(TransposeWide, MatchesDefinitionAndRoundTrips) {
  std::mt19937_64 rng(31);
  for (const unsigned w : {1u, 4u, 8u}) {
    const unsigned dim = 64 * w;
    std::vector<std::uint64_t> orig(std::size_t{dim} * w);
    for (auto& word : orig) word = rng();
    std::vector<std::uint64_t> t = orig;
    core::transpose_wide(t.data(), w);
    for (unsigned r = 0; r < dim; ++r) {
      for (unsigned c = 0; c < dim; ++c) {
        const auto at = [&](const std::vector<std::uint64_t>& m, unsigned row,
                            unsigned col) {
          return (m[std::size_t{row} * w + col / 64] >> (col % 64)) & 1u;
        };
        ASSERT_EQ(at(orig, r, c), at(t, c, r))
            << "W=" << w << " entry (" << r << "," << c << ")";
      }
    }
    // Involution: transposing twice restores the input exactly.
    core::transpose_wide(t.data(), w);
    EXPECT_EQ(t, orig) << "W=" << w;
  }
}

TEST(TransposeWide, WidthOneIsTranspose64) {
  std::mt19937_64 rng(37);
  std::uint64_t a[64];
  std::uint64_t b[64];
  for (int i = 0; i < 64; ++i) a[i] = b[i] = rng();
  core::transpose64(a);
  core::transpose_wide(b, 1);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]) << "row " << i;
}

TEST(WideBatchSlice, CodeRoundTripWithRaggedTopBlock) {
  std::mt19937_64 rng(41);
  for (const unsigned w : {1u, 4u, 8u}) {
    for (const std::size_t n : {1u, 3u, 20u, 63u, 64u}) {
      const std::uint64_t lo_mask =
          n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
      const unsigned count = 64 * w - 13;  // ragged top block
      std::vector<std::uint64_t> codes(count);
      for (auto& c : codes) c = rng() & lo_mask;
      BatchSlice slice(n, w);
      slice.load_codes(codes);
      EXPECT_EQ(slice.count(), count);
      EXPECT_EQ(slice.lane_words(), w);
      EXPECT_EQ(slice.capacity(), 64 * w);
      std::vector<std::uint64_t> out(count, ~std::uint64_t{0});
      slice.store_codes(out);
      EXPECT_EQ(out, codes) << "W=" << w << " n=" << n;
      // The ragged top block's unused lanes are zero-padded on load.
      const unsigned top = count / 64;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t word = slice.planes()[i * w + top];
        EXPECT_EQ(word >> (count % 64), 0u)
            << "W=" << w << " n=" << n << " plane " << i;
      }
    }
  }
}

TEST(WideBatchSlice, LsbFirstConventionIsFixed) {
  // Lane 0 lives in bit 0 of word 0 of every plane, for every width: the
  // scalar engine's layout is a strict prefix of the wide one.
  const std::size_t n = 8;
  const std::uint64_t code = 0b10110101;
  for (const unsigned w : {1u, 4u, 8u}) {
    BatchSlice slice(n, w);
    slice.load_codes(std::vector<std::uint64_t>{code});
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(slice.planes()[i * w] & 1u, (code >> i) & 1u)
          << "W=" << w << " plane " << i;
    }
  }
}

TEST(WideBatchSlice, AlignedRangeFastPathMatchesGeneralLoad) {
  for (const unsigned w : {1u, 4u, 8u}) {
    for (const std::uint64_t first :
         {std::uint64_t{0}, std::uint64_t{1} << 12}) {
      const std::size_t n = 20;
      const unsigned count = 64 * w - 7;  // ragged, 64-aligned base
      BatchSlice fast(n, w);
      fast.load_code_range(first, count);  // pattern path
      std::vector<std::uint64_t> codes(count);
      for (unsigned j = 0; j < count; ++j) codes[j] = first + j;
      BatchSlice general(n, w);
      general.load_codes(codes);
      // Compare through store_codes: the pattern path may fill garbage
      // lanes past count() that the general load zero-pads.
      std::vector<std::uint64_t> from_fast(count);
      std::vector<std::uint64_t> from_general(count);
      fast.store_codes(from_fast);
      general.store_codes(from_general);
      EXPECT_EQ(from_fast, from_general) << "W=" << w << " first=" << first;
    }
  }
}

TEST(WideBatchSlice, ConfigurationRoundTripPastWordBoundaries) {
  std::mt19937_64 rng(43);
  for (const unsigned w : {1u, 4u, 8u}) {
    for (const std::size_t n : boundary_sizes()) {
      const unsigned count = 64 * w - 3;  // ragged top block
      std::vector<Configuration> in;
      for (unsigned j = 0; j < count; ++j) in.push_back(random_config(n, rng));
      BatchSlice slice(n, w);
      slice.load_configurations(in);
      std::vector<Configuration> out(in.size(), Configuration(n));
      slice.store_configurations(out);
      for (std::size_t j = 0; j < in.size(); ++j) {
        ASSERT_EQ(out[j], in[j]) << "W=" << w << " n=" << n << " lane " << j;
      }
    }
  }
}

TEST(SimdKernels, EveryTierMatchesScalarAndBitsliceAcrossRulesAndSizes) {
  std::mt19937_64 rng(47);
  const auto tiers = available_tiers();
  for (const auto& rc : rule_cases(rng)) {
    for (const std::size_t n : boundary_sizes()) {
      if (n < 2 * rc.radius + 1) continue;  // ring needs distinct neighbors
      const auto a =
          Automaton::line(n, rc.radius, Boundary::kRing, rc.rule,
                          Memory::kWith);
      ASSERT_TRUE(core::batch_support(a).ok) << rc.label;
      // Shared inputs: enough lanes to fill the widest tier raggedly.
      std::vector<Configuration> in;
      for (unsigned j = 0; j < 8 * 64 - 5; ++j) {
        in.push_back(random_config(n, rng));
      }
      // Scalar reference.
      std::vector<Configuration> want;
      want.reserve(in.size());
      for (const auto& c : in) want.push_back(core::step_synchronous(a, c));
      // 64-lane bit-slice reference agrees with scalar.
      {
        BatchStepper ref(a);
        BatchSlice src(n);
        BatchSlice dst(n);
        for (std::size_t done = 0; done < in.size(); done += 64) {
          const std::size_t take = std::min<std::size_t>(64, in.size() - done);
          src.load_configurations(
              std::span<const Configuration>(in.data() + done, take));
          ref.step(src, dst);
          std::vector<Configuration> got(take, Configuration(n));
          dst.store_configurations(got);
          for (std::size_t j = 0; j < take; ++j) {
            ASSERT_EQ(got[j], want[done + j])
                << rc.label << " n=" << n << " bit-slice lane " << done + j;
          }
        }
      }
      // Every available tier agrees, lane-exactly.
      for (const auto isa : tiers) {
        const auto stepper = core::make_wide_stepper(a, isa);
        ASSERT_EQ(stepper->isa(), isa);
        const unsigned w = stepper->lane_words();
        BatchSlice src(n, w);
        BatchSlice dst(n, w);
        for (std::size_t done = 0; done < in.size(); done += 64 * w) {
          const std::size_t take =
              std::min<std::size_t>(64 * w, in.size() - done);
          src.load_configurations(
              std::span<const Configuration>(in.data() + done, take));
          stepper->step(src, dst);
          std::vector<Configuration> got(take, Configuration(n));
          dst.store_configurations(got);
          for (std::size_t j = 0; j < take; ++j) {
            ASSERT_EQ(got[j], want[done + j])
                << rc.label << " n=" << n << " tier " << core::isa_name(isa)
                << " lane " << done + j;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, EveryTierMatchesPackedRingKernels) {
  std::mt19937_64 rng(53);
  const auto tiers = available_tiers();
  struct PackedCase {
    const char* label;
    rules::Rule rule;
    rules::TableRule table;  ///< the same rule as a Wolfram table
  };
  const PackedCase cases[] = {
      {"majority3", rules::majority(), rules::wolfram(232)},
      {"parity3", rules::parity(), rules::wolfram(150)},
  };
  for (const auto& pc : cases) {
    for (const std::size_t n : {63u, 64u, 65u, 127u, 128u, 257u}) {
      const auto a =
          Automaton::line(n, 1, Boundary::kRing, pc.rule, Memory::kWith);
      std::vector<Configuration> in;
      for (unsigned j = 0; j < 100; ++j) in.push_back(random_config(n, rng));
      core::PackedScratch scratch(n);
      std::vector<Configuration> want;
      for (const auto& c : in) {
        Configuration out(n);
        core::step_ring_table3_packed(pc.table, c, out, scratch);
        want.push_back(out);
      }
      for (const auto isa : tiers) {
        const auto stepper = core::make_wide_stepper(a, isa);
        const unsigned w = stepper->lane_words();
        BatchSlice src(n, w);
        BatchSlice dst(n, w);
        std::vector<Configuration> got(in.size(), Configuration(n));
        for (std::size_t done = 0; done < in.size(); done += 64 * w) {
          const std::size_t take =
              std::min<std::size_t>(64 * w, in.size() - done);
          src.load_configurations(
              std::span<const Configuration>(in.data() + done, take));
          stepper->step(src, dst);
          dst.store_configurations(
              std::span<Configuration>(got.data() + done, take));
        }
        for (std::size_t j = 0; j < in.size(); ++j) {
          ASSERT_EQ(got[j], want[j]) << pc.label << " n=" << n << " tier "
                                     << core::isa_name(isa) << " lane " << j;
        }
      }
    }
  }
}

TEST(SimdKernels, SingleCellAutomatonAcrossTiers) {
  // n = 1 has no ring; a lone node with memory sees only itself.
  const graph::Graph g(1, {});
  const auto a = Automaton::from_graph(g, rules::majority(), Memory::kWith);
  for (const auto isa : available_tiers()) {
    const auto stepper = core::make_wide_stepper(a, isa);
    const unsigned w = stepper->lane_words();
    BatchSlice src(1, w);
    BatchSlice dst(1, w);
    src.load_code_range(0, 2);
    stepper->step(src, dst);
    std::uint64_t out[2];
    dst.store_codes(out);
    EXPECT_EQ(out[0], 0u) << core::isa_name(isa);
    EXPECT_EQ(out[1], 1u) << core::isa_name(isa);
  }
}

TEST(SimdKernels, SweepMatchesApplySequenceAcrossTiers) {
  std::mt19937_64 rng(59);
  const auto tiers = available_tiers();
  for (const std::size_t n : {9u, 63u, 64u, 65u, 127u}) {
    std::vector<core::NodeId> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = static_cast<core::NodeId>(i);
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (const auto& rc : rule_cases(rng)) {
      if (n < 2 * rc.radius + 1) continue;
      const auto a =
          Automaton::line(n, rc.radius, Boundary::kRing, rc.rule,
                          Memory::kWith);
      for (const auto isa : tiers) {
        const auto stepper = core::make_wide_stepper(a, isa);
        const unsigned w = stepper->lane_words();
        const unsigned count = 64 * w - 9;  // ragged
        std::vector<Configuration> in;
        for (unsigned j = 0; j < count; ++j) {
          in.push_back(random_config(n, rng));
        }
        BatchSlice slice(n, w);
        slice.load_configurations(in);
        stepper->sweep(slice, order);
        std::vector<Configuration> got(in.size(), Configuration(n));
        slice.store_configurations(got);
        for (std::size_t j = 0; j < in.size(); ++j) {
          Configuration want = in[j];
          core::apply_sequence(a, want, order);
          ASSERT_EQ(got[j], want) << rc.label << " n=" << n << " tier "
                                  << core::isa_name(isa) << " lane " << j;
        }
      }
    }
  }
}

TEST(SimdKernels, CodeRangePipelineMatchesScalarAdapterAcrossTiers) {
  std::mt19937_64 rng(61);
  const auto tiers = available_tiers();
  for (const auto& rc : rule_cases(rng)) {
    const std::size_t n = 11;
    if (n < 2 * rc.radius + 1) continue;
    const auto a = Automaton::line(n, rc.radius, Boundary::kRing, rc.rule,
                                   Memory::kWith);
    const auto scalar = phasespace::synchronous_code_step(a);
    for (const auto isa : tiers) {
      const auto stepper = core::make_wide_stepper(a, isa);
      // Unaligned start, count spanning several wide batches, ragged end.
      const std::uint64_t first = 37;
      const std::size_t count = 3 * 64 * stepper->lane_words() + 21;
      std::vector<StateCode> got(count);
      stepper->step_code_range(first, count, got.data());
      for (std::size_t j = 0; j < count; ++j) {
        ASSERT_EQ(got[j], scalar(first + j))
            << rc.label << " tier " << core::isa_name(isa) << " code "
            << first + j;
      }
    }
  }
}

TEST(SimdKernels, SweepCodeRangeMatchesScalarAdapterAcrossTiers) {
  const std::size_t n = 8;
  const std::vector<core::NodeId> order = {5, 2, 7, 0, 1, 6, 3, 4};
  const auto a =
      Automaton::line(n, 1, Boundary::kRing, rules::parity(), Memory::kWith);
  const auto scalar = phasespace::sweep_code_step(a, order);
  for (const auto isa : available_tiers()) {
    const auto stepper = core::make_wide_stepper(a, isa);
    std::vector<StateCode> got(StateCode{1} << n);
    stepper->sweep_code_range(0, got.size(), order, got.data());
    for (StateCode s = 0; s < got.size(); ++s) {
      ASSERT_EQ(got[s], scalar(s)) << core::isa_name(isa) << " code " << s;
    }
  }
}

TEST(SimdKernels, PerTierStepCountersCharge) {
  const std::size_t n = 10;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  for (const auto isa : available_tiers()) {
    const auto stepper = core::make_wide_stepper(a, isa);
    const unsigned w = stepper->lane_words();
    const std::string tier_name =
        std::string("engine.batch.steps.") + core::isa_name(isa);
    obs::Counter& tier_steps = obs::counter(tier_name);
    obs::Counter& steps = obs::counter("engine.batch.steps");
    obs::Counter& lanes = obs::counter("engine.batch.lanes");
    const auto tier_before = tier_steps.value();
    const auto steps_before = steps.value();
    const auto lanes_before = lanes.value();
    const std::size_t count = StateCode{1} << n;
    std::vector<StateCode> got(count);
    stepper->step_code_range(0, count, got.data());
    const std::uint64_t batches = (count + 64 * w - 1) / (64 * w);
    EXPECT_EQ(tier_steps.value(), tier_before + batches)
        << core::isa_name(isa);
    EXPECT_EQ(steps.value(), steps_before + batches) << core::isa_name(isa);
    EXPECT_EQ(lanes.value(), lanes_before + count) << core::isa_name(isa);
  }
}

TEST(SimdKernels, MismatchedSliceWidthIsRejected) {
  const std::size_t n = 6;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  const auto tiers = available_tiers();
  if (tiers.size() < 2) {
    GTEST_SKIP() << "only the scalar tier is available on this host";
  }
  const auto wide = core::make_wide_stepper(a, tiers.back());
  BatchSlice narrow_in(n, 1);
  BatchSlice narrow_out(n, 1);
  narrow_in.load_code_range(0, 2);
  EXPECT_THROW(wide->step(narrow_in, narrow_out), tca::InvalidArgumentError);
  BatchStepper bitslice(a);
  BatchSlice wide_in(n, wide->lane_words());
  BatchSlice wide_out(n, wide->lane_words());
  wide_in.load_code_range(0, 2);
  EXPECT_THROW(bitslice.step(wide_in, wide_out), tca::InvalidArgumentError);
}

TEST(SimdKernels, UnavailableTierFactoryThrows) {
  const std::size_t n = 6;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  for (unsigned i = 0; i < core::kNumBatchIsa; ++i) {
    const auto isa = static_cast<BatchIsa>(i);
    if (core::isa_available(isa)) continue;
    EXPECT_THROW(
        { const auto s = core::make_wide_stepper(a, isa); },
        tca::InvalidArgumentError)
        << core::isa_name(isa);
  }
}

}  // namespace
}  // namespace tca
