// Cross-validation of the bit-sliced batch engine (src/core/batch_kernels,
// phasespace::BatchCodeStepper) against the scalar engines — bit-for-bit
// equivalence over random rules, ragged lane counts, and awkward ring
// sizes, plus the fallback observability contract and the table-free
// Garden-of-Eden census the batch engine streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/automaton.hpp"
#include "core/batch_isa.hpp"
#include "core/batch_kernels.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "graph/graph.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "rules/rule.hpp"

namespace tca {
namespace {

using core::Automaton;
using core::BatchSlice;
using core::BatchStepper;
using core::Boundary;
using core::Configuration;
using core::Memory;
using phasespace::StateCode;

Configuration random_config(std::size_t n, std::mt19937_64& rng) {
  Configuration c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.set(i, static_cast<core::State>(rng() & 1u));
  }
  return c;
}

rules::TableRule random_table(std::uint32_t arity, std::mt19937_64& rng) {
  rules::TableRule t;
  t.table.resize(std::size_t{1} << arity);
  for (auto& v : t.table) v = static_cast<rules::State>(rng() & 1u);
  return t;
}

/// The rule pool the differential tests draw from: every circuit kind
/// (threshold, parity, count mask, outer-totalistic, minterms) plus the
/// truth-table route of weighted thresholds.
std::vector<rules::Rule> rule_pool(std::uint32_t arity,
                                   std::uint32_t self_index,
                                   std::mt19937_64& rng) {
  std::vector<rules::Rule> pool;
  pool.push_back(rules::MajorityRule{rules::MajorityTie::kZero});
  pool.push_back(rules::MajorityRule{rules::MajorityTie::kOne});
  pool.push_back(rules::ParityRule{});
  pool.push_back(rules::KOfNRule{static_cast<std::uint32_t>(rng() % (arity + 2))});
  rules::SymmetricRule sym;
  sym.accept.resize(arity + 1);
  for (auto& v : sym.accept) v = static_cast<rules::State>(rng() & 1u);
  pool.push_back(sym);
  pool.push_back(random_table(arity, rng));
  rules::WeightedThresholdRule uniform;
  uniform.weights.assign(arity, 2);
  uniform.theta = 3;
  pool.push_back(uniform);
  rules::WeightedThresholdRule mixed;
  mixed.weights.resize(arity);
  for (auto& w : mixed.weights) w = static_cast<std::int32_t>(rng() % 5) - 2;
  mixed.theta = 1;
  pool.push_back(mixed);
  rules::OuterTotalisticRule outer;
  outer.self_index = self_index;
  outer.born.resize(arity);
  outer.survive.resize(arity);
  for (auto& v : outer.born) v = static_cast<rules::State>(rng() & 1u);
  for (auto& v : outer.survive) v = static_cast<rules::State>(rng() & 1u);
  pool.push_back(outer);
  return pool;
}

TEST(Transpose64, MatchesDefinitionAndRoundTrips) {
  std::mt19937_64 rng(7);
  std::uint64_t a[64];
  std::uint64_t b[64];
  for (int i = 0; i < 64; ++i) a[i] = b[i] = rng();
  core::transpose64(b);
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) {
      ASSERT_EQ((a[r] >> c) & 1u, (b[c] >> r) & 1u)
          << "entry (" << r << "," << c << ")";
    }
  }
  core::transpose64(b);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(BatchSlice, CodeRoundTripArbitraryCodes) {
  std::mt19937_64 rng(11);
  for (const std::size_t n : {1u, 3u, 20u, 63u, 64u}) {
    const std::uint64_t lo_mask =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    std::vector<std::uint64_t> codes(37);
    for (auto& c : codes) c = rng() & lo_mask;
    BatchSlice slice(n);
    slice.load_codes(codes);
    EXPECT_EQ(slice.count(), 37u);
    std::vector<std::uint64_t> out(codes.size(), ~std::uint64_t{0});
    slice.store_codes(out);
    EXPECT_EQ(out, codes) << "n=" << n;
  }
}

TEST(BatchSlice, AlignedRangeFastPathMatchesGeneralLoad) {
  for (const std::uint64_t first : {std::uint64_t{0}, std::uint64_t{1 << 12}}) {
    const std::size_t n = 20;
    BatchSlice fast(n);
    fast.load_code_range(first, 64);  // 64-aligned: pattern path
    std::vector<std::uint64_t> codes(64);
    for (unsigned j = 0; j < 64; ++j) codes[j] = first + j;
    BatchSlice general(n);
    general.load_codes(codes);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fast.planes()[i], general.planes()[i]) << "plane " << i;
    }
  }
}

TEST(BatchSlice, UnalignedAndRaggedRangeRoundTrips) {
  const std::size_t n = 10;
  BatchSlice slice(n);
  slice.load_code_range(100, 17);  // unaligned, ragged
  std::vector<std::uint64_t> out(17);
  slice.store_codes(out);
  for (unsigned j = 0; j < 17; ++j) EXPECT_EQ(out[j], 100u + j);
}

TEST(BatchSlice, ConfigurationRoundTripPastWordBoundary) {
  std::mt19937_64 rng(13);
  for (const std::size_t n : {63u, 64u, 65u, 127u, 128u}) {
    std::vector<Configuration> in;
    for (int j = 0; j < 29; ++j) in.push_back(random_config(n, rng));
    BatchSlice slice(n);
    slice.load_configurations(in);
    std::vector<Configuration> out(in.size(), Configuration(n));
    slice.store_configurations(out);
    for (std::size_t j = 0; j < in.size(); ++j) {
      EXPECT_EQ(out[j], in[j]) << "n=" << n << " lane " << j;
    }
  }
}

TEST(BatchStepper, MatchesScalarStepAcrossRulesAndSizes) {
  std::mt19937_64 rng(17);
  for (const std::size_t n : {3u, 63u, 64u, 65u, 127u, 128u}) {
    for (const auto memory : {Memory::kWith, Memory::kWithout}) {
      const std::uint32_t arity = memory == Memory::kWith ? 3 : 2;
      const std::uint32_t self_index = memory == Memory::kWith ? 1 : 0;
      for (const auto& rule : rule_pool(arity, self_index, rng)) {
        const auto a =
            Automaton::line(n, 1, Boundary::kRing, rule, memory);
        const auto support = core::batch_support(a);
        ASSERT_TRUE(support.ok)
            << rules::describe(rule) << ": " << support.reason;
        BatchStepper stepper(a);
        // Ragged lane count on purpose.
        std::vector<Configuration> in;
        for (int j = 0; j < 41; ++j) in.push_back(random_config(n, rng));
        BatchSlice src(n);
        BatchSlice dst(n);
        src.load_configurations(in);
        stepper.step(src, dst);
        std::vector<Configuration> got(in.size(), Configuration(n));
        dst.store_configurations(got);
        for (std::size_t j = 0; j < in.size(); ++j) {
          const auto want = core::step_synchronous(a, in[j]);
          ASSERT_EQ(got[j], want)
              << rules::describe(rule) << " n=" << n << " lane " << j;
        }
      }
    }
  }
}

TEST(BatchStepper, SingleCellAutomatonViaGraph) {
  // n = 1 has no ring; a lone node with memory sees only itself.
  const graph::Graph g(1, {});
  const auto a = Automaton::from_graph(g, rules::majority(), Memory::kWith);
  ASSERT_TRUE(core::batch_support(a).ok);
  BatchStepper stepper(a);
  BatchSlice src(1);
  BatchSlice dst(1);
  src.load_code_range(0, 2);
  stepper.step(src, dst);
  std::uint64_t out[2];
  dst.store_codes(out);
  EXPECT_EQ(out[0], 0u);  // majority of {0}
  EXPECT_EQ(out[1], 1u);  // majority of {1}
}

TEST(BatchStepper, SweepMatchesApplySequence) {
  std::mt19937_64 rng(19);
  const std::size_t n = 9;
  std::vector<core::NodeId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<core::NodeId>(i);
  std::shuffle(order.begin(), order.end(), rng);
  for (const auto& rule : rule_pool(3, 1, rng)) {
    const auto a = Automaton::line(n, 1, Boundary::kRing, rule, Memory::kWith);
    BatchStepper stepper(a);
    std::vector<Configuration> in;
    for (int j = 0; j < 50; ++j) in.push_back(random_config(n, rng));
    BatchSlice slice(n);
    slice.load_configurations(in);
    stepper.sweep(slice, order);
    std::vector<Configuration> got(in.size(), Configuration(n));
    slice.store_configurations(got);
    for (std::size_t j = 0; j < in.size(); ++j) {
      Configuration want = in[j];
      core::apply_sequence(a, want, order);
      ASSERT_EQ(got[j], want) << rules::describe(rule) << " lane " << j;
    }
  }
}

TEST(BatchCodeStepper, RaggedRangesMatchScalarAdapter) {
  std::mt19937_64 rng(23);
  const std::size_t n = 11;
  for (const auto& rule : rule_pool(3, 1, rng)) {
    const auto a = Automaton::line(n, 1, Boundary::kRing, rule, Memory::kWith);
    phasespace::BatchCodeStepper stepper(a);
    ASSERT_TRUE(stepper.batched()) << rules::describe(rule);
    const auto scalar = phasespace::synchronous_code_step(a);
    // Unaligned start, non-multiple-of-64 count, spanning several blocks.
    const StateCode first = 37;
    const std::size_t count = 3 * 64 + 21;
    std::vector<StateCode> got(count);
    stepper.step_range(first, count, got.data());
    for (std::size_t j = 0; j < count; ++j) {
      ASSERT_EQ(got[j], scalar(first + j))
          << rules::describe(rule) << " code " << first + j;
    }
  }
}

TEST(BatchCodeStepper, SweepModeMatchesScalarAdapter) {
  std::mt19937_64 rng(29);
  const std::size_t n = 8;
  std::vector<core::NodeId> order = {5, 2, 7, 0, 1, 6, 3, 4};
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  phasespace::BatchCodeStepper stepper(a, order);
  ASSERT_TRUE(stepper.batched());
  const auto scalar = phasespace::sweep_code_step(a, order);
  std::vector<StateCode> got(StateCode{1} << n);
  stepper.step_range(0, got.size(), got.data());
  for (StateCode s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s], scalar(s)) << "code " << s;
  }
}

TEST(BatchCodeStepper, PhaseSpaceBuildersAgreeWithPerCodeConstruction) {
  const std::size_t n = 10;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  const auto batch = phasespace::FunctionalGraph::synchronous(a);
  const phasespace::FunctionalGraph scalar(
      static_cast<std::uint32_t>(n), phasespace::synchronous_code_step(a));
  EXPECT_EQ(batch.successors(), scalar.successors());
}

TEST(BatchCodeStepper, FallbackCountsAndLogs) {
  // Non-homogeneous: per-node rules decline the batch engine.
  const std::size_t n = 4;
  const graph::Graph ring(4, std::vector<graph::Edge>{
                                 {0, 1}, {1, 2}, {2, 3}, {3, 0}});
  std::vector<rules::Rule> rules_per_node = {
      rules::majority(), rules::parity(), rules::majority(), rules::parity()};
  const auto a = Automaton::from_graph_per_node(ring, rules_per_node,
                                                Memory::kWith);
  std::vector<obs::LogRecord> captured;
  static obs::Counter& fallbacks = obs::counter("engine.batch.fallback");
  const auto before = fallbacks.value();
  {
    obs::ScopedLogSink sink(
        [&](const obs::LogRecord& r) { captured.push_back(r); });
    phasespace::BatchCodeStepper stepper(a);
    EXPECT_FALSE(stepper.batched());
    EXPECT_STREQ(stepper.fallback_reason(), "non-homogeneous automaton");
    note_batch_fallback(stepper, a, "test");
    // The scalar path still produces the right table.
    const auto scalar = phasespace::synchronous_code_step(a);
    std::vector<StateCode> got(StateCode{1} << n);
    stepper.step_range(0, got.size(), got.data());
    for (StateCode s = 0; s < got.size(); ++s) {
      ASSERT_EQ(got[s], scalar(s)) << "code " << s;
    }
  }
  EXPECT_EQ(fallbacks.value(), before + 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].event, "engine.batch.fallback");
  EXPECT_EQ(captured[0].level, obs::LogLevel::kWarn);
}

/// The table-free census at `workers` workers over `shard_states`-state
/// shards: 64 by default, so even small automata drain several shards
/// concurrently; 0 keeps the builder's default, whose blocks are full
/// 1024-blocks.
phasespace::GoeCensus census_at(
    const Automaton& a, unsigned workers,
    std::optional<std::vector<core::NodeId>> sweep_order = std::nullopt,
    StateCode shard_states = 64) {
  phasespace::ShardedBuildOptions options;
  options.workers = workers;
  if (shard_states != 0) options.shard_states = shard_states;
  runtime::RunControl control;
  return phasespace::count_gardens_of_eden(a, std::move(sweep_order), options,
                                           control);
}

/// Gardens of Eden read off an explicit phase space: the unreached codes.
std::uint64_t unreached(const phasespace::FunctionalGraph& fg) {
  std::vector<char> reached(fg.num_states(), 0);
  for (StateCode s = 0; s < fg.num_states(); ++s) reached[fg.succ(s)] = 1;
  return static_cast<std::uint64_t>(
      std::count(reached.begin(), reached.end(), 0));
}

TEST(GoeCensusExplicit, AgreesWithTransferMatrixOnRings) {
  for (const auto& rule : {rules::majority(), rules::parity()}) {
    for (const std::size_t n : {5u, 9u, 12u}) {
      const auto a =
          Automaton::line(n, 1, Boundary::kRing, rule, Memory::kWith);
      const phasespace::RingPreimageSolver solver(rule, 1, Memory::kWith);
      const auto expected = phasespace::count_gardens_of_eden_ring(solver, n);
      for (unsigned workers = 1; workers <= 4; ++workers) {
        for (const StateCode shard_states : {StateCode{64}, StateCode{0}}) {
          const auto census = census_at(a, workers, std::nullopt, shard_states);
          ASSERT_FALSE(census.truncated);
          EXPECT_EQ(census.gardens, expected)
              << rules::describe(rule) << " n=" << n << " workers=" << workers
              << " shard_states=" << shard_states;
          EXPECT_EQ(census.scanned, StateCode{1} << n);
        }
      }
    }
  }
}

TEST(GoeCensusExplicit, WorksOffRingsAndOnFallbackAutomata) {
  // A path graph (not a ring) — outside the transfer-matrix solver's
  // domain — and a non-homogeneous ring, which the batch engine
  // declines: cross-check both against the explicit phase space.
  const graph::Graph ring(4, std::vector<graph::Edge>{
                                 {0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const std::vector<Automaton> automata = {
      Automaton::line(9, 1, Boundary::kFixedZero, rules::majority(),
                      Memory::kWith),
      Automaton::from_graph_per_node(
          ring,
          {rules::majority(), rules::parity(), rules::majority(),
           rules::parity()},
          Memory::kWith)};
  for (const Automaton& a : automata) {
    const std::uint64_t expected =
        unreached(phasespace::FunctionalGraph::synchronous(a));
    for (unsigned workers = 1; workers <= 4; ++workers) {
      EXPECT_EQ(census_at(a, workers).gardens, expected)
          << "n=" << a.size() << " workers=" << workers;
    }
  }
}

TEST(GoeCensusExplicit, SweepSchemeCountsTheSweepPhaseSpace) {
  const std::size_t n = 10;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  std::vector<core::NodeId> identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    identity[i] = static_cast<core::NodeId>(i);
  }
  std::vector<core::NodeId> reversed(identity.rbegin(), identity.rend());
  for (const auto& order : {identity, reversed}) {
    const std::uint64_t expected =
        unreached(phasespace::FunctionalGraph::sweep(a, order));
    for (unsigned workers = 1; workers <= 4; ++workers) {
      const auto census = census_at(a, workers, order);
      ASSERT_FALSE(census.truncated);
      EXPECT_EQ(census.gardens, expected) << "workers=" << workers;
    }
  }
  // The sweep map differs from the parallel one, and so does its census.
  EXPECT_NE(census_at(a, 1, identity).gardens, census_at(a, 1).gardens);
}

TEST(GoeCensusExplicit, ZeroCellAutomatonHasOneReachedState) {
  // 2^0 = 1 state, which maps to itself: no Garden of Eden.
  const auto a = Automaton::from_graph(graph::Graph(0, {}), rules::majority(),
                                       Memory::kWith);
  for (unsigned workers = 1; workers <= 4; ++workers) {
    const auto census = census_at(a, workers);
    ASSERT_FALSE(census.truncated);
    EXPECT_EQ(census.gardens, 0u);
    EXPECT_EQ(census.scanned, 1u);
  }
}

TEST(GoeCensusExplicit, BudgetTruncationReportsNoGardenCount) {
  const std::size_t n = 12;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  for (unsigned workers = 1; workers <= 4; ++workers) {
    runtime::RunBudget budget;
    budget.max_states = 2000;  // < 2^12 sources
    runtime::RunControl control(budget);
    phasespace::ShardedBuildOptions options;
    options.workers = workers;
    options.shard_states = 64;
    const auto census =
        phasespace::count_gardens_of_eden(a, std::nullopt, options, control);
    EXPECT_TRUE(census.truncated);
    EXPECT_EQ(census.gardens, 0u);
    EXPECT_LE(census.scanned, budget.max_states);
    EXPECT_EQ(census.stop_reason, runtime::StopReason::kMaxStates);
  }
  // A byte budget below the 1-bit/state bitmap stops before any scan.
  runtime::RunBudget budget;
  budget.max_bytes = 8;
  runtime::RunControl control(budget);
  const auto census = phasespace::count_gardens_of_eden(
      a, std::nullopt, phasespace::ShardedBuildOptions{}, control);
  EXPECT_TRUE(census.truncated);
  EXPECT_EQ(census.gardens, 0u);
  EXPECT_EQ(census.scanned, 0u);
  EXPECT_EQ(census.stop_reason, runtime::StopReason::kMaxBytes);
}

/// RAII environment override for the TCA_BATCH_ISA dispatch tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string old_;
  bool had_old_;
};

/// The first field value for `key`, or "" when absent.
std::string field_value(const obs::LogRecord& r, const char* key) {
  for (const auto& f : r.fields) {
    if (f.key != key) continue;
    if (const auto* s = std::get_if<std::string>(&f.value)) return *s;
  }
  return "";
}

TEST(BatchIsaDispatch, ScalarOverrideReproducesBitsliceExactly) {
  const std::size_t n = 10;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  // Reference table from the classic 64-lane engine, no dispatch involved.
  BatchStepper ref(a);
  std::vector<StateCode> want(StateCode{1} << n);
  BatchSlice src(n);
  BatchSlice dst(n);
  for (StateCode first = 0; first < want.size(); first += 64) {
    src.load_code_range(first, 64);
    ref.step(src, dst);
    dst.store_codes(std::span<StateCode>(want.data() + first, 64));
  }
  ScopedEnv pin("TCA_BATCH_ISA", "scalar");
  phasespace::BatchCodeStepper stepper(a);
  ASSERT_TRUE(stepper.batched());
  EXPECT_EQ(stepper.isa(), core::BatchIsa::kScalar);
  std::vector<StateCode> got(want.size());
  stepper.step_range(0, got.size(), got.data());
  EXPECT_EQ(got, want);
}

TEST(BatchIsaDispatch, ForcedTiersProduceIdenticalFunctionalGraphs) {
  const std::size_t n = 9;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  std::vector<StateCode> reference;
  {
    ScopedEnv pin("TCA_BATCH_ISA", "scalar");
    reference = phasespace::FunctionalGraph::synchronous(a).successors();
  }
  for (unsigned i = 0; i < core::kNumBatchIsa; ++i) {
    const auto isa = static_cast<core::BatchIsa>(i);
    if (!core::isa_available(isa)) continue;
    ScopedEnv pin("TCA_BATCH_ISA", core::isa_name(isa));
    phasespace::BatchCodeStepper stepper(a);
    ASSERT_TRUE(stepper.batched()) << core::isa_name(isa);
    EXPECT_EQ(stepper.isa(), isa);
    const auto fg = phasespace::FunctionalGraph::synchronous(a);
    EXPECT_EQ(fg.successors(), reference) << core::isa_name(isa);
  }
}

TEST(BatchIsaDispatch, UnavailableTierDegradesToBestWithWarn) {
  // Some tier is always unavailable: the NEON tier on x86-64 builds, the
  // AVX tiers on aarch64 builds.
  const char* unavailable = nullptr;
  for (unsigned i = 0; i < core::kNumBatchIsa; ++i) {
    const auto isa = static_cast<core::BatchIsa>(i);
    if (!core::isa_available(isa)) {
      unavailable = core::isa_name(isa);
      break;
    }
  }
  if (unavailable == nullptr) {
    GTEST_SKIP() << "every tier is available on this host";
  }
  const std::size_t n = 8;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                                 Memory::kWith);
  const auto scalar = phasespace::synchronous_code_step(a);
  std::vector<StateCode> reference(StateCode{1} << n);
  for (StateCode s = 0; s < reference.size(); ++s) reference[s] = scalar(s);

  static obs::Counter& fallbacks = obs::counter("engine.batch.fallback");
  std::vector<obs::LogRecord> captured;
  const auto before = fallbacks.value();
  ScopedEnv pin("TCA_BATCH_ISA", unavailable);
  {
    obs::ScopedLogSink sink(
        [&](const obs::LogRecord& r) { captured.push_back(r); });
    phasespace::BatchCodeStepper stepper(a);
    // Degrades, but still batched at the best available tier.
    ASSERT_TRUE(stepper.batched());
    EXPECT_EQ(stepper.isa(), core::best_supported_isa());
    std::vector<StateCode> got(reference.size());
    stepper.step_range(0, got.size(), got.data());
    EXPECT_EQ(got, reference);
    // Same override again: the warn is latched, not repeated.
    phasespace::BatchCodeStepper again(a);
    EXPECT_EQ(again.isa(), core::best_supported_isa());
  }
  EXPECT_EQ(fallbacks.value(), before + 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].event, "engine.batch.fallback");
  EXPECT_EQ(captured[0].level, obs::LogLevel::kWarn);
  EXPECT_EQ(field_value(captured[0], "context"), "isa-dispatch");
  EXPECT_EQ(field_value(captured[0], "requested"), unavailable);
  EXPECT_EQ(field_value(captured[0], "effective"),
            core::isa_name(core::best_supported_isa()));
}

TEST(BatchIsaDispatch, UnrecognizedOverrideDegradesToBestWithWarn) {
  const std::size_t n = 6;
  const auto a = Automaton::line(n, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  static obs::Counter& fallbacks = obs::counter("engine.batch.fallback");
  std::vector<obs::LogRecord> captured;
  const auto before = fallbacks.value();
  ScopedEnv pin("TCA_BATCH_ISA", "not-an-isa");
  {
    obs::ScopedLogSink sink(
        [&](const obs::LogRecord& r) { captured.push_back(r); });
    phasespace::BatchCodeStepper stepper(a);
    ASSERT_TRUE(stepper.batched());
    EXPECT_EQ(stepper.isa(), core::best_supported_isa());
  }
  EXPECT_EQ(fallbacks.value(), before + 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(field_value(captured[0], "context"), "isa-dispatch");
  EXPECT_EQ(field_value(captured[0], "reason"),
            "unrecognized TCA_BATCH_ISA value");
}

}  // namespace
}  // namespace tca
