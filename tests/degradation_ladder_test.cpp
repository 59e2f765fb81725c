// Engine-degradation ladder differentials (docs/robustness.md): every
// rung — wide-SIMD, 64-lane batch, scalar — must produce bit-identical
// successor tables and Garden-of-Eden censuses over the property-based
// generators, because a degraded result IS the result. Supervised builds
// and censuses are then driven through injected memory pressure and
// composed fault plans to prove the walk down the ladder recovers without
// changing a single bit.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "runtime/budget.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"
#include "runtime/supervisor.hpp"
#include "testing/generators.hpp"

namespace tca::phasespace {
namespace {

using runtime::EngineRung;
using runtime::ScopedFaultPlan;

constexpr EngineRung kAllRungs[] = {EngineRung::kWideSimd,
                                    EngineRung::kBatch64, EngineRung::kScalar};

testing::TestCase ladder_case(std::uint64_t index) {
  testing::CaseOptions options;
  options.max_nodes = 10;
  return testing::random_case(testing::mix_seed(0x1adde5ull, index), options);
}

/// Supervisor options for tests: deterministic, no sleeping.
runtime::SupervisorOptions fast_supervision() {
  runtime::SupervisorOptions options;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff = std::chrono::milliseconds{1};
  options.retry.seed = 0x1adde5ull;
  options.apply_backoff = false;
  return options;
}

TEST(DegradationLadder, EveryRungBuildsTheIdenticalTable) {
  for (std::uint64_t i = 0; i < 24; ++i) {
    const auto tc = ladder_case(i);
    if (tc.n == 0) continue;
    const auto a = tc.automaton();
    const auto reference = FunctionalGraph::synchronous(a);
    for (const EngineRung rung : kAllRungs) {
      ShardedBuildOptions options;
      options.rung = rung;
      runtime::RunControl control;
      const auto build = build_synchronous_sharded(a, options, control);
      ASSERT_TRUE(build.complete())
          << "case " << i << " rung " << runtime::rung_name(rung);
      ASSERT_EQ(build.build.graph->successors(), reference.successors())
          << "case " << i << " rung " << runtime::rung_name(rung);
    }
  }
}

TEST(DegradationLadder, EveryRungCountsTheIdenticalGoeCensus) {
  for (std::uint64_t i = 0; i < 24; ++i) {
    const auto tc = ladder_case(i);
    const auto a = tc.automaton();
    ShardedBuildOptions options;
    options.rung = EngineRung::kScalar;
    options.workers = 1;
    runtime::RunControl ref_control;
    const auto reference =
        count_gardens_of_eden(a, std::nullopt, options, ref_control);
    ASSERT_FALSE(reference.truncated);
    for (const EngineRung rung : kAllRungs) {
      for (unsigned workers = 1; workers <= 4; ++workers) {
        options.rung = rung;
        options.workers = workers;
        options.shard_states = 1 + i % 100;
        runtime::RunControl control;
        const auto census =
            count_gardens_of_eden(a, std::nullopt, options, control);
        ASSERT_FALSE(census.truncated)
            << "case " << i << " rung " << runtime::rung_name(rung);
        EXPECT_EQ(census.gardens, reference.gardens)
            << "case " << i << " rung " << runtime::rung_name(rung)
            << " workers " << workers;
        EXPECT_EQ(census.scanned, reference.scanned);
      }
    }
  }
}

TEST(DegradationLadder, TruncationAtAnyRungIsAnExactPrefix) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tca-ladder-prefix-" + std::to_string(::getpid()));
  // The generated cases, plus one ring with several 512-state shards so
  // every rung cuts a non-empty prefix.
  std::vector<core::Automaton> automata;
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto tc = ladder_case(i);
    if (tc.n >= 4) automata.push_back(tc.automaton());
  }
  automata.push_back(core::Automaton::line(12, 1, core::Boundary::kRing,
                                           rules::majority(),
                                           core::Memory::kWith));
  for (std::size_t i = 0; i < automata.size(); ++i) {
    const auto& a = automata[i];
    const auto full = FunctionalGraph::synchronous(a);
    for (const EngineRung rung : kAllRungs) {
      SCOPED_TRACE("automaton " + std::to_string(i) + " rung " +
                   runtime::rung_name(rung));
      // One worker claims shards in order: the stored shards are a prefix.
      ShardedBuildOptions options;
      options.store = StoreKind::kDisk;
      options.disk_dir = dir.string();
      options.shard_states = kPutAlign;
      options.workers = 1;
      options.rung = rung;
      runtime::RunBudget budget;
      budget.max_states = full.num_states() - 1;
      runtime::RunControl control(budget);
      std::error_code ec;
      fs::remove_all(dir, ec);
      const auto build = build_synchronous_sharded(a, options, control);
      ASSERT_TRUE(build.build.truncated());
      const std::uint64_t stored = build.stats.stored_states;
      EXPECT_EQ(stored, (full.num_states() - 1) / kPutAlign * kPutAlign);
      EXPECT_EQ(build.build.states_built, stored);
      ASSERT_NE(build.store, nullptr);
      std::vector<StateCode> prefix(static_cast<std::size_t>(stored));
      build.store->read_range(0, prefix.size(), prefix.data());
      for (std::uint64_t s = 0; s < stored; ++s) {
        ASSERT_EQ(prefix[s], full.succ(s)) << "state " << s;
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(DegradationLadder, SupervisedBuildRecoversFromMemoryPressure) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto tc = ladder_case(i);
    if (tc.n == 0) continue;
    const auto a = tc.automaton();
    const auto reference = FunctionalGraph::synchronous(a);

    ScopedFaultPlan plan({.alloc_failure_at = 1});
    const auto out = supervised_synchronous_sharded(a, {}, fast_supervision());
    EXPECT_EQ(out.report.state, runtime::SupervisedState::kCompleted)
        << "case " << i;
    EXPECT_EQ(out.report.attempts, 2u);
    EXPECT_TRUE(out.report.degraded);
    EXPECT_EQ(out.report.final_rung, EngineRung::kBatch64)
        << "one bad_alloc walks exactly one rung down";
    ASSERT_TRUE(out.build.complete()) << "case " << i;
    ASSERT_EQ(out.build.build.graph->successors(), reference.successors())
        << "case " << i << ": the degraded result must be bit-identical";
  }
}

TEST(DegradationLadder, SupervisedCensusRecoversFromMemoryPressure) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto tc = ladder_case(i);
    if (tc.n == 0) continue;
    const auto a = tc.automaton();
    runtime::RunControl ref_control;
    const std::uint64_t reference =
        count_gardens_of_eden(a, std::nullopt, {}, ref_control).gardens;

    // One census per attempt at the attempt's rung, as the service runs it.
    ScopedFaultPlan plan({.alloc_failure_at = 1});
    runtime::Supervisor supervisor(fast_supervision());
    GoeCensus census;
    const auto report = supervisor.run(
        "goe_census", [&](runtime::AttemptContext& ctx) {
          ShardedBuildOptions options;
          options.rung = ctx.rung;
          census = count_gardens_of_eden(a, std::nullopt, options, ctx.control);
          return census.truncated ? runtime::AttemptOutcome::kTruncated
                                  : runtime::AttemptOutcome::kCompleted;
        });
    EXPECT_EQ(report.state, runtime::SupervisedState::kCompleted)
        << "case " << i;
    EXPECT_EQ(report.attempts, 2u);
    EXPECT_TRUE(report.degraded);
    EXPECT_EQ(report.final_rung, EngineRung::kBatch64)
        << "one bad_alloc walks exactly one rung down";
    EXPECT_FALSE(census.truncated);
    EXPECT_EQ(census.gardens, reference) << "case " << i;
  }
}

TEST(DegradationLadder, ComposedPlanStillRecovers) {
  // Satellite requirement: knobs are independent countdowns, so one plan
  // composes several faults — here an injected transient on the first
  // attempt AND memory pressure on the (retried) second attempt's first
  // guarded allocation. The supervisor absorbs both.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto tc = ladder_case(i);
    if (tc.n == 0) continue;
    const auto a = tc.automaton();
    const auto reference = FunctionalGraph::synchronous(a);

    ScopedFaultPlan plan({.alloc_failure_at = 1, .retry_transient_at = 1});
    const auto out = supervised_synchronous_sharded(a, {}, fast_supervision());
    EXPECT_EQ(out.report.state, runtime::SupervisedState::kCompleted)
        << "case " << i;
    EXPECT_EQ(out.report.attempts, 3u)
        << "attempt 1: injected transient; attempt 2: bad_alloc; attempt 3 ok";
    ASSERT_EQ(out.report.failures.size(), 2u);
    EXPECT_EQ(out.report.failures[0].code, tca::ErrorCode::kFaultInjected);
    EXPECT_TRUE(out.report.degraded);
    ASSERT_TRUE(out.build.complete());
    ASSERT_EQ(out.build.build.graph->successors(), reference.successors())
        << "case " << i;
  }
}

TEST(DegradationLadder, SupervisedBuildHonoursStartRung) {
  const auto tc = ladder_case(3);
  const auto a = tc.automaton();
  const auto reference = FunctionalGraph::synchronous(a);
  for (const EngineRung rung : kAllRungs) {
    auto options = fast_supervision();
    options.start_rung = rung;
    const auto out = supervised_synchronous_sharded(a, {}, options);
    EXPECT_EQ(out.report.state, runtime::SupervisedState::kCompleted);
    EXPECT_EQ(out.report.final_rung, rung);
    EXPECT_FALSE(out.report.degraded);
    ASSERT_TRUE(out.build.complete());
    ASSERT_EQ(out.build.build.graph->successors(), reference.successors())
        << runtime::rung_name(rung);
  }
}

TEST(DegradationLadder, SupervisedCancellationIsWellFormedTruncation) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto tc = ladder_case(i);
    if (tc.n < 4) continue;
    const auto a = tc.automaton();
    const auto full = FunctionalGraph::synchronous(a);

    ScopedFaultPlan plan({.cancel_at_visit = 5});
    const auto out = supervised_synchronous_sharded(a, {}, fast_supervision());
    ASSERT_EQ(out.report.state, runtime::SupervisedState::kTruncated)
        << "case " << i;
    EXPECT_EQ(out.report.attempts, 1u) << "truncation is never retried";
    EXPECT_EQ(out.report.last_status.stop_reason,
              runtime::StopReason::kCancelled);
    // Counts only: no graph, no partial RAM table, and the whole shards
    // stored never exceed the states stepped before the cancellation.
    EXPECT_FALSE(out.build.build.graph.has_value());
    EXPECT_EQ(out.build.store, nullptr);
    EXPECT_LE(out.build.stats.stored_states, out.build.build.states_built);
    EXPECT_LT(out.build.build.states_built, full.num_states());
  }
}

}  // namespace
}  // namespace tca::phasespace
