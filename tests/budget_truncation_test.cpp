// Budget-truncation semantics across every budgeted engine
// (docs/robustness.md): when a RunControl trips, each engine must return a
// well-formed PARTIAL result — whole stored shards (phase-space builds;
// an exact prefix with one worker), an exact subset (BFS/DFS reach sets)
// — with `truncated` and a correct stop_reason, and a generous budget
// must reproduce the unbudgeted result bit-for-bit. Fixed tiny instances
// keep every expectation deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "aca/explorer.hpp"
#include "core/automaton.hpp"
#include "interleave/explorer.hpp"
#include "interleave/vm.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "rules/rule.hpp"
#include "runtime/budget.hpp"

namespace tca {
namespace {

namespace fs = std::filesystem;
using phasespace::FunctionalGraph;
using phasespace::ShardedBuild;
using phasespace::ShardedBuildOptions;
using phasespace::StateCode;
using phasespace::StoreKind;
using runtime::RunBudget;
using runtime::RunControl;
using runtime::StopReason;

/// Per-test, per-process scratch directory for disk-backed builds.
class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("tca-budget-trunc-" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()) +
               "-" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// One worker over kPutAlign-sized disk shards: shards are claimed in
/// order, so a truncated build's stored shards are a prefix and its
/// partial store stays readable.
ShardedBuildOptions serial_disk_options(const TempDir& dir) {
  ShardedBuildOptions options;
  options.store = StoreKind::kDisk;
  options.disk_dir = dir.str();
  options.shard_states = phasespace::kPutAlign;
  options.workers = 1;
  return options;
}

/// Checks a truncated one-worker disk build: `stored` states in whole
/// shards, every stepped state stored, and the stored prefix equal to
/// the full table.
void expect_exact_prefix(const ShardedBuild& build, const FunctionalGraph& full,
                         std::uint64_t stored) {
  EXPECT_EQ(build.stats.stored_states, stored);
  EXPECT_EQ(build.build.states_built, stored);
  ASSERT_NE(build.store, nullptr);  // the partial disk store, for resume
  std::vector<StateCode> prefix(static_cast<std::size_t>(stored));
  build.store->read_range(0, prefix.size(), prefix.data());
  for (std::uint64_t s = 0; s < stored; ++s) {
    EXPECT_EQ(prefix[s], full.succ(s)) << "state " << s;
  }
}

core::Automaton majority_ring(std::uint32_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing, rules::majority(),
                               core::Memory::kWith);
}

core::Automaton parity_ring(std::uint32_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing, rules::parity(),
                               core::Memory::kWith);
}

TEST(BudgetTruncation, SerialBuildStopsWithExactPrefix) {
  const auto a = parity_ring(12);  // 4096 states: eight 512-state shards
  const auto full = FunctionalGraph::synchronous(a);
  const TempDir dir;

  // 512-state blocks: the budget admits two and trips on the third.
  RunControl control(RunBudget{.max_states = 1500});
  const auto build =
      phasespace::build_synchronous_sharded(a, serial_disk_options(dir),
                                            control);
  ASSERT_FALSE(build.complete());
  EXPECT_FALSE(build.build.graph.has_value());
  EXPECT_EQ(build.build.status.stop_reason, StopReason::kMaxStates);
  expect_exact_prefix(build, full, 1024);
}

TEST(BudgetTruncation, SweepBuildStopsWithExactPrefix) {
  const auto a = majority_ring(11);
  std::vector<core::NodeId> order{3, 1, 4, 0, 5, 2, 6, 10, 8, 7, 9};
  const auto full = FunctionalGraph::sweep(a, order);
  const TempDir dir;

  RunControl control(RunBudget{.max_states = 1100});
  const auto build = phasespace::build_sweep_sharded(
      a, order, serial_disk_options(dir), control);
  ASSERT_FALSE(build.complete());
  EXPECT_EQ(build.build.status.stop_reason, StopReason::kMaxStates);
  expect_exact_prefix(build, full, 1024);
}

TEST(BudgetTruncation, GenerousBudgetReproducesTheUnbudgetedTable) {
  const auto a = majority_ring(8);
  const auto full = FunctionalGraph::synchronous(a);

  RunControl control;  // unlimited
  ShardedBuildOptions options;
  const auto build = phasespace::build_synchronous_sharded(a, options, control);
  ASSERT_TRUE(build.complete());
  EXPECT_EQ(build.build.status.stop_reason, StopReason::kNone);
  EXPECT_EQ(build.build.states_built, full.num_states());
  EXPECT_EQ(build.build.graph->successors(), full.successors());
}

TEST(BudgetTruncation, ParallelBuildReportsCountsOnlyWhenTruncated) {
  const auto a = parity_ring(12);  // 4096 states, many 256-state shards

  ShardedBuildOptions options;
  options.shard_states = 256;
  options.workers = 2;
  RunControl control(RunBudget{.max_states = 1000});
  const auto build = phasespace::build_synchronous_sharded(a, options, control);
  ASSERT_FALSE(build.complete());
  EXPECT_EQ(build.build.status.stop_reason, StopReason::kMaxStates);
  // Shards complete in nondeterministic order, so no prefix is promised —
  // only counts, and no partial RAM table: whole stored shards, never
  // more states stepped than the budget admitted.
  EXPECT_EQ(build.store, nullptr);
  EXPECT_EQ(build.stats.stored_states % options.shard_states, 0u);
  EXPECT_LE(build.stats.stored_states, build.build.states_built);
  EXPECT_LE(build.build.states_built, 1000u);

  // And with no budget the parallel build completes, matching serial.
  RunControl unlimited;
  const auto ok = phasespace::build_synchronous_sharded(a, options, unlimited);
  ASSERT_TRUE(ok.complete());
  EXPECT_EQ(ok.build.graph->successors(),
            FunctionalGraph::synchronous(a).successors());
}

TEST(BudgetTruncation, ByteBudgetRejectsTheTableUpFront) {
  const auto a = parity_ring(12);  // 4096 states x 8 bytes
  RunControl control(RunBudget{.max_bytes = 1024});
  ShardedBuildOptions options;
  const auto build = phasespace::build_synchronous_sharded(a, options, control);
  ASSERT_FALSE(build.complete());
  EXPECT_EQ(build.build.status.stop_reason, StopReason::kMaxBytes);
  EXPECT_EQ(build.build.states_built, 0u);
}

TEST(BudgetTruncation, AcaExploreReturnsSubsetOfFullReachSet) {
  const auto a = majority_ring(5);
  const aca::AcaSystem sys(a);
  const auto full = aca::explore(sys, 0b00101);
  ASSERT_FALSE(full.truncated);

  RunControl control(RunBudget{.max_states = 40});
  const auto partial = aca::explore(sys, 0b00101, control);
  ASSERT_TRUE(partial.truncated);
  EXPECT_EQ(partial.stop_reason, StopReason::kMaxStates);
  EXPECT_LT(partial.global_states, full.global_states);
  EXPECT_TRUE(std::includes(full.configs.begin(), full.configs.end(),
                            partial.configs.begin(), partial.configs.end()));

  // A budget larger than the space reproduces the full exploration.
  RunControl roomy(RunBudget{.max_states = 1u << 20});
  const auto again = aca::explore(sys, 0b00101, roomy);
  EXPECT_FALSE(again.truncated);
  EXPECT_EQ(again.configs, full.configs);
  EXPECT_EQ(again.global_states, full.global_states);
}

TEST(BudgetTruncation, TruncatedSubsumptionVerdictIsFlaggedMeaningless) {
  const auto a = majority_ring(5);
  RunControl control(RunBudget{.max_states = 8});
  const auto verdict = aca::compare_reach_sets(a, 0b00101, control);
  ASSERT_TRUE(verdict.truncated);
  EXPECT_NE(verdict.stop_reason, StopReason::kNone);
  // Containment flags stay false on truncation: callers must skip.
  EXPECT_FALSE(verdict.contains_synchronous);
  EXPECT_FALSE(verdict.contains_sequential);
}

TEST(BudgetTruncation, InterleaveExplorerReturnsOutcomeSubset) {
  const auto m = interleave::machine_level_example(7, 9);
  const auto initial = m.initial({0});
  const auto full = interleaving_outcomes(m, initial);

  RunControl control(RunBudget{.max_states = 10});
  const auto partial = interleaving_outcomes(m, initial, control);
  ASSERT_TRUE(partial.truncated);
  EXPECT_EQ(partial.stop_reason, StopReason::kMaxStates);
  EXPECT_TRUE(std::includes(full.begin(), full.end(),
                            partial.outcomes.begin(), partial.outcomes.end()));

  RunControl unlimited;
  const auto complete = interleaving_outcomes(m, initial, unlimited);
  EXPECT_FALSE(complete.truncated);
  EXPECT_EQ(complete.outcomes, full);
}

TEST(BudgetTruncation, GoeCensusScansAnExactPrefix) {
  phasespace::RingPreimageSolver solver(rules::majority(), 1,
                                        core::Memory::kWith);
  const std::size_t n = 10;
  const auto full = phasespace::count_gardens_of_eden_ring(solver, n);

  RunControl control(RunBudget{.max_states = 100});
  const auto census =
      phasespace::count_gardens_of_eden_ring(solver, n, control);
  ASSERT_TRUE(census.truncated);
  EXPECT_EQ(census.stop_reason, StopReason::kMaxStates);
  EXPECT_EQ(census.scanned, 100u);
  // Recount the same prefix directly: scan order is ascending state code.
  std::uint64_t expect = 0;
  for (std::uint64_t code = 0; code < census.scanned; ++code) {
    core::Configuration target(n);
    for (std::size_t i = 0; i < n; ++i) target.set(i, (code >> i) & 1u);
    if (solver.is_garden_of_eden(target)) ++expect;
  }
  EXPECT_EQ(census.gardens, expect);

  RunControl unlimited;
  const auto complete =
      phasespace::count_gardens_of_eden_ring(solver, n, unlimited);
  EXPECT_FALSE(complete.truncated);
  EXPECT_EQ(complete.gardens, full);
  EXPECT_EQ(complete.scanned, std::uint64_t{1} << n);
}

TEST(BudgetTruncation, PreCancelledControlStopsEveryEngineImmediately) {
  RunBudget unlimited;
  runtime::CancelToken token;
  token.cancel();

  const auto a = majority_ring(6);
  {
    RunControl control(unlimited, token);
    const auto build = phasespace::build_synchronous_sharded(
        a, ShardedBuildOptions{}, control);
    EXPECT_TRUE(build.build.truncated());
    EXPECT_EQ(build.build.status.stop_reason, StopReason::kCancelled);
    EXPECT_EQ(build.build.states_built, 0u);
  }
  {
    RunControl control(unlimited, token);
    const aca::AcaSystem sys(a);
    const auto reach = aca::explore(sys, 0, control);
    EXPECT_TRUE(reach.truncated);
    EXPECT_EQ(reach.stop_reason, StopReason::kCancelled);
  }
  {
    RunControl control(unlimited, token);
    phasespace::RingPreimageSolver solver(rules::majority(), 1,
                                          core::Memory::kWith);
    const auto census =
        phasespace::count_gardens_of_eden_ring(solver, 8, control);
    EXPECT_TRUE(census.truncated);
    EXPECT_EQ(census.stop_reason, StopReason::kCancelled);
    EXPECT_EQ(census.scanned, 0u);
  }
}

}  // namespace
}  // namespace tca
