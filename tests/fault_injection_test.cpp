// Deterministic fault-injection matrix (docs/robustness.md): every
// graceful-degradation path — injected allocation failure, injected
// thread-pool chunk and sharded-build shard exceptions, injected
// cancellation at the k-th visited state, simulated thread-spawn
// failure — driven over generator-produced
// random cases from the property-based harness. The CI `faultinject` job
// re-runs this suite under ASan+UBSan to prove the failure paths leak
// nothing and never terminate.

#include <gtest/gtest.h>

#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/thread_pool.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/sharded_build.hpp"
#include "runtime/budget.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"

namespace tca::runtime {
namespace {

using phasespace::FunctionalGraph;
using phasespace::StateCode;

/// Random cases kept small enough for explicit phase spaces.
testing::TestCase small_case(std::uint64_t index) {
  testing::CaseOptions options;
  options.max_nodes = 10;
  return testing::random_case(testing::mix_seed(0xFA17ull, index), options);
}

/// The successor table stepped chunk by chunk across `pool` (one batch
/// stepper per chunk): the pool's own fault surface.
std::vector<StateCode> pool_table(const core::Automaton& a,
                                  core::ThreadPool& pool) {
  std::vector<StateCode> table(std::size_t{1} << a.size());
  pool.parallel_for(0, table.size(), 64,
                    [&a, &table](std::size_t begin, std::size_t end) {
                      phasespace::BatchCodeStepper stepper(a);
                      stepper.step_range(begin, end - begin,
                                         table.data() + begin);
                    });
  return table;
}

/// A multi-worker sharded build of many small shards.
phasespace::ShardedBuild sharded(const core::Automaton& a,
                                 RunControl& control) {
  phasespace::ShardedBuildOptions options;
  options.shard_states = 64;
  options.workers = 3;
  return phasespace::build_synchronous_sharded(a, options, control);
}

TEST(FaultInjection, HooksAreInertWithoutAPlan) {
  EXPECT_FALSE(fault::active());
  EXPECT_NO_THROW(fault::check_alloc(1 << 30));
  EXPECT_NO_THROW(fault::check_chunk());
  EXPECT_FALSE(fault::tick_visit(1));
  EXPECT_FALSE(fault::should_fail_thread_spawn());
}

TEST(FaultInjection, PlanIsScopedAndConsumedExactlyOnce) {
  {
    ScopedFaultPlan plan({.alloc_failure_at = 2});
    EXPECT_TRUE(fault::active());
    EXPECT_NO_THROW(fault::check_alloc());   // 1st: survives
    EXPECT_THROW(fault::check_alloc(), std::bad_alloc);  // 2nd: fires
    EXPECT_NO_THROW(fault::check_alloc());   // consumed
  }
  EXPECT_FALSE(fault::active());
  EXPECT_NO_THROW(fault::check_alloc());
}

TEST(FaultInjection, AllocMinBytesTargetsOnlyLargeAllocations) {
  ScopedFaultPlan plan({.alloc_failure_at = 1, .alloc_min_bytes = 1024});
  // Small bookkeeping allocations pass the guard without consuming it.
  EXPECT_NO_THROW(fault::check_alloc(16));
  EXPECT_NO_THROW(fault::check_alloc(1023));
  EXPECT_NO_THROW(fault::check_alloc());  // advisory size 0
  // The first allocation at or above the threshold fires.
  EXPECT_THROW(fault::check_alloc(1024), std::bad_alloc);
  EXPECT_NO_THROW(fault::check_alloc(1 << 20));  // consumed
}

TEST(FaultInjection, ComposedPlanKnobsCountDownIndependently) {
  // One plan, several faults: each knob is its own countdown and fires
  // exactly once, so a single scenario can chain distinct failures (the
  // chaos sweep's multi-fault plans rely on this).
  ScopedFaultPlan plan({.alloc_failure_at = 1, .chunk_exception_at = 2});
  EXPECT_NO_THROW(fault::check_chunk());              // chunk: 1st survives
  EXPECT_THROW(fault::check_alloc(), std::bad_alloc);  // alloc: fires
  EXPECT_THROW(fault::check_chunk(), tca::InjectedFaultError);  // 2nd fires
  EXPECT_NO_THROW(fault::check_alloc());
  EXPECT_NO_THROW(fault::check_chunk());
}

TEST(FaultInjection, RetryKnobIsInertOutsideSupervisedAttempts) {
  EXPECT_NO_THROW(fault::tick_retry_attempt());
  {
    ScopedFaultPlan plan({.retry_transient_at = 2});
    EXPECT_NO_THROW(fault::tick_retry_attempt());
    EXPECT_THROW(fault::tick_retry_attempt(), tca::InjectedFaultError);
    EXPECT_NO_THROW(fault::tick_retry_attempt());
  }
  EXPECT_NO_THROW(fault::tick_retry_attempt());
}

TEST(FaultInjection, AllocFaultAbortsSerialBuildsCleanly) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto tc = small_case(i);
    if (tc.n == 0) continue;
    const auto a = tc.automaton();
    {
      ScopedFaultPlan plan({.alloc_failure_at = 1});
      EXPECT_THROW((void)FunctionalGraph::synchronous(a), std::bad_alloc)
          << "case " << i;
    }
    // The failure was transient: the identical build now succeeds.
    const auto rebuilt = FunctionalGraph::synchronous(a);
    EXPECT_EQ(rebuilt.num_states(), std::uint64_t{1} << tc.n);
  }
}

TEST(FaultInjection, ChunkFaultAbortsParallelBuildAndPoolSurvives) {
  core::ThreadPool pool(3);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto tc = small_case(i);
    if (tc.n < 2) continue;
    const auto a = tc.automaton();
    {
      ScopedFaultPlan plan({.chunk_exception_at = 1});
      EXPECT_THROW((void)pool_table(a, pool), tca::InjectedFaultError)
          << "case " << i;
    }
    {
      // A faulting shard aborts the sharded build the same way.
      ScopedFaultPlan plan({.chunk_exception_at = 1});
      RunControl control;
      EXPECT_THROW((void)sharded(a, control), tca::InjectedFaultError)
          << "case " << i;
    }
    // Pool and builds still work, bit-identical to the one-worker path.
    const auto serial = FunctionalGraph::synchronous(a);
    ASSERT_EQ(pool_table(a, pool), serial.successors()) << "case " << i;
    RunControl control;
    ASSERT_EQ(sharded(a, control).build.graph->successors(),
              serial.successors())
        << "case " << i;
  }
}

TEST(FaultInjection, CancelAtVisitTruncatesBudgetedBuild) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto tc = small_case(i);
    if (tc.n < 4) continue;
    const auto a = tc.automaton();
    const auto full = FunctionalGraph::synchronous(a);

    ScopedFaultPlan plan({.cancel_at_visit = 5});
    RunControl control;
    const auto build = sharded(a, control);
    ASSERT_TRUE(build.build.truncated()) << "case " << i;
    EXPECT_EQ(build.build.status.stop_reason, StopReason::kCancelled);
    EXPECT_LT(build.build.states_built, full.num_states());
    // Whole shards only, each one stepped before the cancellation.
    EXPECT_EQ(build.stats.stored_states % 64, 0u);
    EXPECT_LE(build.stats.stored_states, build.build.states_built);
  }
}

TEST(FaultInjection, SpawnFailureDegradedPoolStillBuildsCorrectTables) {
  ScopedFaultPlan plan({.fail_thread_spawn = true});
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 1u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    const auto tc = small_case(i);
    if (tc.n == 0) continue;
    const auto a = tc.automaton();
    const auto serial = FunctionalGraph::synchronous(a);
    ASSERT_EQ(pool_table(a, pool), serial.successors()) << "case " << i;
    // The sharded builder degrades to the calling thread alone.
    RunControl control;
    const auto degraded = sharded(a, control);
    ASSERT_TRUE(degraded.complete()) << "case " << i;
    ASSERT_EQ(degraded.build.graph->successors(), serial.successors())
        << "case " << i;
  }
}

TEST(FaultInjection, AllocFaultLeavesNoCheckpointResidue) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path =
      (dir / ("tca_fault_ckpt_test_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
  {
    ScopedFaultPlan plan({.alloc_failure_at = 1});
    Checkpoint ck;
    ck.payload = "data";
    EXPECT_THROW(save_checkpoint(path, ck), std::bad_alloc);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // And the same save succeeds once the plan is gone.
  Checkpoint ck;
  ck.payload = "data";
  save_checkpoint(path, ck);
  EXPECT_EQ(load_checkpoint(path).payload, "data");
  std::filesystem::remove(path);
}

TEST(FaultInjection, SubsumptionOracleSkipsOnInjectedTruncation) {
  // Satellite requirement: a truncated reach set must make the subsumption
  // oracle SKIP (vacuous pass), never fail — here truncation is forced by
  // cancelling the oracle's internal exploration at its first visit.
  const auto* oracle = testing::find_oracle("reach-subsumption");
  ASSERT_NE(oracle, nullptr);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto tc =
        testing::random_case(testing::mix_seed(0x5ca1eull, i),
                             oracle->options);
    ScopedFaultPlan plan({.cancel_at_visit = 1});
    const auto result = oracle->check(tc);
    EXPECT_TRUE(result.ok)
        << "oracle failed instead of skipping on truncation: " << result.note;
  }
}

}  // namespace
}  // namespace tca::runtime
