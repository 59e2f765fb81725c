// Sharded work-stealing phase-space builds (docs/performance.md):
// small-n builds below one shard against the scalar reference,
// shard-boundary exactness against the serial table, determinism across
// worker counts and steal interleavings, the budget/truncation contract,
// NUMA topology probing, and disk-backed resume through the supervised
// wrapper.

#include "phasespace/sharded_build.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/automaton.hpp"
#include "graph/builders.hpp"
#include "obs/metrics.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/preimage.hpp"
#include "runtime/budget.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::phasespace {
namespace {

namespace fs = std::filesystem;

core::Automaton majority_ring(std::size_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing,
                               rules::majority(), core::Memory::kWith);
}

std::vector<StateCode> table_of(const SuccessorStore& store) {
  std::vector<StateCode> v(static_cast<std::size_t>(store.num_entries()));
  store.read_range(0, v.size(), v.data());
  return v;
}

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(fs::temp_directory_path() /
              (std::string("tca-sharded-test-") + tag + "-" +
               std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// A majority automaton on a path of n cells (n = 0 is the empty one).
core::Automaton majority_path(std::uint32_t n) {
  return core::Automaton::from_graph(graph::path(n), rules::majority(),
                                     core::Memory::kWith);
}

// The facades and every small build run on this builder, so builds
// below one shard — and ragged shard splits of them — must match the
// scalar reference entry for entry on every backend, in both modes,
// including the empty automaton (one 0-bit entry).
TEST(ShardedBuild, SmallNBuildsMatchTheScalarReference) {
  for (const std::uint32_t n : {0u, 1u, 5u, 9u, 10u, 16u}) {
    const auto a = majority_path(n);
    std::vector<core::NodeId> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = (i * 7 + 3) % n;
    const auto sync_step = synchronous_code_step(a);
    const auto sweep_step = sweep_code_step(a, order);
    const StateCode count = StateCode{1} << n;
    std::vector<StateCode> sync_want(count);
    std::vector<StateCode> sweep_want(count);
    for (StateCode s = 0; s < count; ++s) {
      sync_want[s] = sync_step(s);
      sweep_want[s] = sweep_step(s);
    }
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_EQ(FunctionalGraph::synchronous(a).successors(), sync_want);
    EXPECT_EQ(FunctionalGraph::sweep(a, order).successors(), sweep_want);
    for (const unsigned workers : {1u, 3u}) {
      for (const StoreKind kind : {StoreKind::kFlat, StoreKind::kDisk}) {
        for (const StateCode shard : {StateCode{1} << 16, StateCode{100}}) {
          SCOPED_TRACE("workers=" + std::to_string(workers) + " kind=" +
                       store_kind_name(kind) +
                       " shard=" + std::to_string(shard));
          TempDir sync_dir("small-sync");
          TempDir sweep_dir("small-sweep");
          ShardedBuildOptions options;
          options.store = kind;
          options.workers = workers;
          options.shard_states = shard;
          if (kind == StoreKind::kDisk) {
            options.disk_dir = sync_dir.path().string();
          }
          runtime::RunControl sync_control;
          const ShardedBuild sync =
              build_synchronous_sharded(a, options, sync_control);
          ASSERT_TRUE(sync.complete());
          EXPECT_EQ(table_of(*sync.store), sync_want);
          if (kind == StoreKind::kDisk) {
            options.disk_dir = sweep_dir.path().string();
          }
          runtime::RunControl sweep_control;
          const ShardedBuild sweep =
              build_sweep_sharded(a, order, options, sweep_control);
          ASSERT_TRUE(sweep.complete());
          EXPECT_EQ(table_of(*sweep.store), sweep_want);
        }
      }
    }
  }
}

// Single-worker n = 20 builds of the Lemma-1 ring on both backends pin
// the exact storage tallies: one run of 2^20 states and 16 shards of
// 2^16 states per build, all claimed and none stolen, n * 2^n / 8 spilled
// bytes, and one table and one Garden-of-Eden count across backends.
TEST(ShardedBuild, SingleWorkerStorageCountersAreExact) {
  constexpr std::uint32_t n = 20;
  constexpr std::uint64_t states = std::uint64_t{1} << n;
  const auto a = majority_ring(n);
  TempDir dir("counters");
  obs::Counter& runs = obs::counter("phasespace.build.runs");
  obs::Counter& built = obs::counter("phasespace.build.states");
  obs::Counter& claimed = obs::counter("phasespace.shard.claimed");
  obs::Counter& stolen = obs::counter("phasespace.shard.stolen");
  obs::Counter& spill_bytes = obs::counter("store.spill_bytes");
  std::vector<std::vector<StateCode>> tables;
  for (const StoreKind kind : {StoreKind::kFlat, StoreKind::kDisk}) {
    SCOPED_TRACE(store_kind_name(kind));
    const std::uint64_t runs0 = runs.value();
    const std::uint64_t built0 = built.value();
    const std::uint64_t claimed0 = claimed.value();
    const std::uint64_t stolen0 = stolen.value();
    const std::uint64_t spill0 = spill_bytes.value();
    ShardedBuildOptions options;
    options.store = kind;
    options.workers = 1;
    if (kind == StoreKind::kDisk) options.disk_dir = dir.path().string();
    runtime::RunControl control{runtime::RunBudget{}};
    const ShardedBuild out = build_synchronous_sharded(a, options, control);
    ASSERT_TRUE(out.complete());
    EXPECT_EQ(runs.value() - runs0, 1u);
    EXPECT_EQ(built.value() - built0, states);
    EXPECT_EQ(claimed.value() - claimed0, 16u);
    EXPECT_EQ(stolen.value() - stolen0, 0u);
    EXPECT_EQ(spill_bytes.value() - spill0,
              kind == StoreKind::kDisk ? n * states / 8 : 0u);
    runtime::RunControl census_control{runtime::RunBudget{}};
    EXPECT_EQ(count_gardens_of_eden(*out.store, census_control).gardens,
              941238u);
    tables.push_back(table_of(*out.store));
  }
  EXPECT_EQ(tables[1], tables[0]);
}

TEST(NumaTopology, ProbeAlwaysYieldsAtLeastOneGroupWithCpus) {
  const NumaTopology topo = probe_numa_topology();
  ASSERT_GE(topo.groups.size(), 1u);
  EXPECT_GE(topo.total_cpus(), 1u);
  for (std::size_t g = 1; g < topo.groups.size(); ++g) {
    EXPECT_LT(topo.groups[g - 1].node, topo.groups[g].node)
        << "groups must be sorted by node id";
  }
}

// Satellite: shard sizes 1/63/64/65 — the degenerate single-entry shard
// and ragged sizes either side of a power of two — must all reproduce
// the serial table exactly. (Disk shards round up to kPutAlign, so these
// sizes only reach the flat backend.)
TEST(ShardedBuild, ShardBoundaryExactness) {
  const auto a = majority_ring(10);
  const auto serial = FunctionalGraph::synchronous(a);
  for (const StateCode shard : {1ull, 63ull, 64ull, 65ull}) {
    SCOPED_TRACE("shard_states=" + std::to_string(shard));
    ShardedBuildOptions options;
    options.shard_states = shard;
    options.workers = 3;
    runtime::RunControl control{runtime::RunBudget{}};
    const ShardedBuild out = build_synchronous_sharded(a, options, control);
    ASSERT_TRUE(out.complete());
    ASSERT_NE(out.store, nullptr);
    EXPECT_EQ(out.stats.shards_total,
              (serial.num_states() + shard - 1) / shard);
    EXPECT_EQ(out.stats.shards_claimed + out.stats.shards_stolen,
              out.stats.shards_total);
    EXPECT_EQ(table_of(*out.store), serial.successors());
  }
}

// Satellite: the table is a pure function of (automaton, bits) — worker
// count, group layout, and steal interleaving must not matter. On the
// disk backend each worker stages its shards and put_range()s them
// concurrently with the others (disjoint aligned extents).
TEST(ShardedBuild, DeterministicAcrossWorkerCounts) {
  const auto a = majority_ring(12);
  const auto serial = FunctionalGraph::synchronous(a);
  for (const unsigned workers : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    TempDir dir("workers");
    ShardedBuildOptions options;
    options.store = StoreKind::kDisk;
    options.disk_dir = dir.path().string();
    options.shard_states = kPutAlign;
    options.workers = workers;
    runtime::RunControl control{runtime::RunBudget{}};
    const ShardedBuild out = build_synchronous_sharded(a, options, control);
    ASSERT_TRUE(out.complete());
    EXPECT_EQ(out.stats.workers, workers);
    EXPECT_EQ(table_of(*out.store), serial.successors());
  }
}

TEST(ShardedBuild, SweepMatchesSerialSweep) {
  const auto a = majority_ring(11);
  std::vector<core::NodeId> order{3, 1, 4, 0, 8, 2, 10, 7, 5, 9, 6};
  const auto serial = FunctionalGraph::sweep(a, order);
  TempDir dir("sweep");
  ShardedBuildOptions options;
  options.store = StoreKind::kDisk;
  options.disk_dir = dir.path().string();
  options.shard_states = kPutAlign;
  options.workers = 2;
  runtime::RunControl control{runtime::RunBudget{}};
  const ShardedBuild out = build_sweep_sharded(a, order, options, control);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(table_of(*out.store), serial.successors());
}

// Truncation contract: a tripped budget yields counts only (no graph);
// a disk build also keeps its partial store — whole shards only — for a
// resume. (The RAM side, no store at all, is budget_truncation_test's.)
TEST(ShardedBuild, BudgetTruncationReportsCountsOnly) {
  const auto a = majority_ring(12);
  runtime::RunBudget budget;
  budget.max_states = 1300;  // admits two 512-state blocks, not three
  runtime::RunControl control(budget);
  TempDir dir("truncated");
  ShardedBuildOptions options;
  options.store = StoreKind::kDisk;
  options.disk_dir = dir.path().string();
  options.shard_states = kPutAlign;
  options.workers = 2;
  const ShardedBuild out = build_synchronous_sharded(a, options, control);
  EXPECT_FALSE(out.complete());
  EXPECT_FALSE(out.build.graph.has_value());
  EXPECT_EQ(out.build.status.stop_reason, runtime::StopReason::kMaxStates);
  EXPECT_LE(out.build.states_built, 1300u);
  EXPECT_EQ(out.stats.stored_states % kPutAlign, 0u);
  EXPECT_LE(out.stats.stored_states, out.build.states_built);
  ASSERT_NE(out.store, nullptr);
  EXPECT_FALSE(static_cast<const DiskStore&>(*out.store).complete());
}

// Disk truncation finalizes the manifest, and a resume build skips every
// digest-valid shard already spilled — then ends bit-identical.
TEST(ShardedBuild, DiskTruncationThenResumeIsBitIdentical) {
  TempDir dir("resume");
  const auto a = majority_ring(11);
  const auto serial = FunctionalGraph::synchronous(a);

  ShardedBuildOptions options;
  options.store = StoreKind::kDisk;
  options.disk_dir = dir.path().string();
  options.shard_states = kPutAlign;
  options.workers = 1;

  // Pass 1: budget trips mid-build; some whole shards land on disk.
  std::uint64_t stored = 0;
  {
    runtime::RunBudget budget;
    budget.max_states = 700;  // > 1 shard, < all 4
    runtime::RunControl control(budget);
    const ShardedBuild out = build_synchronous_sharded(a, options, control);
    ASSERT_FALSE(out.complete());
    ASSERT_NE(out.store, nullptr);  // partial disk store, for resume
    // Whole stored shards only: the abandoned partial shard is not
    // counted, though its states were charged to the budget; none of
    // them was stepped.
    stored = out.stats.stored_states;
    EXPECT_EQ(stored, kPutAlign);
    EXPECT_GT(out.build.status.states, stored);
    EXPECT_EQ(out.build.states_built, stored);
  }
  // Pass 2: resume skips the spilled shards and completes the rest.
  options.resume = true;
  runtime::RunControl control{runtime::RunBudget{}};
  const ShardedBuild out = build_synchronous_sharded(a, options, control);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(out.stats.resumed_states, stored);
  EXPECT_EQ(out.stats.stored_states, std::uint64_t{1} << 11);
  EXPECT_EQ(table_of(*out.store), serial.successors());
}

// The supervised wrapper walks the ladder on an injected transient and
// still produces the exact table.
TEST(ShardedBuild, SupervisedAbsorbsInjectedTransient) {
  const auto a = majority_ring(11);
  const auto serial = FunctionalGraph::synchronous(a);
  TempDir dir("supervised");
  ShardedBuildOptions options;
  options.store = StoreKind::kDisk;
  options.disk_dir = dir.path().string();
  options.shard_states = kPutAlign;
  options.workers = 2;
  runtime::SupervisorOptions sup;
  sup.retry.max_attempts = 4;
  sup.retry.initial_backoff = std::chrono::milliseconds(1);
  sup.apply_backoff = false;
  runtime::ScopedFaultPlan plan({.retry_transient_at = 1});
  const SupervisedShardedBuild out =
      supervised_synchronous_sharded(a, options, sup);
  ASSERT_EQ(out.report.state, runtime::SupervisedState::kCompleted);
  EXPECT_EQ(out.report.attempts, 2u);
  ASSERT_TRUE(out.build.complete());
  EXPECT_EQ(table_of(*out.build.store), serial.successors());
}

// Spawn failure degrades to fewer workers instead of failing the build.
TEST(ShardedBuild, SpawnFailureDegradesGracefully) {
  const auto a = majority_ring(9);
  const auto serial = FunctionalGraph::synchronous(a);
  ShardedBuildOptions options;
  options.workers = 4;
  runtime::ScopedFaultPlan plan({.fail_thread_spawn = true});
  runtime::RunControl control{runtime::RunBudget{}};
  const ShardedBuild out = build_synchronous_sharded(a, options, control);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(table_of(*out.store), serial.successors());
}

// Classification through a sharded-built store matches the serial path
// end to end (the surface the service tier uses).
TEST(ShardedBuild, ClassifyThroughDiskStoreMatchesSerial) {
  const auto a = majority_ring(10);
  const auto want = classify(FunctionalGraph::synchronous(a));
  TempDir dir("classify");
  ShardedBuildOptions options;
  options.store = StoreKind::kDisk;
  options.disk_dir = dir.path().string();
  options.shard_states = kPutAlign;
  options.workers = 2;
  runtime::RunControl control{runtime::RunBudget{}};
  const ShardedBuild out = build_synchronous_sharded(a, options, control);
  ASSERT_TRUE(out.complete());
  const Classification got = classify(*out.build.graph);
  EXPECT_EQ(got.num_fixed_points, want.num_fixed_points);
  EXPECT_EQ(got.num_cycle_states, want.num_cycle_states);
  EXPECT_EQ(got.num_transient_states, want.num_transient_states);
  EXPECT_EQ(got.num_gardens_of_eden, want.num_gardens_of_eden);
  EXPECT_EQ(got.max_period(), want.max_period());
  EXPECT_EQ(got.max_transient, want.max_transient);
}

}  // namespace
}  // namespace tca::phasespace
