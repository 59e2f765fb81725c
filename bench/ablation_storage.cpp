// ABLATION — docs/performance.md "successor storage hierarchy": phase
// space build + classify cost of the three SuccessorStore backends (flat
// 8 B/state, packed n bits/state, disk-spilled extents) under the
// sharded work-stealing builder, at n in {20, 24}.
//
// Three one-shot gates publish deterministic-shaped counters:
//
//  * BM_StorageCountersGate — workers=1 builds of all three backends at
//    n=20, cross-checked entry-for-entry and through the store-generic
//    Garden-of-Eden census. Emits the exact-valued counters CI diffs
//    against bench/baselines/ablation_storage.manifest.json
//    (store.packed_bits, store.spill_bytes, phasespace.shard.claimed/
//    stolen, bench.storage.*). store.readback_us also lands in the
//    manifest but is timing and therefore never baseline-gated.
//
//  * BM_ShardedSpeedupGate — the acceptance bar: the sharded
//    work-stealing build must beat a chunked ThreadPool::parallel_for
//    build with one batch stepper per pool chunk (chunked_build below)
//    by >= 1.5x at n=24.
//    Published as bench.storage.sharded.{speedup_pct,ge150}; on hosts
//    with fewer than 4 CPUs the comparison is vacuous and the gate
//    declares bench.storage.sharded.skip instead (SKIP, never FAIL).
//
//  * BM_DiskCensusGate — a disk-backed n=28 build plus streamed GoE
//    census must finish under a 1 GiB RSS ceiling
//    (bench.storage.disk.{rss_peak_mib,rss_ok_1gib,gardens_lo}).
//
// CI runs the counters gate and the acceptance gates as separate
// filtered invocations so speedup-dependent work never pollutes the
// deterministic-counter manifest (.github/workflows/ci.yml, perf-smoke).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/automaton.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/budget.hpp"

namespace {

namespace fs = std::filesystem;
using namespace tca;
using phasespace::ShardedBuild;
using phasespace::ShardedBuildOptions;
using phasespace::StateCode;
using phasespace::StoreKind;

core::Automaton majority_ring(std::size_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing, rules::majority(),
                               core::Memory::kWith);
}

// Fresh scratch directory for a disk-backed build; removed by the caller
// once the store has been read back.
fs::path scratch_dir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("tca-ablation-storage-") + tag);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

// The speedup gate's baseline: a flat table filled by contiguous pool
// chunks, each with its own batch stepper, charging the control every
// 1024 states — a fork-join build without shards, stealing, or a
// per-worker stepper.
std::vector<StateCode> chunked_build(const core::Automaton& a,
                                     core::ThreadPool& pool,
                                     runtime::RunControl& control) {
  std::vector<StateCode> table(std::size_t{1} << a.size());
  StateCode* data = table.data();
  runtime::RunControl* ctl = &control;
  pool.parallel_for(
      0, table.size(), /*align=*/1024,
      [&a, data, ctl](std::size_t begin, std::size_t end) {
        phasespace::BatchCodeStepper stepper(a);
        for (std::size_t s = begin; s < end;) {
          const auto block = std::min<std::size_t>(1024, end - s);
          if (ctl->note_states(block) != runtime::StopReason::kNone) return;
          stepper.step_range(s, block, data + s);
          s += block;
        }
      },
      &control);
  return table;
}

ShardedBuild build_with(const core::Automaton& a, StoreKind kind,
                        unsigned workers, const fs::path& disk_dir) {
  ShardedBuildOptions options;
  options.store = kind;
  options.workers = workers;
  if (kind == StoreKind::kDisk) options.disk_dir = disk_dir.string();
  runtime::RunControl unlimited{runtime::RunBudget{}};
  return phasespace::build_synchronous_sharded(a, options, unlimited);
}

// Per-backend build + full classification (cycle/transient/GoE walk) —
// the end-to-end cost a census pays on each storage tier.
void BM_StorageBuildClassify(benchmark::State& state, StoreKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = majority_ring(n);
  const fs::path dir = scratch_dir("bm");
  for (auto _ : state) {
    const ShardedBuild out = build_with(a, kind, /*workers=*/0, dir);
    const phasespace::Classification c = phasespace::classify(*out.build.graph);
    benchmark::DoNotOptimize(c.num_gardens_of_eden);
    if (kind == StoreKind::kDisk) {
      state.PauseTiming();
      std::error_code ec;
      fs::remove_all(dir, ec);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(StateCode{1} << n));
}
BENCHMARK_CAPTURE(BM_StorageBuildClassify, flat, StoreKind::kFlat)
    ->Arg(20)
    ->Arg(24);
BENCHMARK_CAPTURE(BM_StorageBuildClassify, packed, StoreKind::kPacked)
    ->Arg(20)
    ->Arg(24);
BENCHMARK_CAPTURE(BM_StorageBuildClassify, disk, StoreKind::kDisk)
    ->Arg(20)
    ->Arg(24);

// Deterministic-counter gate: single-worker builds of the same n=20
// phase space on every backend. Exact expected values (majority ring,
// n=20, shard_states=2^16 -> 16 shards per build):
//   phasespace.shard.claimed   48 (16 x 3 backends; workers=1 => 0 stolen)
//   store.packed_bits          20 * 2^20 = 20971520
//   store.spill_bytes          2^20 * 20 / 8 = 2621440
//   bench.storage.agree        1 iff all three tables are bit-identical
//   bench.storage.goe.n20      the (backend-independent) GoE count
void BM_StorageCountersGate(benchmark::State& state) {
  static std::once_flag once;
  for (auto _ : state) {
    std::call_once(once, [] {
      const std::size_t n = 20;
      const auto a = majority_ring(n);
      const fs::path dir = scratch_dir("gate");

      std::vector<std::vector<StateCode>> tables;
      std::uint64_t gardens = 0;
      bool census_agree = true;
      for (const StoreKind kind :
           {StoreKind::kFlat, StoreKind::kPacked, StoreKind::kDisk}) {
        const ShardedBuild out = build_with(a, kind, /*workers=*/1, dir);
        std::vector<StateCode> table(
            static_cast<std::size_t>(out.store->num_entries()));
        out.store->read_range(0, table.size(), table.data());
        tables.push_back(std::move(table));

        runtime::RunControl unlimited{runtime::RunBudget{}};
        const phasespace::GoeCensus census =
            phasespace::count_gardens_of_eden(*out.store, unlimited);
        if (gardens == 0) gardens = census.gardens;
        census_agree = census_agree && census.gardens == gardens;
      }
      std::error_code ec;
      fs::remove_all(dir, ec);

      const bool agree = census_agree && tables[0] == tables[1] &&
                         tables[0] == tables[2];
      if (agree) obs::counter("bench.storage.agree").add();
      obs::counter("bench.storage.goe.n20").add(gardens);
    });
  }
}
BENCHMARK(BM_StorageCountersGate)->Iterations(1);

// Acceptance gate: sharded work-stealing build >= 1.5x chunked_build at
// n=24, best-of-3 per side to damp runner noise. Both sides produce the identical flat table at the dispatched
// SIMD tier with one participant per CPU; the sharded side differs only
// in shard handout (per-group cursors + stealing) and in reusing one
// thread-local stepper per worker instead of one per pool chunk.
void BM_ShardedSpeedupGate(benchmark::State& state) {
  static std::once_flag once;
  for (auto _ : state) {
    std::call_once(once, [] {
      const unsigned cpus = std::thread::hardware_concurrency();
      if (cpus < 4) {
        // Too few cores for the parallel-vs-parallel bar to mean
        // anything (docs/performance.md); declare the skip explicitly.
        obs::counter("bench.storage.sharded.skip").add();
        return;
      }
      using Clock = std::chrono::steady_clock;
      const std::size_t n = 24;
      const auto a = majority_ring(n);

      double chunked_ns = 0.0;
      double sharded_ns = 0.0;
      core::ThreadPool pool(cpus);
      for (int rep = 0; rep < 3; ++rep) {
        runtime::RunControl unlimited{runtime::RunBudget{}};
        const auto t0 = Clock::now();
        const std::vector<StateCode> chunked = chunked_build(a, pool, unlimited);
        const auto ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        benchmark::DoNotOptimize(chunked[0]);
        chunked_ns = rep == 0 ? ns : std::min(chunked_ns, ns);
      }
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        const ShardedBuild sharded =
            build_with(a, StoreKind::kFlat, /*workers=*/0, {});
        const auto ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        benchmark::DoNotOptimize(sharded.store->get(0));
        sharded_ns = rep == 0 ? ns : std::min(sharded_ns, ns);
      }

      const double ratio = sharded_ns > 0 ? chunked_ns / sharded_ns : 0.0;
      obs::counter("bench.storage.sharded.speedup_pct")
          .add(static_cast<std::uint64_t>(ratio * 100.0));
      if (ratio >= 1.5) obs::counter("bench.storage.sharded.ge150").add();
    });
  }
}
BENCHMARK(BM_ShardedSpeedupGate)->Iterations(1);

// Acceptance gate: a disk-backed n=28 build plus the store-generic GoE
// census must run in bounded RAM — under 1 GiB peak RSS. The spill is
// 2^28 * 28 bits = 896 MiB ON DISK; resident state is per-worker shard
// staging plus the 32 MiB census bitmap. gardens_lo publishes the low 32
// bits of the (deterministic) n=28 garden count so a census regression
// is visible in the manifest even where timing is not.
void BM_DiskCensusGate(benchmark::State& state) {
  static std::once_flag once;
  for (auto _ : state) {
    std::call_once(once, [] {
      const std::size_t n = 28;
      const auto a = majority_ring(n);
      const fs::path dir = scratch_dir("n28");

      const ShardedBuild out = build_with(a, StoreKind::kDisk,
                                          /*workers=*/0, dir);
      runtime::RunControl unlimited{runtime::RunBudget{}};
      const phasespace::GoeCensus census =
          phasespace::count_gardens_of_eden(*out.store, unlimited);
      std::error_code ec;
      fs::remove_all(dir, ec);

      struct rusage ru {};
      getrusage(RUSAGE_SELF, &ru);
      // Linux reports ru_maxrss in KiB.
      const auto rss_mib = static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
      obs::counter("bench.storage.disk.rss_peak_mib").add(rss_mib);
      if (rss_mib < 1024) obs::counter("bench.storage.disk.rss_ok_1gib").add();
      obs::counter("bench.storage.disk.gardens_lo")
          .add(census.gardens & 0xffffffffu);
    });
  }
}
BENCHMARK(BM_DiskCensusGate)->Iterations(1);

}  // namespace
