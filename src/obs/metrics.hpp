#pragma once
// Low-overhead metrics registry (docs/observability.md).
//
// Counters, gauges, and fixed-bucket histograms for the hot paths: the
// engines, the thread pool, the exponential-state-space explorers, and the
// checkpoint machinery all charge metrics as they work, and a snapshot is
// embedded in every RunManifest (obs/manifest.hpp).
//
// Design constraints, in order:
//  * correct under TSan — every mutable cell is a std::atomic, so
//    concurrent increments sum EXACTLY and snapshot-while-incrementing is
//    race-free by construction (tests/obs_metrics_test.cpp proves both
//    under the `tsan` preset);
//  * cheap when hot — Counter::add is one relaxed load (the global enable
//    flag) plus one relaxed fetch_add on a per-thread shard, so concurrent
//    writers do not bounce a shared cache line;
//  * cheap when disabled — set_metrics_enabled(false) reduces every
//    charge to a single relaxed load-and-branch.
//
// Naming convention: lowercase dotted paths, `<subsystem>.<object>.<what>`
// (e.g. "engine.synchronous.steps", "thread_pool.chunk_us"). Duration
// histograms end in `_us`; size histograms in `_bytes`.
//
// Handles returned by counter()/gauge()/histogram() are process-lifetime
// stable, so hot functions cache them in a function-local static:
//
//   static obs::Counter& steps = obs::counter("engine.synchronous.steps");
//   steps.add();

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tca::obs {

namespace detail {

/// Number of per-thread shards per counter. Threads are assigned shards
/// round-robin on first use; more threads than shards just share.
inline constexpr std::size_t kShards = 16;

/// Round-robin shard index of the calling thread (assigned once).
[[nodiscard]] std::size_t this_thread_shard() noexcept;

extern std::atomic<bool> g_metrics_enabled;

/// One cache-line-padded atomic cell (avoids false sharing across shards).
struct alignas(64) ShardSlot {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Global on/off switch (default ON). Disabling turns every charge into a
/// single relaxed load; already-recorded values are kept.
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled) noexcept;

/// Monotone counter, sharded per thread; merged on read.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    shards_[detail::this_thread_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all shards. Safe to call while other threads increment; the
  /// result is then some value between "before" and "after".
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  detail::ShardSlot shards_[detail::kShards];
};

/// Last-write-wins signed gauge (pool widths, queue depths).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Read-only view of one histogram, produced by snapshot_metrics().
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;  ///< ascending upper bounds
  /// counts.size() == bounds.size() + 1; counts[i] is the number of
  /// recorded values in [bounds[i-1], bounds[i]) — closed below, open
  /// above, with bounds[-1] taken as 0 — and counts.back() is the
  /// overflow bucket: values >= bounds.back().
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;  ///< total recorded values
  std::uint64_t sum = 0;    ///< sum of recorded values
};

/// Fixed-bucket histogram over unsigned values (latencies in
/// microseconds, sizes in bytes). Bucket semantics: a value v lands in
/// the FIRST bucket whose upper bound is strictly greater than v, i.e.
/// bucket i covers [bounds[i-1], bounds[i]); a value equal to a bound
/// lands in the bucket ABOVE it; v >= bounds.back() lands in the
/// overflow bucket. Cells are sharded per thread like Counter.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::vector<std::uint64_t> bounds_;
  /// Shard-major layout: cell (shard, bucket) at shard * (bounds+1) +
  /// bucket. Plain atomics — a shard's row spans >= one cache line for
  /// typical bucket counts, which is padding enough here.
  std::vector<std::atomic<std::uint64_t>> cells_;
  detail::ShardSlot sums_[detail::kShards];
};

/// Default upper bounds for `_us` latency histograms: 1us .. 1s, roughly
/// 1-2-5 per decade.
[[nodiscard]] const std::vector<std::uint64_t>& default_latency_bounds_us();

/// Registry lookups: find-or-create by name; the returned reference is
/// valid for the life of the process. For histogram(), `bounds` is used
/// only on first creation; later lookups of the same name ignore it.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name,
                                   const std::vector<std::uint64_t>& bounds);

/// Merged point-in-time view of every registered metric. Race-free with
/// concurrent charges (each cell is read atomically; the snapshot is some
/// consistent-enough interleaving, and exact once writers quiesce).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};
[[nodiscard]] MetricsSnapshot snapshot_metrics();

}  // namespace tca::obs
