#include "core/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <system_error>

#include "core/contracts.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault.hpp"

namespace tca::core {
namespace {

/// Microseconds between two steady_clock points, clamped at zero.
std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) noexcept {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const unsigned extra = num_threads - 1;  // calling thread is a worker too
  workers_.reserve(extra);
  for (unsigned i = 0; i < extra; ++i) {
    try {
      if (runtime::fault::should_fail_thread_spawn()) {
        // tca-analyze: allow(raw-throw) simulated std::thread spawn
        // failure — must be the same std::system_error a real spawn
        // failure raises.
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "fault plan: injected thread-spawn failure");
      }
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error& e) {
      // Degrade to however many workers we managed (possibly none: serial
      // execution on the calling thread). The pool stays fully functional,
      // just narrower — count + log the degradation once and move on
      // (tests assert on the counter; see docs/observability.md).
      static obs::Counter& degraded =
          obs::counter("thread_pool.spawn_degraded");
      degraded.add();
      // Pool narrowing is a rung of the same graceful-degradation ladder
      // the Supervisor walks for the engines; expose it under the shared
      // engine.degrade.* family so dashboards see one surface.
      static obs::Counter& ladder =
          obs::counter("engine.degrade.pool-serial");
      ladder.add();
      obs::log_event(
          obs::LogLevel::kWarn, "thread_pool.spawn_degraded",
          {{"requested_workers", extra},
           {"spawned_workers", static_cast<unsigned>(workers_.size())},
           {"width", static_cast<unsigned>(workers_.size()) + 1},
           {"error", e.what()}});
      break;
    }
  }
  static obs::Gauge& width = obs::gauge("thread_pool.width");
  width.set(static_cast<std::int64_t>(workers_.size()) + 1);
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::latch_error(std::exception_ptr error) {
  LockGuard lock(error_mutex_);
  if (!first_error_) first_error_ = std::move(error);
}

std::exception_ptr ThreadPool::take_error() {
  LockGuard lock(error_mutex_);
  std::exception_ptr error = first_error_;
  first_error_ = nullptr;
  return error;
}

/// Takes chunks off the shared cursor until the range is exhausted, a
/// chunk throws, or the run's control reports a stop. `run` is the
/// caller's private snapshot of the descriptor (copied under mutex_), so
/// this function touches no guarded state. Exceptions are latched into
/// first_error_ and flip abandon_ so other participants stop picking up
/// new chunks; they never escape a worker thread.
TCA_HOT_PATH void ThreadPool::drain(const Run& run) {
  for (;;) {
    if (abandon_.load(std::memory_order_acquire)) return;
    if (run.control != nullptr && run.control->should_stop()) {
      abandon_.store(true, std::memory_order_release);
      return;
    }
    const std::size_t index =
        next_chunk_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t b = run.begin + index * run.chunk;
    if (b >= run.end || b < run.begin /* overflow */) return;
    const std::size_t e = std::min(run.end, b + run.chunk);
    try {
      runtime::fault::check_chunk();
      // Per-chunk metering: chunks are coarse (kChunksPerThread per
      // participant), so two clock reads per chunk stay in the noise.
      static obs::Counter& chunks = obs::counter("thread_pool.chunks");
      static obs::Histogram& chunk_us = obs::histogram(
          "thread_pool.chunk_us", obs::default_latency_bounds_us());
      const bool metered = obs::metrics_enabled();
      const auto t0 = metered ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
      (*run.fn)(b, e);
      if (metered) {
        chunks.add();
        chunk_us.record(elapsed_us(t0, std::chrono::steady_clock::now()));
      }
    } catch (...) {
      latch_error(std::current_exception());
      abandon_.store(true, std::memory_order_release);
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t last_seen = 0;
  for (;;) {
    Run run;
    std::uint64_t wait_us = 0;
    bool metered = false;
    {
      LockGuard lock(mutex_);
      while (!stopping_ && (generation_ == last_seen || run_.fn == nullptr)) {
        start_cv_.wait(lock);
      }
      if (stopping_) return;
      last_seen = generation_;
      run = run_;  // private snapshot; run_ stays valid until pending_ == 0
      // Queue wait: how long the run sat posted before this worker picked
      // it up (run_posted_ is written under the same mutex).
      metered = obs::metrics_enabled();
      if (metered) {
        wait_us = elapsed_us(run_posted_, std::chrono::steady_clock::now());
      }
    }
    if (metered) {
      static obs::Histogram& dispatch_wait_us = obs::histogram(
          "thread_pool.dispatch_wait_us", obs::default_latency_bounds_us());
      dispatch_wait_us.record(wait_us);
    }
    drain(run);
    {
      LockGuard lock(mutex_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t align,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  (void)parallel_for(begin, end, align, fn, nullptr);
}

runtime::StopReason ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t align,
    const std::function<void(std::size_t, std::size_t)>& fn,
    runtime::RunControl* control) {
  if (begin >= end) return runtime::StopReason::kNone;
  if (align == 0) align = 1;
  static obs::Counter& runs = obs::counter("thread_pool.parallel_for");
  runs.add();
  const std::size_t total = end - begin;
  const std::size_t parts = size() * kChunksPerThread;
  // Chunk size rounded up to the alignment unit.
  const std::size_t chunk =
      ((total + parts - 1) / parts + align - 1) / align * align;

  {
    // A previous run's exception is consumed by the take_error() below
    // before parallel_for returns, so the latch is clear here; clearing
    // again keeps the invariant local instead of depending on it.
    LockGuard lock(error_mutex_);
    first_error_ = nullptr;
  }
  Run run;
  {
    LockGuard lock(mutex_);
    run_.fn = &fn;
    run_.control = control;
    run_.begin = begin;
    run_.end = end;
    run_.chunk = chunk;
    next_chunk_.store(0, std::memory_order_relaxed);
    abandon_.store(false, std::memory_order_relaxed);
    pending_ = static_cast<unsigned>(workers_.size());
    run_posted_ = std::chrono::steady_clock::now();
    ++generation_;
    run = run_;  // the posting thread participates off the same snapshot
  }
  start_cv_.notify_all();
  drain(run);
  {
    LockGuard lock(mutex_);
    while (pending_ != 0) done_cv_.wait(lock);
    run_.fn = nullptr;
    run_.control = nullptr;
  }
  if (std::exception_ptr error = take_error()) {
    std::rethrow_exception(error);
  }
  if (control != nullptr) return control->check();
  return runtime::StopReason::kNone;
}

}  // namespace tca::core
