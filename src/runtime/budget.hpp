#pragma once
// Cooperative budgets and cancellation (docs/robustness.md).
//
// Every exponential-state-space engine in this repo (FunctionalGraph's
// 2^n successor tables, aca::explore's BFS over deliver/compute
// interleavings, the interleave explorer, the preimage census) can now run
// under a RunBudget + CancelToken pair wrapped in a RunControl. The engine
// calls note_states()/note_steps()/note_bytes() as it works and stops
// cleanly — returning a well-formed partial result whose stop_reason says
// why — the moment a limit trips, the deadline passes, or the token is
// cancelled from another thread.
//
// Counters are atomics, so one RunControl can meter a parallel build: all
// workers of a ThreadPool charge the same control. The first limit to trip
// is latched; later notes keep returning the same StopReason.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

namespace tca::runtime {

/// Why a budgeted run stopped before finishing (kNone == ran to the end).
enum class StopReason : std::uint8_t {
  kNone = 0,      ///< completed; result is total
  kCancelled,     ///< CancelToken tripped (user, watchdog, or fault plan)
  kDeadline,      ///< wall-clock limit passed
  kMaxSteps,      ///< step budget exhausted
  kMaxStates,     ///< visited-state budget exhausted
  kMaxBytes,      ///< memory budget exhausted
};

/// Short stable name ("none", "cancelled", "deadline", ...).
[[nodiscard]] const char* stop_reason_name(StopReason reason) noexcept;

/// Resource limits for one run. Default-constructed == unlimited.
struct RunBudget {
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  std::uint64_t max_steps = kUnlimited;   ///< engine-defined unit of work
  std::uint64_t max_states = kUnlimited;  ///< distinct states visited/built
  std::uint64_t max_bytes = kUnlimited;   ///< approximate bytes allocated
  /// Wall-clock limit, measured from RunControl construction.
  std::optional<std::chrono::steady_clock::duration> wall_limit;

  [[nodiscard]] static RunBudget unlimited() { return {}; }
};

/// Shared cooperative cancellation handle. Copies observe the same flag;
/// cancel() is safe from any thread (e.g. a watchdog) and is sticky.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Snapshot of a run's accounting, embedded in partial results.
struct RunStatus {
  StopReason stop_reason = StopReason::kNone;
  std::uint64_t steps = 0;
  std::uint64_t states = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] bool truncated() const noexcept {
    return stop_reason != StopReason::kNone;
  }
};

/// Meters one run against a RunBudget + CancelToken. Not copyable (owns
/// atomic counters); pass by reference into the engines.
class RunControl {
 public:
  /// Unlimited budget, fresh token: the "just run" control.
  RunControl() : RunControl(RunBudget::unlimited()) {}
  explicit RunControl(const RunBudget& budget, CancelToken token = {});

  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Charges `n` units of work; returns the latched StopReason (kNone if
  /// the run may continue). Deadline and cancellation are polled here too,
  /// the clock only every kClockPollMask+1 calls. note_states additionally
  /// ticks the installed FaultPlan's cancel-at-visit counter.
  StopReason note_steps(std::uint64_t n = 1) noexcept;
  StopReason note_states(std::uint64_t n = 1) noexcept;
  StopReason note_bytes(std::uint64_t n) noexcept;

  /// Polls cancellation + deadline without charging any counter.
  StopReason check() noexcept;
  [[nodiscard]] bool should_stop() noexcept {
    return check() != StopReason::kNone;
  }

  /// Latches `reason` if nothing stopped the run yet (used by engines that
  /// detect exhaustion themselves, and by the watchdog).
  void mark(StopReason reason) noexcept;

  /// The shared token (hand it to a watchdog or another thread).
  [[nodiscard]] CancelToken token() const { return token_; }
  [[nodiscard]] const RunBudget& budget() const noexcept { return budget_; }
  [[nodiscard]] RunStatus status() const noexcept;

  /// True if a further allocation of `n` bytes would fit the byte budget.
  [[nodiscard]] bool bytes_would_fit(std::uint64_t n) const noexcept;

 private:
  static constexpr std::uint64_t kClockPollMask = 1023;

  StopReason latch_and_get(StopReason candidate) noexcept;
  StopReason poll(bool force_clock) noexcept;

  RunBudget budget_;
  CancelToken token_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint8_t> stop_{0};  ///< latched StopReason
};

}  // namespace tca::runtime
