#pragma once
// Supervised execution of budgeted experiment closures
// (docs/robustness.md).
//
// A Supervisor wraps "one attempt of the job" in deadline-aware retry with
// seeded-jitter backoff (retry.hpp) and a graceful-degradation ladder over
// the engine stack:
//
//   wide-SIMD  ->  64-lane batch  ->  scalar
//
// Each attempt gets a fresh RunControl whose wall limit is carved from the
// time remaining under the overall deadline, so a retrying job can never
// overshoot its deadline by stacking full-length attempts. Failures are
// classified once, at the throw site, into transient (retry, possibly one
// rung down) or terminal (latch and report) — see classify_failure. A body
// that returns kTruncated produced a well-formed partial result under its
// budget; truncation is a successful outcome and is never retried.
//
// Observability: supervisor.{runs,attempts,retries,completed,truncated,
// failed} counters, engine.degrade.<rung> counters per rung entered, a
// latched "engine.degraded" warn event (first degrade per run warns,
// subsequent ones are info), and warn events on terminal failure or retry
// exhaustion (docs/observability.md).

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/budget.hpp"
#include "runtime/retry.hpp"

namespace tca::runtime {

/// Rungs of the engine-degradation ladder, fastest first. The numeric
/// order IS the ladder: degrading moves to the next enumerator.
enum class EngineRung : std::uint8_t {
  kWideSimd = 0,  ///< runtime-dispatched widest SIMD batch tier
  kBatch64,       ///< 64-lane scalar bit-slice batch engine
  kScalar,        ///< reference scalar stepper (always available)
};

inline constexpr std::uint32_t kEngineRungCount = 3;

/// Stable lowercase name ("wide-simd", "batch64", "scalar").
[[nodiscard]] const char* rung_name(EngineRung rung) noexcept;

/// The next rung down; kScalar is the floor and maps to itself.
[[nodiscard]] EngineRung rung_below(EngineRung rung) noexcept;

/// Configuration for one supervised run.
struct SupervisorOptions {
  RetryPolicy retry;
  /// Overall wall-clock deadline across ALL attempts and backoffs,
  /// measured from Supervisor::run entry. Attempt wall limits are carved
  /// from what remains.
  std::optional<std::chrono::steady_clock::duration> deadline;
  /// Per-attempt resource budget (steps/states/bytes/wall). The wall
  /// limit is additionally clamped to the remaining deadline.
  RunBudget attempt_budget;
  EngineRung start_rung = EngineRung::kWideSimd;
  bool degrade_on_pressure = true;  ///< honor FailureVerdict::degrade
  bool apply_backoff = true;  ///< false: record delays but do not sleep
  CancelToken token;          ///< shared across attempts (watchdogs)
};

/// What the body sees for one attempt.
struct AttemptContext {
  std::uint32_t attempt;  ///< 1-based
  EngineRung rung;        ///< engine tier this attempt should run at
  RunControl& control;    ///< fresh per-attempt budget meter
};

/// How the body says one attempt ended (failures are thrown, not
/// returned).
enum class AttemptOutcome : std::uint8_t {
  kCompleted = 0,  ///< total result
  kTruncated,      ///< well-formed partial under the attempt budget
};

/// Terminal state of the whole supervised run.
enum class SupervisedState : std::uint8_t {
  kCompleted = 0,
  kTruncated,  ///< last attempt produced a well-formed partial
  kFailed,     ///< terminal failure, retries exhausted, or deadline
};

[[nodiscard]] const char* supervised_state_name(
    SupervisedState state) noexcept;

/// One failed attempt, as recorded in the report.
struct AttemptFailure {
  std::uint32_t attempt = 0;  ///< 1-based
  EngineRung rung = EngineRung::kWideSimd;
  FailureClass cls = FailureClass::kTerminal;
  ErrorCode code = ErrorCode::kUnknown;
  std::string what;
  std::chrono::milliseconds backoff{0};  ///< delay applied after it
};

/// Full account of one supervised run.
struct SupervisorReport {
  SupervisedState state = SupervisedState::kFailed;
  std::uint32_t attempts = 0;  ///< attempts actually started
  EngineRung final_rung = EngineRung::kWideSimd;
  bool degraded = false;       ///< ladder was walked at least once
  ErrorCode last_error = ErrorCode::kUnknown;
  std::string last_error_what;
  RunStatus last_status;       ///< accounting of the final attempt
  std::vector<AttemptFailure> failures;  ///< one entry per failed attempt

  [[nodiscard]] bool ok() const noexcept {
    return state != SupervisedState::kFailed;
  }
};

/// Runs a budgeted closure under retry + the degradation ladder.
class Supervisor {
 public:
  using Body = std::function<AttemptOutcome(AttemptContext&)>;

  explicit Supervisor(SupervisorOptions options)
      : options_(std::move(options)) {}

  /// Executes `body` until it completes, truncates, fails terminally, or
  /// exhausts attempts/deadline. `job` labels log events. Never throws
  /// exceptions originating in `body` — they are folded into the report.
  SupervisorReport run(std::string_view job, const Body& body);

  [[nodiscard]] const SupervisorOptions& options() const noexcept {
    return options_;
  }

 private:
  SupervisorOptions options_;
};

}  // namespace tca::runtime
