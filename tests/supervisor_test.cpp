// Supervisor semantics (src/runtime/supervisor.hpp, docs/robustness.md):
// transient failures retry with recorded backoff, terminal failures latch
// on the first attempt, memory pressure walks the engine-degradation
// ladder one rung per retry (with the engine.degrade.<rung> counters and
// the latched warn-then-info "engine.degraded" events), truncation is a
// successful outcome and is never retried, and the overall deadline
// bounds the run even when retries remain.

#include "runtime/supervisor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <new>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::runtime {
namespace {

using std::chrono::milliseconds;

/// Fast policy for tests: delays are recorded but never slept on.
SupervisorOptions fast_options(std::uint32_t max_attempts = 5) {
  SupervisorOptions options;
  options.retry.max_attempts = max_attempts;
  options.retry.initial_backoff = milliseconds{1};
  options.retry.max_backoff = milliseconds{4};
  options.retry.seed = 0xFEEDull;
  options.apply_backoff = false;
  return options;
}

TEST(Supervisor, SuccessOnFirstAttempt) {
  Supervisor sup(fast_options());
  std::vector<std::uint32_t> attempts_seen;
  const auto report = sup.run("test.first", [&](AttemptContext& ctx) {
    attempts_seen.push_back(ctx.attempt);
    EXPECT_EQ(ctx.rung, EngineRung::kWideSimd);
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(attempts_seen, (std::vector<std::uint32_t>{1}));
}

TEST(Supervisor, TransientFailureRetriesThenSucceeds) {
  Supervisor sup(fast_options());
  const auto report = sup.run("test.transient", [&](AttemptContext& ctx) {
    if (ctx.attempt < 3) {
      throw tca::InjectedFaultError("transient wobble");
    }
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
  EXPECT_EQ(report.attempts, 3u);
  ASSERT_EQ(report.failures.size(), 2u);
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    EXPECT_EQ(report.failures[i].attempt, i + 1);
    EXPECT_EQ(report.failures[i].cls, FailureClass::kTransient);
    EXPECT_EQ(report.failures[i].code, ErrorCode::kFaultInjected);
    // The recorded backoff is the policy's deterministic schedule entry.
    EXPECT_EQ(report.failures[i].backoff,
              backoff_delay(sup.options().retry,
                            static_cast<std::uint32_t>(i + 1)));
  }
}

TEST(Supervisor, TerminalFailureLatchesWithoutRetry) {
  Supervisor sup(fast_options());
  std::uint32_t calls = 0;
  std::vector<obs::LogRecord> events;
  obs::ScopedLogSink sink(
      [&](const obs::LogRecord& r) { events.push_back(r); });
  const auto report = sup.run("test.terminal", [&](AttemptContext&) -> AttemptOutcome {
    ++calls;
    throw tca::InvalidArgumentError("caller bug");
  });
  EXPECT_EQ(report.state, SupervisedState::kFailed);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(calls, 1u) << "terminal failures must not retry";
  EXPECT_EQ(report.last_error, ErrorCode::kInvalidArgument);
  EXPECT_EQ(report.last_error_what, "caller bug");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event, "supervisor.terminal_failure");
  EXPECT_EQ(events[0].level, obs::LogLevel::kWarn);
}

TEST(Supervisor, ExhaustedRetriesFail) {
  Supervisor sup(fast_options(3));
  std::uint32_t calls = 0;
  std::vector<obs::LogRecord> events;
  obs::ScopedLogSink sink(
      [&](const obs::LogRecord& r) { events.push_back(r); });
  const auto report = sup.run("test.exhaust", [&](AttemptContext&) -> AttemptOutcome {
    ++calls;
    throw tca::RuntimeError("io keeps failing", tca::ErrorCode::kIo);
  });
  EXPECT_EQ(report.state, SupervisedState::kFailed);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(report.attempts, 3u);
  ASSERT_EQ(report.failures.size(), 3u);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().event, "supervisor.gave_up");
}

TEST(Supervisor, RetryTransientKnobForcesOneRetry) {
  ScopedFaultPlan plan({.retry_transient_at = 1});
  Supervisor sup(fast_options());
  std::uint32_t body_calls = 0;
  const auto report = sup.run("test.knob", [&](AttemptContext&) {
    ++body_calls;
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(body_calls, 1u)
      << "the injected failure fires at attempt entry, before the body";
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].code, ErrorCode::kFaultInjected);
}

TEST(Supervisor, PressureWalksTheLadderToTheFloor) {
  obs::Counter& to_batch = obs::counter("engine.degrade.batch64");
  obs::Counter& to_scalar = obs::counter("engine.degrade.scalar");
  const auto batch_before = to_batch.value();
  const auto scalar_before = to_scalar.value();

  std::vector<obs::LogRecord> events;
  obs::ScopedLogSink sink(
      [&](const obs::LogRecord& r) { events.push_back(r); });

  Supervisor sup(fast_options(6));
  std::vector<EngineRung> rungs;
  const auto report = sup.run("test.ladder", [&](AttemptContext& ctx) {
    rungs.push_back(ctx.rung);
    if (ctx.attempt <= 3) throw std::bad_alloc{};
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.final_rung, EngineRung::kScalar);
  // The third failure lands on the floor: it retries at kScalar.
  EXPECT_EQ(rungs,
            (std::vector<EngineRung>{EngineRung::kWideSimd,
                                     EngineRung::kBatch64, EngineRung::kScalar,
                                     EngineRung::kScalar}));
  EXPECT_EQ(to_batch.value(), batch_before + 1);
  EXPECT_EQ(to_scalar.value(), scalar_before + 1);

  // Latched severity: the FIRST walk down warns, further rungs are info.
  std::vector<obs::LogLevel> degrade_levels;
  for (const auto& r : events) {
    if (r.event == "engine.degraded") degrade_levels.push_back(r.level);
  }
  ASSERT_EQ(degrade_levels.size(), 2u);
  EXPECT_EQ(degrade_levels[0], obs::LogLevel::kWarn);
  EXPECT_EQ(degrade_levels[1], obs::LogLevel::kInfo);
}

TEST(Supervisor, ScalarIsTheFloor) {
  auto options = fast_options(4);
  options.start_rung = EngineRung::kScalar;
  Supervisor sup(options);
  std::vector<EngineRung> rungs;
  const auto report = sup.run("test.floor", [&](AttemptContext& ctx) {
    rungs.push_back(ctx.rung);
    if (ctx.attempt == 1) throw std::bad_alloc{};
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
  EXPECT_FALSE(report.degraded) << "there is no rung below scalar";
  EXPECT_EQ(rungs, (std::vector<EngineRung>{EngineRung::kScalar,
                                            EngineRung::kScalar}));
}

TEST(Supervisor, NonPressureTransientKeepsTheRung) {
  Supervisor sup(fast_options(3));
  std::vector<EngineRung> rungs;
  const auto report = sup.run("test.keep_rung", [&](AttemptContext& ctx) {
    rungs.push_back(ctx.rung);
    if (ctx.attempt == 1) {
      throw tca::RuntimeError("flaky disk", tca::ErrorCode::kIo);
    }
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(rungs, (std::vector<EngineRung>{EngineRung::kWideSimd,
                                            EngineRung::kWideSimd}));
}

TEST(Supervisor, DegradeOnPressureCanBeDisabled) {
  auto options = fast_options(3);
  options.degrade_on_pressure = false;
  Supervisor sup(options);
  std::vector<EngineRung> rungs;
  const auto report = sup.run("test.no_degrade", [&](AttemptContext& ctx) {
    rungs.push_back(ctx.rung);
    if (ctx.attempt == 1) throw std::bad_alloc{};
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(rungs, (std::vector<EngineRung>{EngineRung::kWideSimd,
                                            EngineRung::kWideSimd}));
}

TEST(Supervisor, TruncationIsSuccessNotRetried) {
  auto options = fast_options();
  options.attempt_budget.max_states = 4;
  Supervisor sup(options);
  std::uint32_t calls = 0;
  const auto report = sup.run("test.truncate", [&](AttemptContext& ctx) {
    ++calls;
    // A budgeted engine: charge states until the budget trips, then
    // return the well-formed partial.
    while (ctx.control.note_states(1) == StopReason::kNone) {
    }
    return AttemptOutcome::kTruncated;
  });
  EXPECT_EQ(report.state, SupervisedState::kTruncated);
  EXPECT_TRUE(report.ok()) << "truncation is a well-formed outcome";
  EXPECT_EQ(calls, 1u) << "truncation must never be retried";
  EXPECT_EQ(report.last_status.stop_reason, StopReason::kMaxStates);
}

TEST(Supervisor, ExpiredDeadlineFailsBeforeTheFirstAttempt) {
  auto options = fast_options();
  options.deadline = std::chrono::steady_clock::duration::zero();
  Supervisor sup(options);
  std::uint32_t calls = 0;
  const auto report = sup.run("test.deadline", [&](AttemptContext&) {
    ++calls;
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kFailed);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(report.attempts, 0u);
  EXPECT_EQ(report.last_error, ErrorCode::kBudgetExhausted);
}

TEST(Supervisor, CancelledTokenShortCircuitsToTruncated) {
  auto options = fast_options();
  options.token.cancel();
  Supervisor sup(options);
  std::uint32_t calls = 0;
  const auto report = sup.run("test.cancel", [&](AttemptContext&) {
    ++calls;
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kTruncated);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(report.last_status.stop_reason, StopReason::kCancelled);
}

TEST(Supervisor, AttemptBudgetWallLimitIsCarvedFromDeadline) {
  auto options = fast_options();
  options.deadline = std::chrono::hours{1};
  // No per-attempt wall limit: the attempt inherits the remaining
  // deadline, so its control MUST have a wall limit < 1h.
  Supervisor sup(options);
  const auto report = sup.run("test.carve", [&](AttemptContext& ctx) {
    const auto& budget = ctx.control.budget();
    EXPECT_TRUE(budget.wall_limit.has_value());
    EXPECT_LE(*budget.wall_limit, std::chrono::hours{1});
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(report.state, SupervisedState::kCompleted);
}

TEST(Supervisor, CountersAccountEveryOutcome) {
  obs::Counter& runs = obs::counter("supervisor.runs");
  obs::Counter& retries = obs::counter("supervisor.retries");
  obs::Counter& completed = obs::counter("supervisor.completed");
  const auto runs_before = runs.value();
  const auto retries_before = retries.value();
  const auto completed_before = completed.value();

  Supervisor sup(fast_options());
  (void)sup.run("test.counters", [&](AttemptContext& ctx) -> AttemptOutcome {
    if (ctx.attempt == 1) throw tca::InjectedFaultError("once");
    return AttemptOutcome::kCompleted;
  });
  EXPECT_EQ(runs.value(), runs_before + 1);
  EXPECT_EQ(retries.value(), retries_before + 1);
  EXPECT_EQ(completed.value(), completed_before + 1);
}

TEST(Supervisor, RungNamesAndOrderAreStable) {
  EXPECT_STREQ(rung_name(EngineRung::kWideSimd), "wide-simd");
  EXPECT_STREQ(rung_name(EngineRung::kBatch64), "batch64");
  EXPECT_STREQ(rung_name(EngineRung::kScalar), "scalar");
  EXPECT_EQ(rung_below(EngineRung::kWideSimd), EngineRung::kBatch64);
  EXPECT_EQ(rung_below(EngineRung::kBatch64), EngineRung::kScalar);
  EXPECT_EQ(rung_below(EngineRung::kScalar), EngineRung::kScalar);
  EXPECT_STREQ(supervised_state_name(SupervisedState::kCompleted),
               "completed");
  EXPECT_STREQ(supervised_state_name(SupervisedState::kTruncated),
               "truncated");
  EXPECT_STREQ(supervised_state_name(SupervisedState::kFailed), "failed");
}

}  // namespace
}  // namespace tca::runtime
