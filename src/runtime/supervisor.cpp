#include "runtime/supervisor.hpp"

#include <algorithm>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/fault.hpp"

namespace tca::runtime {
namespace {

using Clock = std::chrono::steady_clock;

obs::Counter& degrade_counter(EngineRung rung) {
  // One counter per rung ENTERED by degradation, named
  // engine.degrade.<rung>. Registry lookups are find-or-create by name,
  // so these statics alias the global counters.
  static obs::Counter& wide = obs::counter("engine.degrade.wide-simd");
  static obs::Counter& batch = obs::counter("engine.degrade.batch64");
  static obs::Counter& scalar = obs::counter("engine.degrade.scalar");
  switch (rung) {
    case EngineRung::kWideSimd: return wide;
    case EngineRung::kBatch64: return batch;
    case EngineRung::kScalar: return scalar;
  }
  return scalar;
}

std::chrono::milliseconds remaining_ms(const Clock::time_point& deadline) {
  const auto now = Clock::now();
  if (now >= deadline) return std::chrono::milliseconds{0};
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               now);
}

}  // namespace

const char* rung_name(EngineRung rung) noexcept {
  switch (rung) {
    case EngineRung::kWideSimd: return "wide-simd";
    case EngineRung::kBatch64: return "batch64";
    case EngineRung::kScalar: return "scalar";
  }
  return "scalar";
}

EngineRung rung_below(EngineRung rung) noexcept {
  switch (rung) {
    case EngineRung::kWideSimd: return EngineRung::kBatch64;
    case EngineRung::kBatch64: return EngineRung::kScalar;
    case EngineRung::kScalar: return EngineRung::kScalar;
  }
  return EngineRung::kScalar;
}

const char* supervised_state_name(SupervisedState state) noexcept {
  switch (state) {
    case SupervisedState::kCompleted: return "completed";
    case SupervisedState::kTruncated: return "truncated";
    case SupervisedState::kFailed: return "failed";
  }
  return "failed";
}

SupervisorReport Supervisor::run(std::string_view job, const Body& body) {
  TCA_SPAN("supervised_run");
  static obs::Counter& runs = obs::counter("supervisor.runs");
  static obs::Counter& attempts_c = obs::counter("supervisor.attempts");
  static obs::Counter& retries_c = obs::counter("supervisor.retries");
  static obs::Counter& completed_c = obs::counter("supervisor.completed");
  static obs::Counter& truncated_c = obs::counter("supervisor.truncated");
  static obs::Counter& failed_c = obs::counter("supervisor.failed");
  runs.add();

  const auto start = Clock::now();
  const bool has_deadline = options_.deadline.has_value();
  const auto deadline = has_deadline ? start + *options_.deadline : start;

  SupervisorReport report;
  report.final_rung = options_.start_rung;
  EngineRung rung = options_.start_rung;
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(options_.retry.max_attempts, 1);

  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (options_.token.cancelled()) {
      // Cancelled between attempts: report the run as a (zero-work)
      // well-formed truncation, the same shape a mid-attempt cancel has.
      report.last_status.stop_reason = StopReason::kCancelled;
      report.state = SupervisedState::kTruncated;
      report.final_rung = rung;
      truncated_c.add();
      return report;
    }
    if (has_deadline && Clock::now() >= deadline) {
      report.state = SupervisedState::kFailed;
      report.last_error = ErrorCode::kBudgetExhausted;
      report.last_error_what = "supervisor deadline exhausted before attempt";
      report.final_rung = rung;
      failed_c.add();
      obs::log_event(obs::LogLevel::kWarn, "supervisor.deadline",
                     {{"job", std::string(job)},
                      {"attempts", std::to_string(report.attempts)}});
      return report;
    }

    // Carve this attempt's wall limit out of the remaining deadline.
    RunBudget budget = options_.attempt_budget;
    if (has_deadline) {
      const auto remaining = deadline - Clock::now();
      budget.wall_limit = budget.wall_limit
                              ? std::min(*budget.wall_limit,
                                         Clock::duration(remaining))
                              : Clock::duration(remaining);
    }
    RunControl control(budget, options_.token);
    AttemptContext ctx{attempt, rung, control};
    report.attempts = attempt;
    report.final_rung = rung;
    attempts_c.add();

    try {
      fault::tick_retry_attempt();  // retry_transient_at knob
      const AttemptOutcome outcome = body(ctx);
      report.last_status = control.status();
      report.state = outcome == AttemptOutcome::kCompleted
                         ? SupervisedState::kCompleted
                         : SupervisedState::kTruncated;
      (outcome == AttemptOutcome::kCompleted ? completed_c : truncated_c)
          .add();
      return report;
    } catch (...) {
      const FailureVerdict verdict =
          classify_failure(std::current_exception());
      report.last_status = control.status();
      report.last_error = verdict.code;
      report.last_error_what = verdict.what;
      AttemptFailure failure;
      failure.attempt = attempt;
      failure.rung = rung;
      failure.cls = verdict.cls;
      failure.code = verdict.code;
      failure.what = verdict.what;

      if (verdict.cls == FailureClass::kTerminal) {
        report.failures.push_back(std::move(failure));
        report.state = SupervisedState::kFailed;
        failed_c.add();
        obs::log_event(obs::LogLevel::kWarn, "supervisor.terminal_failure",
                       {{"job", std::string(job)},
                        {"attempt", std::to_string(attempt)},
                        {"code", error_code_name(verdict.code)},
                        {"what", verdict.what}});
        return report;
      }
      if (attempt == max_attempts) {
        report.failures.push_back(std::move(failure));
        report.state = SupervisedState::kFailed;
        failed_c.add();
        obs::log_event(obs::LogLevel::kWarn, "supervisor.gave_up",
                       {{"job", std::string(job)},
                        {"attempts", std::to_string(attempt)},
                        {"code", error_code_name(verdict.code)}});
        return report;
      }

      if (verdict.degrade && options_.degrade_on_pressure &&
          rung != EngineRung::kScalar) {
        const EngineRung below = rung_below(rung);
        degrade_counter(below).add();
        // Latched warn: the first walk down the ladder in a run warns;
        // further rungs are expected consequences and stay at info.
        obs::log_event(
            report.degraded ? obs::LogLevel::kInfo : obs::LogLevel::kWarn,
            "engine.degraded",
            {{"job", std::string(job)},
             {"from", rung_name(rung)},
             {"to", rung_name(below)},
             {"code", error_code_name(verdict.code)}});
        rung = below;
        report.degraded = true;
      }

      std::chrono::milliseconds delay =
          backoff_delay(options_.retry, attempt);
      if (has_deadline) delay = std::min(delay, remaining_ms(deadline));
      failure.backoff = delay;
      report.failures.push_back(std::move(failure));
      retries_c.add();
      obs::log_event(obs::LogLevel::kInfo, "supervisor.retry",
                     {{"job", std::string(job)},
                      {"attempt", std::to_string(attempt)},
                      {"code", error_code_name(verdict.code)},
                      {"backoff_ms", std::to_string(delay.count())},
                      {"next_rung", rung_name(rung)}});
      if (options_.apply_backoff && delay.count() > 0) {
        std::this_thread::sleep_for(delay);
      }
    }
  }
  // Unreachable: every loop exit path returns above.
  report.state = SupervisedState::kFailed;
  return report;
}

}  // namespace tca::runtime
