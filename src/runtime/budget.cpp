#include "runtime/budget.hpp"

#include "runtime/fault.hpp"

namespace tca::runtime {

const char* stop_reason_name(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kMaxSteps: return "max-steps";
    case StopReason::kMaxStates: return "max-states";
    case StopReason::kMaxBytes: return "max-bytes";
  }
  return "none";
}

RunControl::RunControl(const RunBudget& budget, CancelToken token)
    : budget_(budget), token_(std::move(token)) {
  if (budget_.wall_limit.has_value()) {
    deadline_ = std::chrono::steady_clock::now() + *budget_.wall_limit;
    has_deadline_ = true;
  }
}

StopReason RunControl::latch_and_get(StopReason candidate) noexcept {
  std::uint8_t expected = 0;
  stop_.compare_exchange_strong(expected,
                                static_cast<std::uint8_t>(candidate),
                                std::memory_order_relaxed,
                                std::memory_order_relaxed);
  return static_cast<StopReason>(stop_.load(std::memory_order_relaxed));
}

StopReason RunControl::poll(bool force_clock) noexcept {
  const auto latched =
      static_cast<StopReason>(stop_.load(std::memory_order_relaxed));
  if (latched != StopReason::kNone) return latched;
  if (token_.cancelled()) return latch_and_get(StopReason::kCancelled);
  if (has_deadline_) {
    const auto tick = polls_.fetch_add(1, std::memory_order_relaxed);
    if (force_clock || (tick & kClockPollMask) == 0) {
      if (std::chrono::steady_clock::now() >= deadline_) {
        return latch_and_get(StopReason::kDeadline);
      }
    }
  }
  return StopReason::kNone;
}

StopReason RunControl::note_steps(std::uint64_t n) noexcept {
  const auto total = steps_.fetch_add(n, std::memory_order_relaxed) + n;
  if (total > budget_.max_steps) return latch_and_get(StopReason::kMaxSteps);
  return poll(false);
}

StopReason RunControl::note_states(std::uint64_t n) noexcept {
  // The fault plan's cancel-at-visit knob counts budgeted state visits
  // process-wide; tripping it is indistinguishable from a user cancel.
  if (fault::tick_visit(n)) token_.cancel();
  const auto total = states_.fetch_add(n, std::memory_order_relaxed) + n;
  if (total > budget_.max_states) return latch_and_get(StopReason::kMaxStates);
  return poll(false);
}

StopReason RunControl::note_bytes(std::uint64_t n) noexcept {
  const auto total = bytes_.fetch_add(n, std::memory_order_relaxed) + n;
  if (total > budget_.max_bytes) return latch_and_get(StopReason::kMaxBytes);
  return poll(false);
}

StopReason RunControl::check() noexcept { return poll(true); }

void RunControl::mark(StopReason reason) noexcept {
  if (reason == StopReason::kNone) return;
  latch_and_get(reason);
}

RunStatus RunControl::status() const noexcept {
  RunStatus s;
  s.stop_reason = static_cast<StopReason>(stop_.load(std::memory_order_relaxed));
  s.steps = steps_.load(std::memory_order_relaxed);
  s.states = states_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

bool RunControl::bytes_would_fit(std::uint64_t n) const noexcept {
  const auto used = bytes_.load(std::memory_order_relaxed);
  return n <= budget_.max_bytes && used <= budget_.max_bytes - n;
}

}  // namespace tca::runtime
