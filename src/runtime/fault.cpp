#include "runtime/fault.hpp"

#include <atomic>
#include <new>

#include "runtime/error.hpp"

namespace tca::runtime {
namespace {

// The installed plan, flattened into independent atomics so every hook is
// lock-free. `active` gates the hooks; the counters count DOWN to zero and
// fire on the transition (exactly-once across racing threads).
std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_alloc_left{0};
std::atomic<std::uint64_t> g_alloc_min_bytes{0};
std::atomic<std::uint64_t> g_chunk_left{0};
std::atomic<std::uint64_t> g_visit_left{0};
std::atomic<std::uint64_t> g_ckpt_write_left{0};
std::atomic<std::uint64_t> g_ckpt_read_left{0};
std::atomic<std::uint64_t> g_retry_left{0};
std::atomic<bool> g_fail_spawn{false};

/// Consumes `n` from a countdown; returns true iff this call crossed zero.
bool consume(std::atomic<std::uint64_t>& counter, std::uint64_t n) noexcept {
  std::uint64_t left = counter.load(std::memory_order_relaxed);
  for (;;) {
    if (left == 0) return false;  // disabled or already fired
    const std::uint64_t next = left > n ? left - n : 0;
    if (counter.compare_exchange_weak(left, next, std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
      return next == 0;
    }
  }
}

}  // namespace

ScopedFaultPlan::ScopedFaultPlan(const FaultPlan& plan) {
  g_alloc_left.store(plan.alloc_failure_at, std::memory_order_relaxed);
  g_alloc_min_bytes.store(plan.alloc_min_bytes, std::memory_order_relaxed);
  g_chunk_left.store(plan.chunk_exception_at, std::memory_order_relaxed);
  g_visit_left.store(plan.cancel_at_visit, std::memory_order_relaxed);
  g_ckpt_write_left.store(plan.checkpoint_write_at, std::memory_order_relaxed);
  g_ckpt_read_left.store(plan.checkpoint_read_corrupt_at,
                         std::memory_order_relaxed);
  g_retry_left.store(plan.retry_transient_at, std::memory_order_relaxed);
  g_fail_spawn.store(plan.fail_thread_spawn, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_release);
}

ScopedFaultPlan::~ScopedFaultPlan() {
  g_active.store(false, std::memory_order_release);
  g_alloc_left.store(0, std::memory_order_relaxed);
  g_alloc_min_bytes.store(0, std::memory_order_relaxed);
  g_chunk_left.store(0, std::memory_order_relaxed);
  g_visit_left.store(0, std::memory_order_relaxed);
  g_ckpt_write_left.store(0, std::memory_order_relaxed);
  g_ckpt_read_left.store(0, std::memory_order_relaxed);
  g_retry_left.store(0, std::memory_order_relaxed);
  g_fail_spawn.store(false, std::memory_order_relaxed);
}

namespace fault {

bool active() noexcept { return g_active.load(std::memory_order_acquire); }

void check_alloc(std::uint64_t bytes) {
  if (!active()) return;
  // Plans with a size floor target only large allocations: small
  // bookkeeping allocations pass through without consuming the countdown.
  if (bytes < g_alloc_min_bytes.load(std::memory_order_relaxed)) return;
  // tca-analyze: allow(raw-throw) the injected failure must be the exact
  // std::bad_alloc a real exhausted allocation raises.
  if (consume(g_alloc_left, 1)) throw std::bad_alloc();
}

void check_chunk() {
  if (!active()) return;
  if (consume(g_chunk_left, 1)) {
    throw InjectedFaultError("fault plan: injected chunk exception");
  }
}

bool tick_visit(std::uint64_t n) noexcept {
  if (!active()) return false;
  return consume(g_visit_left, n);
}

bool should_fail_thread_spawn() noexcept {
  return active() && g_fail_spawn.load(std::memory_order_relaxed);
}

bool tick_checkpoint_write() noexcept {
  if (!active()) return false;
  return consume(g_ckpt_write_left, 1);
}

bool tick_checkpoint_read() noexcept {
  if (!active()) return false;
  return consume(g_ckpt_read_left, 1);
}

void tick_retry_attempt() {
  if (!active()) return;
  if (consume(g_retry_left, 1)) {
    throw InjectedFaultError(
        "fault plan: injected transient attempt failure");
  }
}

}  // namespace fault

}  // namespace tca::runtime
