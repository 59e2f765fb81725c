#pragma once
// Deterministic fault injection (docs/robustness.md).
//
// Graceful-degradation paths are code too, and untested ones rot. A
// FaultPlan describes exactly one deliberate failure — "the k-th guarded
// allocation throws bad_alloc", "the k-th thread-pool chunk throws", "the
// k-th budgeted state visit cancels the run", "thread spawning fails" —
// and ScopedFaultPlan installs it process-wide for the current scope. The
// hooks below are compiled into the production code paths permanently:
// with no plan installed they are a single relaxed atomic load.
//
// Counters are process-global and monotonically consumed, so a plan fires
// exactly once no matter how many threads race through the hook; tests
// install a fresh plan per scenario. Plans are for tests and the
// fault-injection CI job only — nothing in production installs one.

#include <cstdint>

namespace tca::runtime {

/// A set of deliberate failures. Counters are 1-based: `alloc_failure_at
/// = 1` fails the first guarded allocation after installation. 0 ==
/// disabled. Knobs are independent countdowns, so one plan can compose
/// several faults in a single scenario (the chaos sweep does exactly
/// that); each knob still fires exactly once.
struct FaultPlan {
  std::uint64_t alloc_failure_at = 0;    ///< check_alloc() throws bad_alloc
  std::uint64_t alloc_min_bytes = 0;     ///< alloc_failure_at only counts
                                         ///< allocations >= this many
                                         ///< advisory bytes (0 == all)
  std::uint64_t chunk_exception_at = 0;  ///< k-th ThreadPool chunk or
                                         ///< sharded-build shard throws
                                         ///< InjectedFaultError
  std::uint64_t cancel_at_visit = 0;     ///< k-th RunControl::note_states
                                         ///< cancels that run's token
  std::uint64_t checkpoint_write_at = 0;  ///< k-th save_checkpoint's write
                                          ///< fails after the tmp file
                                          ///< exists (simulated full disk)
  std::uint64_t checkpoint_read_corrupt_at = 0;  ///< k-th load_checkpoint
                                                 ///< sees its payload as
                                                 ///< corrupted (bit rot)
  std::uint64_t retry_transient_at = 0;  ///< k-th supervised attempt throws
                                         ///< InjectedFaultError at entry
  bool fail_thread_spawn = false;        ///< ThreadPool worker spawn throws
};

/// Installs `plan` for the lifetime of the scope; restores the previous
/// plan (usually none) on destruction. Not reentrancy-safe across threads:
/// intended for tests, which install one plan at a time.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ~ScopedFaultPlan();

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

namespace fault {

/// True iff any plan is installed (fast path for the hooks).
[[nodiscard]] bool active() noexcept;

/// Allocation guard: call before a large allocation; throws
/// std::bad_alloc when the installed plan says this one fails. `bytes`
/// is the allocation's advisory size: plans with `alloc_min_bytes` set
/// target only allocations at least that large, so a scenario can fail
/// the big successor-table reserve while letting small bookkeeping
/// allocations through.
void check_alloc(std::uint64_t bytes = 0);

/// ThreadPool chunk and sharded-build shard guard: throws
/// tca::InjectedFaultError when the installed plan's chunk counter fires.
void check_chunk();

/// RunControl visit hook: returns true exactly once, when the installed
/// plan's cancel_at_visit counter is consumed by this call's `n` visits.
[[nodiscard]] bool tick_visit(std::uint64_t n) noexcept;

/// ThreadPool spawn guard: returns true if worker-thread creation should
/// be simulated as failing (the pool then degrades to serial execution).
[[nodiscard]] bool should_fail_thread_spawn() noexcept;

/// Checkpoint write guard: returns true exactly once, when the installed
/// plan's checkpoint_write_at counter fires — save_checkpoint then treats
/// the stream write as failed (as if the disk filled) AFTER the tmp file
/// was created, exercising the cleanup path.
[[nodiscard]] bool tick_checkpoint_write() noexcept;

/// Checkpoint read guard: returns true exactly once, when the installed
/// plan's checkpoint_read_corrupt_at counter fires — load_checkpoint then
/// rejects the (fully read) blob as checksum-corrupt, exercising the
/// quarantine/recovery paths without touching the file on disk.
[[nodiscard]] bool tick_checkpoint_read() noexcept;

/// Supervisor attempt guard: throws tca::InjectedFaultError when the
/// installed plan's retry_transient_at counter fires, forcing one
/// transient attempt failure so retry paths run under test.
void tick_retry_attempt();

}  // namespace fault

}  // namespace tca::runtime
