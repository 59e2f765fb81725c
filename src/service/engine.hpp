#pragma once
// The tcad compute core (docs/service.md).
//
// Executes one validated ServiceQuery and returns a typed outcome. Three
// execution paths, picked per query:
//
//  * TRANSFER MATRIX — synchronous-ring preimage counts go through
//    phasespace::RingPreimageSolver: O(n) matrix products, no state
//    enumeration, answered inline (no admission slot needed).
//  * GOE CENSUS — every goe-census query, of either scheme, is one
//    supervised table-free census (phasespace::count_gardens_of_eden over
//    the automaton, one worker per 2^20 states): the sharded drain ORs
//    successors into a 1-bit/state bitmap, so nothing is stored, spilled
//    or resumed — a truncated or retried census restarts its scan.
//  * SUPERVISED BUILD — the other kinds build the successor table under
//    runtime::Supervisor (retry + engine-degradation ladder) with a
//    per-request RunBudget and CancelToken, one sharded build per attempt
//    (phasespace::build_synchronous_sharded / build_sweep_sharded, one
//    worker per 2^20 states). With a ckpt_dir, builds above small_n_bits
//    spill kDisk extents under ckpt_dir/store/<digest>, each state once,
//    and a budget-truncated or killed build RESUMES on the next identical
//    request by skipping every digest-valid shard; the finished extents
//    are streamed into a flat table. The canonical key is recorded beside
//    the extents, so a digest collision wipes them instead of seeding the
//    wrong build. Smaller builds, and every build without a ckpt_dir,
//    write straight into a flat table: recomputing them is cheaper than
//    checkpointing them.
//
// Admission control: at most max_concurrent_builds explicit builds run
// at once; excess requests queue on a condition variable (FIFO-ish) and
// their wait is recorded in the service.admission.wait_us histogram.
//
// Counters: service.engine.{builds,supervised,truncated,failed},
// service.resume.{saved,resumed}.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/annotations.hpp"
#include "phasespace/functional_graph.hpp"
#include "runtime/budget.hpp"
#include "runtime/supervisor.hpp"
#include "service/query.hpp"

namespace tca::service {

struct EngineOptions {
  /// Directory for resumable large-n builds; empty disables resume.
  std::string ckpt_dir;
  /// Builds with n <= this many bits never spill resumable extents, even
  /// with a ckpt_dir: recomputing them is cheaper than checkpointing.
  std::uint32_t small_n_bits = 16;
  /// Explicit builds admitted concurrently; further requests queue.
  std::uint32_t max_concurrent_builds = 2;
  /// Retry/degradation policy for supervised builds. The per-request
  /// budget is layered on top as the attempt budget.
  runtime::SupervisorOptions supervisor;
};

/// Per-request resource limits, parsed from the request's "budget" object.
struct RequestBudget {
  std::uint64_t max_states = runtime::RunBudget::kUnlimited;
  std::uint64_t wall_ms = 0;  ///< 0 = no wall limit

  [[nodiscard]] runtime::RunBudget to_run_budget() const;
};

/// How one execution ended.
struct QueryOutcome {
  enum class Status : std::uint8_t { kOk = 0, kTruncated, kFailed };

  Status status = Status::kFailed;
  QueryResult result;  ///< valid iff status == kOk
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
  /// Truncated resumable builds: states held by the whole kDisk shards
  /// kept under ckpt_dir, which the next identical request skips. 0 when
  /// nothing was kept (no ckpt_dir, small n, GoE censuses).
  std::uint64_t states_done = 0;
  std::uint64_t states_total = 0;
  bool resumed = false;   ///< extents of an earlier request seeded this build
  bool degraded = false;  ///< the supervisor walked the engine ladder
  ErrorCode error_code = ErrorCode::kUnknown;
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `query` (already validated) under the request budget.
  /// `token` cancels cooperatively (server shutdown, client gone). Never
  /// throws for compute-path failures — they land in the outcome.
  [[nodiscard]] QueryOutcome execute(const ServiceQuery& query,
                                     const RequestBudget& budget,
                                     runtime::CancelToken token);

  /// Total explicit-graph builds started (supervised attempts are
  /// counted once per execute, not per retry). Test hook for the
  /// coalescing assertion "N identical concurrent requests -> 1 build".
  [[nodiscard]] std::uint64_t builds_started() const;

 private:
  class AdmissionSlot;

  QueryOutcome run_preimage_transfer_matrix(const ServiceQuery& query) const;
  QueryOutcome run_explicit(const ServiceQuery& query,
                            const RequestBudget& budget,
                            runtime::CancelToken token);
  QueryOutcome run_goe_census(const ServiceQuery& query,
                              const RequestBudget& budget,
                              runtime::CancelToken token);
  /// Runs `attempt` (true = complete) under a Supervisor with the
  /// request's budget, deadline and token; a failed or truncated run is
  /// recorded in `out`. True iff an attempt completed.
  bool supervise(
      std::string_view job, const RequestBudget& budget,
      runtime::CancelToken token, QueryOutcome& out,
      const std::function<bool(runtime::AttemptContext&)>& attempt) const;
  /// run_explicit's build: the completed flat graph, or nullopt with
  /// `out` describing the truncation or failure. A `resumable` build
  /// spills kDisk extents under ckpt_dir, resumes from them, and streams
  /// the finished table into a flat store.
  std::optional<phasespace::FunctionalGraph> build_supervised(
      const ServiceQuery& query, const RequestBudget& budget,
      runtime::CancelToken token, bool resumable, QueryOutcome& out) const;

  const EngineOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::uint32_t active_builds_ TCA_GUARDED_BY(mu_) = 0;
  std::uint64_t builds_started_ TCA_GUARDED_BY(mu_) = 0;
};

}  // namespace tca::service
