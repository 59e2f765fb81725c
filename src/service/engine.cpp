#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/supervised.hpp"
#include "runtime/ckpt_store.hpp"
#include "runtime/error.hpp"

namespace tca::service {
namespace {

namespace fs = std::filesystem;

/// Resume-checkpoint payload: two text header lines (the canonical key,
/// so a digest collision can never seed the wrong build, and the built
/// count) followed by the successor-table prefix as explicit
/// little-endian uint64 bytes (portable, unlike a memcpy of the vector).
std::string encode_resume_payload(const std::string& key,
                                  const std::vector<phasespace::StateCode>& succ,
                                  std::uint64_t built) {
  std::string payload = key + "\nbuilt=" + std::to_string(built) + "\n";
  payload.reserve(payload.size() + built * 8);
  for (std::uint64_t i = 0; i < built; ++i) {
    std::uint64_t v = succ[i];
    for (int b = 0; b < 8; ++b) {
      payload += static_cast<char>(v & 0xFF);
      v >>= 8;
    }
  }
  return payload;
}

/// Parses a resume payload into succ[0 .. built); false on any mismatch
/// (foreign key, bad framing, impossible count) — the caller then builds
/// from scratch.
bool decode_resume_payload(const std::string& payload, const std::string& key,
                           std::uint64_t total,
                           std::vector<phasespace::StateCode>& succ,
                           std::uint64_t& built) {
  const std::size_t nl1 = payload.find('\n');
  if (nl1 == std::string::npos || payload.compare(0, nl1, key) != 0) {
    return false;
  }
  const std::size_t nl2 = payload.find('\n', nl1 + 1);
  if (nl2 == std::string::npos) return false;
  const std::string count_line = payload.substr(nl1 + 1, nl2 - nl1 - 1);
  if (count_line.rfind("built=", 0) != 0) return false;
  std::uint64_t count = 0;
  for (const char c : count_line.substr(6)) {
    if (c < '0' || c > '9') return false;
    count = count * 10 + static_cast<std::uint64_t>(c - '0');
    if (count > total) return false;
  }
  if (payload.size() - (nl2 + 1) != count * 8) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) {
      v = (v << 8) | static_cast<std::uint8_t>(
                         payload[nl2 + 1 + i * 8 + static_cast<std::size_t>(b)]);
    }
    succ[i] = v;
  }
  built = count;
  return true;
}

/// Builds the per-attempt stepper. Synchronous builds honor the
/// degradation-ladder rung; sweep builds have no rung-forced constructor
/// (the sweep map is inherently per-code) and run the dispatched tier at
/// every rung.
phasespace::BatchCodeStepper make_stepper(const core::Automaton& a,
                                          const ServiceQuery& query,
                                          runtime::EngineRung rung) {
  if (query.scheme == Scheme::kSweep) {
    return phasespace::BatchCodeStepper(a, query.effective_order());
  }
  return phasespace::BatchCodeStepper(a, rung);
}

/// Derives the typed result from a completed explicit graph. Every path
/// is storage-generic: random access goes through FunctionalGraph::succ
/// and whole-table scans stream via SuccessorStore::for_each_range, so
/// the same code serves the flat, packed, and disk backends
/// (docs/service.md "storage backends").
QueryResult result_from_graph(const ServiceQuery& query,
                              const phasespace::FunctionalGraph& fg) {
  QueryResult r;
  r.kind = query.kind;
  r.num_states = fg.num_states();
  switch (query.kind) {
    case QueryKind::kAttractorSummary:
    case QueryKind::kTransientDepth: {
      const phasespace::Classification c = phasespace::classify(fg);
      r.num_attractors = c.attractors.size();
      r.num_fixed_points = c.num_fixed_points;
      r.num_cycle_states = c.num_cycle_states;
      r.num_transient_states = c.num_transient_states;
      r.num_gardens_of_eden = c.num_gardens_of_eden;
      r.max_period = c.max_period();
      r.max_transient = c.max_transient;
      r.cycle_lengths.assign(c.cycle_length_histogram.begin(),
                             c.cycle_length_histogram.end());
      break;
    }
    case QueryKind::kGoeCensus: {
      // A 1-bit/state reached bitmap; the table is complete, so the
      // census runs unbudgeted and never truncates.
      runtime::RunControl unlimited;
      r.gardens =
          phasespace::count_gardens_of_eden(fg.store(), unlimited).gardens;
      r.scanned = fg.num_states();
      break;
    }
    case QueryKind::kPreimageCount: {
      std::uint64_t count = 0;
      fg.store().for_each_range(
          [&](phasespace::StateCode, std::size_t n,
              const phasespace::StateCode* block) {
            for (std::size_t i = 0; i < n; ++i) {
              count += block[i] == query.target ? 1 : 0;
            }
          });
      r.preimage_count = count;
      r.is_garden_of_eden = count == 0;
      r.method = "explicit";
      break;
    }
  }
  return r;
}

}  // namespace

runtime::RunBudget RequestBudget::to_run_budget() const {
  runtime::RunBudget budget;
  budget.max_states = max_states;
  if (wall_ms != 0) {
    budget.wall_limit = std::chrono::milliseconds(wall_ms);
  }
  return budget;
}

/// FIFO-ish admission: holds one of max_concurrent_builds slots for the
/// lifetime of the object; the wait is recorded in
/// service.admission.wait_us.
class QueryEngine::AdmissionSlot {
 public:
  explicit AdmissionSlot(QueryEngine& engine) : engine_(engine) {
    static obs::Histogram& wait_us = obs::histogram(
        "service.admission.wait_us", obs::default_latency_bounds_us());
    const auto t0 = std::chrono::steady_clock::now();
    {
      LockGuard lock(engine_.mu_);
      while (engine_.active_builds_ >= engine_.options_.max_concurrent_builds) {
        engine_.cv_.wait(lock);
      }
      ++engine_.active_builds_;
      ++engine_.builds_started_;
    }
    wait_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }

  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

  ~AdmissionSlot() {
    {
      LockGuard lock(engine_.mu_);
      --engine_.active_builds_;
    }
    engine_.cv_.notify_one();
  }

 private:
  QueryEngine& engine_;
};

QueryEngine::QueryEngine(EngineOptions options)
    : options_([&] {
        options.max_concurrent_builds =
            std::max<std::uint32_t>(options.max_concurrent_builds, 1);
        options.ckpt_every_states =
            std::max<std::uint64_t>(options.ckpt_every_states, 1024);
        return options;
      }()) {}

std::uint64_t QueryEngine::builds_started() const {
  LockGuard lock(mu_);
  return builds_started_;
}

QueryOutcome QueryEngine::execute(const ServiceQuery& query,
                                  const RequestBudget& budget,
                                  runtime::CancelToken token) {
  TCA_SPAN("service_execute");
  if (query.kind == QueryKind::kPreimageCount && !query.needs_explicit_graph()) {
    return run_preimage_transfer_matrix(query);
  }
  if (query.kind == QueryKind::kGoeCensus &&
      query.scheme == Scheme::kSynchronous) {
    return run_goe_supervised(query, budget, token);
  }
  return run_explicit(query, budget, std::move(token));
}

QueryOutcome QueryEngine::run_preimage_transfer_matrix(
    const ServiceQuery& query) const {
  TCA_SPAN("service_preimage_tm");
  QueryOutcome out;
  const phasespace::RingPreimageSolver solver(
      query.rule.materialize(2 * query.radius + 1), query.radius,
      core::Memory::kWith);
  const core::Configuration target =
      core::Configuration::from_bits(query.target, query.n);
  const std::uint64_t count = solver.count(target);
  out.status = QueryOutcome::Status::kOk;
  out.result.kind = query.kind;
  out.result.num_states = std::uint64_t{1} << query.n;
  out.result.preimage_count = count;
  out.result.is_garden_of_eden = count == 0;
  out.result.method = "transfer-matrix";
  out.states_done = out.states_total = out.result.num_states;
  return out;
}

QueryOutcome QueryEngine::run_goe_supervised(const ServiceQuery& query,
                                             const RequestBudget& budget,
                                             runtime::CancelToken token) {
  TCA_SPAN("service_goe_census");
  static obs::Counter& supervised = obs::counter("service.engine.supervised");
  static obs::Counter& truncated = obs::counter("service.engine.truncated");
  static obs::Counter& failed = obs::counter("service.engine.failed");

  const AdmissionSlot slot(*this);
  supervised.add();

  runtime::SupervisorOptions opts = options_.supervisor;
  opts.attempt_budget = budget.to_run_budget();
  if (budget.wall_ms != 0) {
    opts.deadline = std::chrono::milliseconds(budget.wall_ms);
  }
  opts.token = std::move(token);

  const core::Automaton a = query.automaton();
  const phasespace::SupervisedGoeCensus sup =
      phasespace::supervised_goe_census(a, opts);

  QueryOutcome out;
  out.degraded = sup.report.degraded;
  out.states_total = std::uint64_t{1} << query.n;
  out.states_done = sup.census.scanned;
  out.stop_reason = sup.census.stop_reason;
  if (!sup.report.ok()) {
    out.status = QueryOutcome::Status::kFailed;
    out.error_code = sup.report.last_error;
    out.error = sup.report.last_error_what;
    failed.add();
    return out;
  }
  if (sup.census.truncated) {
    out.status = QueryOutcome::Status::kTruncated;
    truncated.add();
    return out;
  }
  out.status = QueryOutcome::Status::kOk;
  out.result.kind = query.kind;
  out.result.num_states = out.states_total;
  out.result.gardens = sup.census.gardens;
  out.result.scanned = sup.census.scanned;
  return out;
}

QueryOutcome QueryEngine::run_explicit(const ServiceQuery& query,
                                       const RequestBudget& budget,
                                       runtime::CancelToken token) {
  TCA_SPAN("service_explicit_build");
  static obs::Counter& builds = obs::counter("service.engine.builds");
  static obs::Counter& small_n = obs::counter("service.engine.small_n");
  static obs::Counter& supervised = obs::counter("service.engine.supervised");
  static obs::Counter& truncated = obs::counter("service.engine.truncated");
  static obs::Counter& failed = obs::counter("service.engine.failed");
  static obs::Counter& resume_saved = obs::counter("service.resume.saved");
  static obs::Counter& resume_resumed = obs::counter("service.resume.resumed");

  const AdmissionSlot slot(*this);
  builds.add();

  const core::Automaton a = query.automaton();
  const std::uint64_t total = std::uint64_t{1} << query.n;
  const std::string key = query.canonical_key();

  QueryOutcome out;
  out.states_total = total;

  std::vector<phasespace::StateCode> succ;
  try {
    succ.resize(total);
  } catch (const std::bad_alloc&) {
    out.status = QueryOutcome::Status::kFailed;
    out.error_code = ErrorCode::kDomainTooLarge;
    out.error = "successor table allocation failed";
    failed.add();
    return out;
  }
  std::uint64_t built = 0;

  const bool small = query.n <= options_.small_n_bits;
  const bool resumable = !small && !options_.ckpt_dir.empty();
  std::optional<runtime::CheckpointStore> store;
  if (resumable) {
    std::error_code ec;
    fs::create_directories(options_.ckpt_dir, ec);
    store.emplace(
        (fs::path(options_.ckpt_dir) / (query.digest() + ".ckpt")).string());
    if (auto recovery = store->load_latest()) {
      if (decode_resume_payload(recovery->checkpoint.payload, key, total, succ,
                                built)) {
        out.resumed = true;
        resume_resumed.add();
        obs::log_event(obs::LogLevel::kInfo, "service.resume",
                       {{"key", key}, {"built", built}, {"total", total}});
      }
    }
  }

  constexpr std::uint64_t kSegment = 1u << 14;
  const auto build_segments = [&](phasespace::BatchCodeStepper& stepper,
                                  runtime::RunControl& control) {
    std::uint64_t last_saved = built;
    runtime::StopReason reason = control.note_bytes(total * 8);
    while (reason == runtime::StopReason::kNone && built < total) {
      const std::uint64_t chunk = std::min(kSegment, total - built);
      stepper.step_range(built, static_cast<std::size_t>(chunk),
                         succ.data() + built);
      built += chunk;
      reason = control.note_states(chunk);
      if (store && built - last_saved >= options_.ckpt_every_states &&
          built < total) {
        runtime::Checkpoint ckpt;
        ckpt.payload = encode_resume_payload(key, succ, built);
        store->save(ckpt);
        resume_saved.add();
        last_saved = built;
      }
    }
    // Persist progress past the last cadence point when stopping early, so
    // the next identical request resumes from here.
    if (store && built < total && built > last_saved) {
      runtime::Checkpoint ckpt;
      ckpt.payload = encode_resume_payload(key, succ, built);
      store->save(ckpt);
      resume_saved.add();
    }
    return reason;
  };

  if (small) {
    small_n.add();
    runtime::RunControl control(budget.to_run_budget(), std::move(token));
    phasespace::BatchCodeStepper stepper =
        make_stepper(a, query, runtime::EngineRung::kWideSimd);
    phasespace::note_batch_fallback(stepper, a, "service.build");
    const runtime::StopReason reason = build_segments(stepper, control);
    if (built < total) {
      out.status = QueryOutcome::Status::kTruncated;
      out.stop_reason = reason;
      out.states_done = built;
      truncated.add();
      return out;
    }
  } else {
    supervised.add();
    runtime::SupervisorOptions opts = options_.supervisor;
    opts.attempt_budget = budget.to_run_budget();
    if (budget.wall_ms != 0) {
      opts.deadline = std::chrono::milliseconds(budget.wall_ms);
    }
    opts.token = std::move(token);
    runtime::Supervisor sup(opts);
    const runtime::SupervisorReport report = sup.run(
        "service.build", [&](runtime::AttemptContext& ctx) {
          phasespace::BatchCodeStepper stepper =
              make_stepper(a, query, ctx.rung);
          const runtime::StopReason reason =
              build_segments(stepper, ctx.control);
          return reason == runtime::StopReason::kNone && built == total
                     ? runtime::AttemptOutcome::kCompleted
                     : runtime::AttemptOutcome::kTruncated;
        });
    out.degraded = report.degraded;
    if (!report.ok()) {
      out.status = QueryOutcome::Status::kFailed;
      out.error_code = report.last_error;
      out.error = report.last_error_what;
      out.states_done = built;
      failed.add();
      return out;
    }
    if (built < total) {
      out.status = QueryOutcome::Status::kTruncated;
      out.stop_reason = report.last_status.stop_reason;
      out.states_done = built;
      truncated.add();
      return out;
    }
  }

  out.states_done = built;
  // Completed table -> configured storage backend. kFlat adopts the
  // vector as-is; kPacked re-encodes to n bits per successor and drops
  // the 8-byte staging table; kDisk spills under ckpt_dir/store/ and
  // streams results back with bounded RAM. Result derivation is
  // backend-generic (result_from_graph), so all three agree bit-for-bit.
  phasespace::StoreKind store_kind = options_.store;
  if (store_kind == phasespace::StoreKind::kDisk &&
      options_.ckpt_dir.empty()) {
    obs::log_event(obs::LogLevel::kWarn, "service.store.fallback",
                   {{"reason", "disk backend needs ckpt_dir"},
                    {"fallback", "flat"}});
    store_kind = phasespace::StoreKind::kFlat;
  }
  std::optional<phasespace::FunctionalGraph> fg;
  if (store_kind == phasespace::StoreKind::kFlat) {
    fg.emplace(
        phasespace::FunctionalGraph::from_table(query.n, std::move(succ)));
  } else {
    const std::string disk_dir =
        store_kind == phasespace::StoreKind::kDisk
            ? (fs::path(options_.ckpt_dir) / "store" / query.digest()).string()
            : std::string();
    std::shared_ptr<phasespace::SuccessorStore> backend =
        phasespace::make_store(store_kind, query.n, disk_dir);
    backend->put_range(0, static_cast<std::size_t>(total), succ.data());
    backend->finalize();
    succ = {};  // release the 8-byte staging table before deriving results
    fg.emplace(phasespace::FunctionalGraph::from_store(std::move(backend)));
  }
  out.result = result_from_graph(query, *fg);
  out.status = QueryOutcome::Status::kOk;

  // The spilled table is scratch space for result derivation, not a
  // cache (the RESULT cache lives in front of the engine); reclaim it.
  if (store_kind == phasespace::StoreKind::kDisk) {
    fg.reset();  // unmap before unlinking
    std::error_code ec;
    fs::remove_all(fs::path(options_.ckpt_dir) / "store" / query.digest(), ec);
  }

  // A completed build's resume checkpoints are dead weight (the RESULT is
  // now in the cache); drop them. Quarantined files are left alone.
  if (store) {
    for (const std::string& path : store->generations()) {
      std::error_code ec;
      fs::remove(path, ec);
    }
  }
  return out;
}

}  // namespace tca::service
