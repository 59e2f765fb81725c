#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/error.hpp"

namespace tca::service {
namespace {

namespace fs = std::filesystem;

/// Derives the typed result of a graph-building query kind
/// (attractor-summary, transient-depth, explicit preimage-count) from a
/// completed explicit graph. Every path is storage-generic: random access
/// goes through FunctionalGraph::succ and whole-table scans stream via
/// SuccessorStore::for_each_range, so the same code serves the flat and
/// disk backends (docs/service.md "storage backends").
QueryResult result_from_graph(const ServiceQuery& query,
                              const phasespace::FunctionalGraph& fg) {
  QueryResult r;
  r.kind = query.kind;
  r.num_states = fg.num_states();
  if (query.kind == QueryKind::kPreimageCount) {
    std::uint64_t count = 0;
    fg.store().for_each_range([&](phasespace::StateCode, std::size_t n,
                                  const phasespace::StateCode* block) {
      for (std::size_t i = 0; i < n; ++i) {
        count += block[i] == query.target ? 1 : 0;
      }
    });
    r.preimage_count = count;
    r.is_garden_of_eden = count == 0;
    r.method = "explicit";
    return r;
  }
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
  return r;
}

/// Directory a kDisk build spills its extents to.
fs::path store_dir(const EngineOptions& options, const ServiceQuery& query) {
  return fs::path(options.ckpt_dir) / "store" / query.digest();
}

/// Readies a resumable build's store directory for `key`. The directory
/// is named by a 64-bit digest, so the canonical key is recorded beside
/// the manifest; extents left there by another key (a digest collision)
/// are wiped instead of resumed.
void claim_store_dir(const fs::path& dir, const std::string& key) {
  const fs::path key_file = dir / "query.key";
  std::error_code ec;
  if (fs::exists(dir, ec)) {
    std::ifstream in(key_file, std::ios::binary);
    const std::string recorded{std::istreambuf_iterator<char>(in), {}};
    if (recorded == key) return;
    obs::log_event(obs::LogLevel::kWarn, "service.resume.foreign",
                   {{"dir", dir.string()}, {"key", key}});
    fs::remove_all(dir, ec);
  }
  fs::create_directories(dir, ec);
  std::ofstream(key_file, std::ios::binary | std::ios::trunc) << key;
}

/// Streams a finished disk table into a flat RAM table.
std::shared_ptr<phasespace::SuccessorStore> load_into_flat(
    const phasespace::SuccessorStore& disk) {
  constexpr phasespace::StateCode kChunk = phasespace::StateCode{1} << 16;
  const phasespace::StateCode total = disk.num_entries();
  std::shared_ptr<phasespace::SuccessorStore> ram =
      phasespace::make_store(phasespace::StoreKind::kFlat, disk.bits());
  std::vector<phasespace::StateCode> block(static_cast<std::size_t>(kChunk));
  for (phasespace::StateCode first = 0; first < total; first += kChunk) {
    const auto count =
        static_cast<std::size_t>(std::min(kChunk, total - first));
    disk.read_range(first, count, block.data());
    ram->put_range(first, count, block.data());
  }
  ram->finalize();
  return ram;
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
  if (query.kind == QueryKind::kGoeCensus) {
    return run_goe_census(query, budget, std::move(token));
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
  out.states_total = out.result.num_states;
  return out;
}

bool QueryEngine::supervise(
    std::string_view job, const RequestBudget& budget,
    runtime::CancelToken token, QueryOutcome& out,
    const std::function<bool(runtime::AttemptContext&)>& attempt) const {
  static obs::Counter& supervised = obs::counter("service.engine.supervised");
  static obs::Counter& truncated = obs::counter("service.engine.truncated");
  static obs::Counter& failed = obs::counter("service.engine.failed");

  supervised.add();
  runtime::SupervisorOptions opts = options_.supervisor;
  opts.attempt_budget = budget.to_run_budget();
  if (budget.wall_ms != 0) {
    opts.deadline = std::chrono::milliseconds(budget.wall_ms);
  }
  opts.token = std::move(token);
  runtime::Supervisor sup(opts);
  const runtime::SupervisorReport report =
      sup.run(job, [&](runtime::AttemptContext& ctx) {
        return attempt(ctx) ? runtime::AttemptOutcome::kCompleted
                            : runtime::AttemptOutcome::kTruncated;
      });
  out.degraded = report.degraded;
  if (!report.ok()) {
    out.status = QueryOutcome::Status::kFailed;
    out.error_code = report.last_error;
    out.error = report.last_error_what;
    failed.add();
    return false;
  }
  if (report.state == runtime::SupervisedState::kTruncated) {
    out.status = QueryOutcome::Status::kTruncated;
    out.stop_reason = report.last_status.stop_reason;
    truncated.add();
    return false;
  }
  return true;
}

QueryOutcome QueryEngine::run_goe_census(const ServiceQuery& query,
                                         const RequestBudget& budget,
                                         runtime::CancelToken token) {
  TCA_SPAN("service_goe_census");
  const AdmissionSlot slot(*this);

  QueryOutcome out;
  out.states_total = std::uint64_t{1} << query.n;
  const core::Automaton a = query.automaton();
  std::optional<std::vector<core::NodeId>> order;
  if (query.scheme == Scheme::kSweep) order = query.effective_order();
  phasespace::ShardedBuildOptions census_options;
  census_options.workers = phasespace::workers_for_states(out.states_total);
  phasespace::GoeCensus census;
  const bool complete = supervise(
      "service.goe_census", budget, std::move(token), out,
      [&](runtime::AttemptContext& ctx) {
        census_options.rung = ctx.rung;
        census = phasespace::count_gardens_of_eden(a, order, census_options,
                                                   ctx.control);
        return !census.truncated;
      });
  if (!complete) return out;
  out.status = QueryOutcome::Status::kOk;
  out.result.kind = query.kind;
  out.result.num_states = out.states_total;
  out.result.gardens = census.gardens;
  out.result.scanned = census.scanned;
  return out;
}

QueryOutcome QueryEngine::run_explicit(const ServiceQuery& query,
                                       const RequestBudget& budget,
                                       runtime::CancelToken token) {
  TCA_SPAN("service_explicit_build");
  static obs::Counter& builds = obs::counter("service.engine.builds");

  const AdmissionSlot slot(*this);
  builds.add();

  QueryOutcome out;
  out.states_total = std::uint64_t{1} << query.n;
  // Recomputing a small build is cheaper than checkpointing it.
  const bool resumable =
      !options_.ckpt_dir.empty() && query.n > options_.small_n_bits;
  std::optional<phasespace::FunctionalGraph> fg = build_supervised(
      query, budget, std::move(token), resumable, out);
  if (fg) {
    out.result = result_from_graph(query, *fg);
    out.status = QueryOutcome::Status::kOk;
  }

  // A spilled table is scratch space for result derivation, not a cache
  // (the RESULT cache lives in front of the engine): reclaim it once the
  // result exists.
  if (resumable && fg) {
    std::error_code ec;
    fs::remove_all(store_dir(options_, query), ec);
  }
  return out;
}

std::optional<phasespace::FunctionalGraph> QueryEngine::build_supervised(
    const ServiceQuery& query, const RequestBudget& budget,
    runtime::CancelToken token, bool resumable, QueryOutcome& out) const {
  static obs::Counter& resume_saved = obs::counter("service.resume.saved");
  static obs::Counter& resume_resumed = obs::counter("service.resume.resumed");

  const core::Automaton a = query.automaton();

  // A resumable build spills kDisk extents, so a truncated or killed
  // build resumes from its digest-valid shards; any other build writes
  // straight into a flat table.
  phasespace::ShardedBuildOptions build_options;
  build_options.workers = phasespace::workers_for_states(out.states_total);
  build_options.store = resumable ? phasespace::StoreKind::kDisk
                                  : phasespace::StoreKind::kFlat;
  if (resumable) {
    const fs::path dir = store_dir(options_, query);
    claim_store_dir(dir, query.canonical_key());
    build_options.disk_dir = dir.string();
    build_options.resume = true;
  }

  phasespace::ShardedBuild build;
  const bool complete = supervise(
      "service.build", budget, std::move(token), out,
      [&](runtime::AttemptContext& ctx) {
        // Synchronous builds honor the degradation-ladder rung; the sweep
        // map is inherently per-code and runs the dispatched tier.
        build_options.rung = ctx.rung;
        build = query.scheme == Scheme::kSweep
                    ? phasespace::build_sweep_sharded(
                          a, query.effective_order(), build_options,
                          ctx.control)
                    : phasespace::build_synchronous_sharded(a, build_options,
                                                            ctx.control);
        if (ctx.attempt == 1 && build.stats.resumed_states != 0) {
          out.resumed = true;
          resume_resumed.add();
          obs::log_event(obs::LogLevel::kInfo, "service.resume",
                         {{"key", query.canonical_key()},
                          {"resumed", build.stats.resumed_states},
                          {"total", out.states_total}});
        }
        return build.complete();
      });
  if (!complete) {
    // Only a resumable build keeps its whole shards for the next request;
    // any other truncated build leaves nothing to resume.
    if (out.status == QueryOutcome::Status::kTruncated && resumable) {
      out.states_done = build.stats.stored_states;
      if (out.states_done != 0) resume_saved.add();
    }
    return std::nullopt;
  }
  if (!resumable) return std::move(*build.build.graph);
  return phasespace::FunctionalGraph::from_store(load_into_flat(*build.store));
}

}  // namespace tca::service
