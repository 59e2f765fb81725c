// census-n24 and census-disk-n28: in-process phase-space censuses
// (README.md "Workloads").
//
// A run is a seeded sequence of jobs on n-cell rings. Each job builds the
// phase space with the sharded builder at workers = nproc, classifies it
// (flat backend only) and counts its Gardens of Eden from the store. The
// job wall covers exactly those calls; answer checks, probes and cleanup
// run between jobs and are not timed.

#include "census.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/configuration.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "obs/metrics.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "phasespace/successor_store.hpp"
#include "rules/analyze.hpp"
#include "service/query.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace ps = tca::phasespace;
using tca::core::NodeId;
using tca::service::ServiceRule;

struct CensusJob {
  ServiceRule rule;
  std::uint32_t radius = 1;
  bool sweep = false;
  std::vector<NodeId> order;  ///< sweep order (seeded permutation)
  std::string label;
};

/// One job class: a fixed rule, radius and scheme. The seed picks one of
/// the class's `variants` and, for sweeps, the order; variants are
/// relabelings with isomorphic phase spaces (complement conjugation,
/// mirror images), so every seed sees the same mix of job costs and the
/// run-to-run spread stays small.
struct JobClass {
  ServiceRule::Type type;
  std::uint32_t radius;
  bool sweep;
  std::vector<std::uint64_t> variants;  ///< k, mask or Wolfram code
};

using T = ServiceRule::Type;

/// census-n24: the rule families of Theorem 1 and Lemmas 1-2 (majority,
/// k-of-n, symmetric masks) under both schemes, and the non-monotone
/// families (a non-monotone symmetric mask, parity, a Wolfram code).
const std::vector<JobClass>& classes_n24() {
  static const std::vector<JobClass> c = {
      {T::kMajority, 1, false, {0}},
      {T::kMajority, 2, true, {0}},
      {T::kKOfN, 2, false, {2, 4}},       // k and 6 - k are conjugates
      {T::kKOfN, 1, true, {1, 3}},        // OR and AND
      {T::kSymmetric, 1, false, {6, 9}},  // 1-or-2 ones, and its conjugate
      {T::kSymmetric, 2, true, {56}},     // threshold 3 of 5 as a mask
      {T::kParity, 1, false, {0}},
      {T::kWolfram, 1, false, {110, 124, 137, 193}}};
  return c;
}

/// census-disk-n28: one synchronous and one sweep job per cycle; the
/// build, spill and streamed census dominate, not the rule.
const std::vector<JobClass>& classes_n28() {
  static const std::vector<JobClass> c = {
      {T::kKOfN, 2, false, {2, 4}},
      {T::kMajority, 1, true, {0}}};
  return c;
}

CensusJob make_job(const JobClass& cls, std::uint32_t n, Rng& rng) {
  CensusJob j;
  j.radius = cls.radius;
  j.sweep = cls.sweep;
  j.rule.type = cls.type;
  const std::uint64_t v = cls.variants[rng.below(cls.variants.size())];
  j.rule.k = static_cast<std::uint32_t>(v);
  j.rule.mask = v;
  j.rule.code = static_cast<std::uint32_t>(v);
  if (j.sweep) {
    j.order.resize(n);
    std::iota(j.order.begin(), j.order.end(), NodeId{0});
    rng.shuffle(j.order);
  }
  j.label = j.rule.token() + "/r" + std::to_string(j.radius) +
            (j.sweep ? "/sweep" : "/sync");
  return j;
}

tca::core::Automaton automaton_of(const CensusJob& j, std::uint32_t n) {
  return tca::core::Automaton::line(n, j.radius, tca::core::Boundary::kRing,
                                    j.rule.materialize(2 * j.radius + 1),
                                    tca::core::Memory::kWith);
}

ps::ShardedBuild build(const tca::core::Automaton& a, const CensusJob& j,
                       ps::StoreKind kind, unsigned workers,
                       const std::string& dir) {
  ps::ShardedBuildOptions o;
  o.store = kind;
  o.workers = workers;
  o.disk_dir = dir;
  tca::runtime::RunControl control;
  return j.sweep ? ps::build_sweep_sharded(a, j.order, o, control)
                 : ps::build_synchronous_sharded(a, o, control);
}

/// Streams `store` once and returns the in-degree of each of `targets`
/// (sorted, distinct). A bitmap filter keeps the scan at one bit test per
/// entry.
std::vector<std::uint64_t> in_degree_of(const ps::SuccessorStore& store,
                                        const std::vector<std::uint64_t>& targets) {
  std::vector<std::uint64_t> mark((store.num_entries() + 63) / 64, 0);
  for (std::uint64_t t : targets) mark[t >> 6] |= std::uint64_t{1} << (t & 63);
  std::vector<std::uint64_t> deg(targets.size(), 0);
  store.for_each_range([&](ps::StateCode, std::size_t count,
                           const ps::StateCode* block) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t y = block[i];
      if ((mark[y >> 6] >> (y & 63)) & 1u) {
        const auto it = std::lower_bound(targets.begin(), targets.end(), y);
        ++deg[static_cast<std::size_t>(it - targets.begin())];
      }
    }
  });
  return deg;
}

/// Answer checks for one job; each failed check counts the job failed.
void check_job(const CensusJob& j, const tca::core::Automaton& a,
               std::uint32_t n, const ps::ShardedBuild& b,
               const ps::Classification* cls, const ps::GoeCensus& goe,
               Rng& rng, Report& report) {
  const std::uint64_t states = std::uint64_t{1} << n;
  std::string bad;
  if (goe.truncated || goe.scanned != states) {
    bad = "GoE census truncated";
  } else if (cls != nullptr && cls->num_gardens_of_eden != goe.gardens) {
    bad = "classify GoE " + std::to_string(cls->num_gardens_of_eden) +
          " != store census GoE " + std::to_string(goe.gardens);
  }
  // Theorem 1: a sequential sweep of a monotone symmetric rule has no
  // proper cycle.
  const std::uint32_t arity = 2 * j.radius + 1;
  const tca::rules::Rule rule = j.rule.materialize(arity);
  if (bad.empty() && cls != nullptr && j.sweep &&
      tca::rules::is_monotone(rule, arity) &&
      tca::rules::is_symmetric(rule, arity) && cls->has_proper_cycle()) {
    bad = "Theorem 1 violated: proper cycle under a sweep";
  }
  // Successors against the scalar reference engine.
  for (int i = 0; bad.empty() && i < 64; ++i) {
    const std::uint64_t s = rng.below(states);
    tca::core::Configuration c = tca::core::Configuration::from_bits(s, n);
    if (j.sweep) {
      tca::core::apply_sequence(a, c, j.order);
    } else {
      c = tca::core::step_synchronous(a, c);
    }
    if (b.store->get(s) != c.to_bits()) bad = "successor mismatch";
  }
  // Preimage counts against the transfer-matrix solver (the synchronous
  // ring map). Its whole-space census costs seconds per job at these n, so
  // a seeded sample of targets is checked count-for-count instead.
  if (bad.empty() && !j.sweep) {
    std::vector<std::uint64_t> targets(256);
    for (std::uint64_t& t : targets) t = rng.below(states);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    const std::vector<std::uint64_t> deg = in_degree_of(*b.store, targets);
    const ps::RingPreimageSolver solver(rule, j.radius,
                                        tca::core::Memory::kWith);
    for (std::size_t i = 0; bad.empty() && i < targets.size(); ++i) {
      const std::uint64_t want =
          solver.count(tca::core::Configuration::from_bits(targets[i], n));
      if (want != deg[i]) bad = "preimage count mismatch vs transfer matrix";
    }
  }
  if (!bad.empty()) report.fail(j.label + ": " + bad);
}

std::uint64_t counter_value(const tca::obs::MetricsSnapshot& s,
                            const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Counters the program exports, read around each traced job.
constexpr const char* kJobCounters[] = {
    "engine.batch.fallback", "phasespace.shard.claimed",
    "phasespace.shard.stolen", "store.spill_bytes", "store.packed_bits",
    "store.readback_us"};

/// Entries the step and put probes cover (the whole n = 24 table).
constexpr std::uint64_t kProbeEntries = std::uint64_t{1} << 24;

/// Single-layer measurements of the traced jobs, summed; taken after each
/// job's timed wall.
struct Probes {
  std::uint64_t jobs = 0;
  double step_s = 0;
  std::uint64_t step_codes = 0;
  double build1_s = 0;  ///< the same builds at workers = 1
  double alloc_s = 0;
  double put_s = 0, memcpy_s = 0;
  std::uint64_t put_bytes = 0;
  double read_s = 0;
  std::uint64_t read_bytes = 0;
  double in_degrees_s = 0;
  std::map<std::string, double> counters;  ///< kJobCounters deltas
  bool batched = true;
};

double timed(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

class CensusRun {
 public:
  CensusRun(const RunOptions& opt, SpanRecorder& rec, bool disk)
      : opt_(opt),
        rec_(rec),
        disk_(disk),
        n_(disk ? 28 : 24),
        states_(std::uint64_t{1} << n_),
        kind_(disk ? ps::StoreKind::kDisk : ps::StoreKind::kFlat),
        dir_(fs::path(opt.work_dir) / "census") {
    fs::create_directories(dir_);
  }

  /// Whole cycles of jobs until `seconds` of job wall have passed, so
  /// every run measures the same mix of classes. The same seed gives the
  /// same jobs in both passes.
  void run_pass(bool traced, double seconds) {
    Rng rng(opt_.seed);
    const std::vector<JobClass>& classes = disk_ ? classes_n28() : classes_n24();
    std::vector<std::size_t> cycle;
    double timed_s = 0;
    while (timed_s < seconds || !cycle.empty()) {
      const Clock::time_point gen_start = Clock::now();
      if (cycle.empty()) {
        for (std::size_t c = 0; c < classes.size(); ++c) cycle.push_back(c);
        rng.shuffle(cycle);
      }
      const CensusJob job = make_job(classes[cycle.back()], n_, rng);
      cycle.pop_back();
      timed_s += run_job(job, rng, traced, gen_start);
    }
  }

  Report finish() {
    set_end_to_end();
    if (opt_.trace) set_per_layer();
    return std::move(report_);
  }

 private:
  /// One job; returns its timed wall.
  double run_job(const CensusJob& job, Rng& rng, bool traced,
                 Clock::time_point gen_start) {
    SpanRecorder off(false);
    SpanRecorder& r = traced ? rec_ : off;
    const tca::core::Automaton a = automaton_of(job, n_);
    const std::uint64_t id = next_id_++;
    const std::string job_dir = (dir_ / ("job-" + std::to_string(id))).string();
    gaps_ms_.push_back(1e3 * seconds_between(gen_start, Clock::now()));
    const tca::obs::MetricsSnapshot snap0 =
        traced ? tca::obs::snapshot_metrics() : tca::obs::MetricsSnapshot{};

    ++report_.attempted;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t_built, t_classified;
    ps::ShardedBuild b;
    std::optional<ps::Classification> cls;
    ps::GoeCensus goe;
    {
      const Span root(r, "census.job", id);
      {
        const Span s(r, "phasespace.build", id, &root);
        b = build(a, job, kind_, opt_.nproc, job_dir);
      }
      t_built = Clock::now();
      if (b.complete() && !disk_) {
        const Span s(r, "phasespace.classify", id, &root);
        cls = ps::classify(*b.build.graph);
      }
      t_classified = Clock::now();
      if (b.complete()) {
        const Span s(r, "phasespace.goe_census", id, &root);
        tca::runtime::RunControl control;
        goe = ps::count_gardens_of_eden(*b.store, control);
      }
    }
    const double wall = seconds_between(t0, Clock::now());

    char note[96];
    std::snprintf(note, sizeof note, "=%.3f(%.3f/%.3f) ", wall,
                  seconds_between(t0, t_built),
                  seconds_between(t_built, t_classified));
    report_.notes[traced ? "jobs.traced" : "jobs"] += job.label + note;
    (traced ? traced_walls_ : walls_).push_back(wall);

    if (!b.complete()) {
      report_.fail(job.label + ": build truncated");
    } else {
      check_job(job, a, n_, b, cls ? &*cls : nullptr, goe, rng, report_);
    }
    cls.reset();
    if (traced && b.complete()) {
      const tca::obs::MetricsSnapshot snap1 = tca::obs::snapshot_metrics();
      for (const char* name : kJobCounters) {
        probes_.counters[name] += static_cast<double>(
            counter_value(snap1, name) - counter_value(snap0, name));
      }
      probe(job, a, id, b, job_dir);
    }
    b = {};
    fs::remove_all(job_dir);
    return wall;
  }

  /// The single-layer probes of one traced job, each under its own span.
  void probe(const CensusJob& job, const tca::core::Automaton& a,
             std::uint64_t id, ps::ShardedBuild& b, const std::string& job_dir) {
    Probes& p = probes_;
    ++p.jobs;
    const Span root(rec_, "census.probe", id);
    const std::uint64_t entries = std::min(states_, kProbeEntries);
    {
      // Single-thread batch stepping into a caller buffer: the compute
      // ceiling of the build.
      const Span s(rec_, "core.step", id, &root);
      ps::BatchCodeStepper stepper = job.sweep ? ps::BatchCodeStepper(a, job.order)
                                               : ps::BatchCodeStepper(a);
      p.batched = p.batched && stepper.batched();
      std::vector<ps::StateCode> buf(std::size_t{1} << 16);
      p.step_s += timed([&] {
        for (std::uint64_t first = 0; first < entries; first += buf.size()) {
          stepper.step_range(first, buf.size(), buf.data());
        }
      });
      p.step_codes += entries;
    }
    {
      // Table writes into a fresh store against memcpy of the same bytes.
      std::vector<ps::StateCode> table(entries);
      b.store->read_range(0, entries, table.data());
      const std::string fresh_dir = job_dir + "-fresh";
      std::shared_ptr<ps::SuccessorStore> fresh;
      {
        const Span s(rec_, "phasespace.store_alloc", id, &root);
        p.alloc_s += timed([&] { fresh = ps::make_store(kind_, n_, fresh_dir); });
      }
      {
        const Span s(rec_, "phasespace.store_put", id, &root);
        p.put_s += timed([&] { fresh->put_range(0, entries, table.data()); });
      }
      fresh.reset();
      fs::remove_all(fresh_dir);
      std::vector<ps::StateCode> copy(entries);
      {
        const Span s(rec_, "bench.memcpy", id, &root);
        p.memcpy_s += timed([&] {
          std::memcpy(copy.data(), table.data(), entries * sizeof(ps::StateCode));
        });
      }
      p.put_bytes += entries * sizeof(ps::StateCode);
    }
    {
      const Span s(rec_, "phasespace.store_read", id, &root);
      std::vector<ps::StateCode> buf(std::size_t{1} << 16);
      p.read_s += timed([&] {
        for (std::uint64_t first = 0; first < states_; first += buf.size()) {
          b.store->read_range(first, buf.size(), buf.data());
        }
      });
      p.read_bytes += states_ * sizeof(ps::StateCode);
    }
    if (!disk_) {
      // 4 bytes per state: skipped at n = 28, where it would pin 1 GiB.
      const Span s(rec_, "phasespace.in_degrees", id, &root);
      p.in_degrees_s += timed([&] { (void)ps::in_degrees(*b.store); });
    }
    b = {};
    fs::remove_all(job_dir);
    {
      const Span s(rec_, "phasespace.build.workers1", id, &root);
      p.build1_s +=
          timed([&] { (void)build(a, job, kind_, 1, job_dir + "-w1"); });
    }
    fs::remove_all(job_dir + "-w1");
  }

  void set_end_to_end() {
    const double jobs = static_cast<double>(walls_.size());
    const double wall_sum = std::accumulate(walls_.begin(), walls_.end(), 0.0);
    report_.set_e2e("states_per_s",
                    jobs * static_cast<double>(states_) / wall_sum, "states/s");
    report_.set_e2e("job_p50_s", median(walls_), "s");
    report_.set_e2e("requests_per_s", jobs / wall_sum, "req/s");
    std::vector<double> walls_ms;
    for (double w : walls_) walls_ms.push_back(1e3 * w);
    report_.set_e2e("request_p50_ms", median(walls_ms), "ms");
    const Tail tail = tail_with_beyond(walls_ms);
    report_.set_e2e("request_tail_ms", tail.value, "ms");
    report_.notes["request_tail_ms.percentile"] =
        tail.percentile ? std::to_string(*tail.percentile)
                        : "max (fewer than 20 samples)";
    report_.notes["samples"] = std::to_string(walls_.size());
    report_.set_e2e("rss_peak_mib",
                    static_cast<double>(sample_proc(0).vm_hwm_kib) / 1024.0,
                    "MiB");
  }

  void set_per_layer() {
    const Probes& p = probes_;
    const std::vector<SpanRecord> spans = rec_.spans();
    const std::map<std::string, double> self_s = self_time_by_name(spans);
    const auto self = [&](const char* name) {
      const auto it = self_s.find(name);
      return it == self_s.end() ? 0.0 : it->second;
    };
    const auto counter = [&](const char* name) {
      const auto it = p.counters.find(name);
      return it == p.counters.end() ? 0.0 : it->second;
    };
    // Per-job figures: sums over the traced jobs divided by their count.
    const double pj = std::max<double>(1, static_cast<double>(p.jobs));
    const double traced_states = pj * static_cast<double>(states_);
    report_.set_layer("core.step.codes_per_s",
                      static_cast<double>(p.step_codes) / p.step_s, "1/s");
    report_.set_layer("core.step.busy_s", p.step_s / pj, "s");
    report_.notes["core.step.isa"] =
        p.batched ? "dispatched tier" : "scalar fallback";
    report_.set_layer("engine.batch.fallback", counter("engine.batch.fallback"),
                      "count");
    const double build_s = self("phasespace.build");
    report_.set_layer("phasespace.build.busy_s", build_s / pj, "s");
    report_.set_layer("phasespace.build.states_per_s", traced_states / build_s,
                      "states/s");
    report_.set_ratio("phasespace.build.scaling_eff",
                      {p.build1_s, build_s * static_cast<double>(opt_.nproc)},
                      "ratio");
    report_.notes["phasespace.build.scaling_eff.meaning"] =
        "workers=1 build time / (workers=" + std::to_string(opt_.nproc) +
        " build time x " + std::to_string(opt_.nproc) + ")";
    report_.set_layer("phasespace.shard.claimed",
                      counter("phasespace.shard.claimed") / pj, "count");
    report_.set_layer("phasespace.shard.stolen",
                      counter("phasespace.shard.stolen") / pj, "count");
    report_.set_layer("phasespace.store_alloc.busy_s", p.alloc_s / pj, "s");
    report_.set_layer("phasespace.store_put.bytes_per_s",
                      static_cast<double>(p.put_bytes) / p.put_s, "B/s");
    report_.set_ratio("phasespace.store_put.memcpy_ratio", {p.memcpy_s, p.put_s},
                      "ratio");
    report_.notes["phasespace.store_put.memcpy_ratio.meaning"] =
        "memcpy time / put_range time for the same bytes (1 = memcpy speed)";
    report_.set_layer("phasespace.store_read.bytes_per_s",
                      static_cast<double>(p.read_bytes) / p.read_s, "B/s");
    report_.set_layer("store.spill_bytes", counter("store.spill_bytes") / pj, "B");
    report_.set_layer("store.packed_bits", counter("store.packed_bits") / pj,
                      "bit");
    report_.set_layer("store.readback_us", counter("store.readback_us") / pj,
                      "us");
    const double classify_s = self("phasespace.classify");
    if (!disk_) {
      report_.set_layer("phasespace.classify.busy_s", classify_s / pj, "s");
      report_.set_layer("phasespace.classify.states_per_s",
                        traced_states / classify_s, "states/s");
      report_.set_layer("phasespace.in_degrees.busy_s", p.in_degrees_s / pj,
                        "s");
    }
    const double goe_s = self("phasespace.goe_census");
    report_.set_layer("phasespace.goe_census.busy_s", goe_s / pj, "s");
    report_.set_layer("phasespace.goe_census.states_per_s",
                      traced_states / goe_s, "states/s");
    report_.set_layer("phasespace.goe_census.bitmap_bytes",
                      static_cast<double>(states_ / 8), "B");
    report_.set_ratio("bench.span_coverage_pct",
                      span_coverage_pct(spans, "census.job"), "%");
    report_.set_layer("bench.trace_overhead_pct",
                      100 * (median(traced_walls_) - median(walls_)) /
                          median(walls_),
                      "%");
    report_.notes["bench.trace_overhead_pct.base"] =
        "median job wall traced " + std::to_string(median(traced_walls_)) +
        " s vs untraced " + std::to_string(median(walls_)) + " s";
    report_.set_layer("loadgen.late_p99_ms", quantile(gaps_ms_, 0.99), "ms");
  }

  const RunOptions& opt_;
  SpanRecorder& rec_;
  const bool disk_;
  const std::uint32_t n_;
  const std::uint64_t states_;
  const ps::StoreKind kind_;
  const fs::path dir_;
  Report report_;
  std::uint64_t next_id_ = 1;
  std::vector<double> walls_, traced_walls_;  ///< untraced / traced pass
  std::vector<double> gaps_ms_;  ///< generator gap before each job
  Probes probes_;
};

}  // namespace

Report run_census(const RunOptions& opt, SpanRecorder& rec, bool disk) {
  // A traced run splits its time between an untraced pass and a traced
  // pass over the same jobs.
  CensusRun run(opt, rec, disk);
  run.run_pass(false, opt.trace ? opt.seconds / 2 : opt.seconds);
  if (opt.trace) run.run_pass(true, opt.seconds / 2);
  return run.finish();
}

}  // namespace perfbench
