// tca_perfbench — the repository benchmark's load generator (README.md).
//
//   tca_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --tcad PATH --work-dir DIR
//   tca_perfbench --selftest
//
// Prints a detail line (fingerprint, every metric with its unit, ratio
// bases, failures) and, last, the result line: one JSON object with
// `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one. Spans of a
// traced run are written to <work-dir>/../spans-<workload>-<seed>.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "census.hpp"
#include "core/automaton.hpp"
#include "core/batch_isa.hpp"
#include "obs/json.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/sharded_build.hpp"
#include "rules/rule.hpp"
#include "support.hpp"
#include "tcad_load.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json. Every result line carries
// all of one list; a layer a workload does not run reads 0 and is named
// in the detail line's "off_path" note.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"states_per_s", "states/s"},
    {"job_p50_s", "s"},        {"requests_per_s", "req/s"},
    {"request_p50_ms", "ms"},  {"request_tail_ms", "ms"},
    {"rss_peak_mib", "MiB"}};

constexpr MetricDef kPerLayer[] = {
    {"core.step.codes_per_s", "1/s"},
    {"core.step.busy_s", "s"},
    {"engine.batch.fallback", "count"},
    {"phasespace.build.busy_s", "s"},
    {"phasespace.build.states_per_s", "states/s"},
    {"phasespace.build.scaling_eff", "ratio"},
    {"phasespace.shard.claimed", "count"},
    {"phasespace.shard.stolen", "count"},
    {"phasespace.store_alloc.busy_s", "s"},
    {"phasespace.store_put.bytes_per_s", "B/s"},
    {"phasespace.store_put.memcpy_ratio", "ratio"},
    {"phasespace.store_read.bytes_per_s", "B/s"},
    {"store.spill_bytes", "B"},
    {"store.packed_bits", "bit"},
    {"store.readback_us", "us"},
    {"phasespace.classify.busy_s", "s"},
    {"phasespace.classify.states_per_s", "states/s"},
    {"phasespace.in_degrees.busy_s", "s"},
    {"phasespace.goe_census.busy_s", "s"},
    {"phasespace.goe_census.states_per_s", "states/s"},
    {"phasespace.goe_census.bitmap_bytes", "B"},
    {"tcad.io.write_bytes_per_request", "B"},
    {"service.resume.saved", "count"},
    {"supervisor.attempts", "count"},
    {"supervisor.retries", "count"},
    {"service.engine.execute_us.tm", "us"},
    {"service.engine.execute_us.small_n", "us"},
    {"service.engine.execute_us.supervised", "us"},
    {"service.admission.wait_us", "us"},
    {"tcad.cpu_util", "ratio"},
    {"service.engine.builds", "count"},
    {"service.parse.busy_us", "us"},
    {"service.cache.lookup_us", "us"},
    {"service.cache.insert_us", "us"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.coalesced", "count"},
    {"service.serialize_us", "us"},
    {"service.handle_us", "us"},
    {"service.transport_us", "us"},
    {"loadgen.late_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.span_coverage_pct", "%"}};

constexpr int kSetupProbes = 11;

/// The census set-up: what a census process does between its start and
/// its first job (NUMA probe, ISA dispatch, circuit-plan compile).
void census_setup() {
  (void)tca::phasespace::probe_numa_topology();
  (void)tca::core::resolve_batch_isa();
  const tca::core::Automaton a = tca::core::Automaton::line(
      24, 2, tca::core::Boundary::kRing,
      tca::rules::MajorityRule{tca::rules::MajorityTie::kZero},
      tca::core::Memory::kWith);
  tca::phasespace::BatchCodeStepper stepper(a);
  tca::phasespace::StateCode out[64];
  stepper.step_range(0, 64, out);
}

/// Median of kSetupProbes child processes that each start, set up, and
/// stop where the first job would begin.
double census_setup_s(const char* self, Report& report) {
  std::vector<double> t;
  for (int i = 0; i < kSetupProbes; ++i) {
    const Clock::time_point t0 = Clock::now();
    const pid_t pid = spawn({self, "--setup-probe"});
    if (pid <= 0 || !wait_clean(pid)) {
      report.fail("set-up probe failed");
      return 0;
    }
    t.push_back(seconds_between(t0, Clock::now()));
  }
  report.notes["setup_s.samples"] = std::to_string(t.size());
  return median(t);
}

// ------------------------------------------------------------ self-test

int selftest() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };
  // Tail rule: 100 samples 1..100 -> index 89 (value 90) has exactly ten
  // samples beyond it, percentile 90.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Tail t = tail_with_beyond(v);
  expect(t.value == 90 && t.percentile && *t.percentile == 90,
         "tail of 1..100 is 90 at p90");
  const Tail few = tail_with_beyond({3, 1, 2});
  expect(few.value == 3 && !few.percentile, "tail of 3 samples is the max");
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  const Tail t20 = tail_with_beyond(twenty);
  expect(t20.value == 10 && t20.percentile && *t20.percentile == 50,
         "20 samples: p50 is the highest with ten beyond");
  twenty.pop_back();
  expect(!tail_with_beyond(twenty).percentile, "19 samples: the max");
  expect(median({4, 1, 3, 2}) == 2.5 && median({5, 1, 3}) == 3, "median");
  // Self time subtracts the union of child coverage, overlaps once.
  std::vector<SpanRecord> spans = {
      {"root", 1, -1, 0.0, 10.0},
      {"a", 1, 0, 1.0, 4.0},
      {"b", 1, 0, 3.0, 6.0},   // overlaps a on [3, 4]
      {"c", 1, 0, 9.0, 12.0},  // clipped to the parent at 10
      {"d", 1, 1, 2.0, 3.0}};
  const std::vector<double> self = self_times(spans);
  expect(std::fabs(self[0] - 4.0) < 1e-12, "root self = 10 - (5 + 1)");
  expect(std::fabs(self[1] - 2.0) < 1e-12, "a self = 3 - 1");
  expect(std::fabs(self[4] - 1.0) < 1e-12, "leaf self = duration");
  // Open-loop latency counts from the due time, not the send time.
  const Clock::time_point due = Clock::now();
  const Clock::time_point done = due + std::chrono::milliseconds(7);
  expect(std::fabs(open_loop_latency(due, done) - 0.007) < 1e-9,
         "latency from due");
  expect(open_loop_latency(done, due) == 0, "never negative");
  // Ratios carry their base.
  const Ratio r{3, 4};
  expect(r.value() == 0.75 && r.text() == "3/4", "ratio with base");
  expect(Ratio{1, 0}.value() == 0, "empty base reads 0");
  // Same seed, same inputs.
  Rng a(42), b(42);
  expect(a.next() == b.next() && a.below(10) == b.below(10), "seeded rng");
  std::fprintf(stderr, "selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// --------------------------------------------------------------- output

std::string detail_line(const RunOptions& opt, const Fingerprint& f,
                        const Report& r) {
  tca::obs::JsonWriter w;
  w.begin_object();
  w.key("fingerprint").begin_object();
  w.kv("git_sha", f.git_sha);
  w.kv("git_dirty", f.git_dirty);
  w.kv("build_type", f.build_type);
  w.kv("compiler", f.compiler);
  w.kv("nproc", f.nproc);
  w.kv("isa", f.isa);
  w.kv("numa_groups", f.numa_groups);
  w.kv("valid", f.valid);
  w.key("invalid_reasons").begin_array();
  for (const std::string& s : f.invalid_reasons) w.value(s);
  w.end_array();
  w.end_object();
  w.kv("workload", opt.workload);
  w.kv("seed", opt.seed);
  w.kv("seconds", opt.seconds);
  w.kv("trace", opt.trace);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.kv("failed_ratio",
       r.attempted > 0 ? static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted)
                       : 0.0);
  w.kv("failed_ratio.base", std::to_string(r.failed) + "/" +
                                std::to_string(r.attempted));
  w.key("failures").begin_array();
  for (const std::string& s : r.failures) w.value(s);
  w.end_array();
  for (const auto* set : {&r.e2e, &r.layer}) {
    w.key(set == &r.e2e ? "end_to_end" : "per_layer").begin_object();
    for (const auto& [name, m] : *set) {
      w.key(name).begin_object();
      w.kv("value", m.value);
      w.kv("unit", m.unit);
      w.end_object();
    }
    w.end_object();
  }
  w.key("notes").begin_object();
  for (const auto& [k, v] : r.notes) w.kv(k, v);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

template <std::size_t N>
std::string result_line(const Report& r, const MetricDef (&defs)[N],
                        const std::map<std::string, Metric>& values) {
  tca::obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", r.failed == 0 && r.attempted > 0);
  w.kv("attempted", std::max<std::uint64_t>(r.attempted, 1));
  w.kv("failed", r.attempted > 0 ? r.failed : 1);
  w.key("metrics").begin_object();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    double v = it == values.end() ? 0.0 : it->second.value;
    if (!std::isfinite(v)) v = 0;
    w.key(d.name).begin_object();
    w.kv("value", v);
    w.kv("unit", d.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

int usage() {
  std::fprintf(stderr,
               "usage: tca_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tcad PATH --work-dir DIR\n"
               "       tca_perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (arg == "--setup-probe") {
      census_setup();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string(val) == "1";
    } else if (arg == "--tcad") {
      opt.tcad_path = val;
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty() || !(opt.seconds > 0)) {
    return usage();
  }
  const Fingerprint fp = take_fingerprint();
  if (fp.build_type != "Release") {
    std::fprintf(stderr, "tca_perfbench: refusing to measure a %s build\n",
                 fp.build_type.c_str());
    return 3;
  }
  opt.nproc = fp.nproc;
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);

  const bool census = opt.workload == "census-n24" ||
                      opt.workload == "census-disk-n28";
  if (!census && opt.workload != "tcad-cold" && opt.workload != "tcad-hot") {
    std::fprintf(stderr, "tca_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (!census && opt.tcad_path.empty()) return usage();

  SpanRecorder rec(opt.trace);
  Report report;
  try {
    if (census) {
      Report probe;
      const double setup_s = census_setup_s(argv[0], probe);
      report = run_census(opt, rec, opt.workload == "census-disk-n28");
      report.set_e2e("setup_s", setup_s, "s");
      report.notes.insert(probe.notes.begin(), probe.notes.end());
      for (const std::string& f : probe.failures) report.fail(f);
    } else {
      report = run_tcad(opt, rec, opt.workload == "tcad-hot");
    }
  } catch (const std::exception& e) {
    // Unwinding has stopped any daemon; report the run as failed.
    report.fail(std::string("workload aborted: ") + e.what());
  }
  fs::remove_all(opt.work_dir);

  std::string off_path;
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) {
      if (report.layer.count(d.name) == 0) {
        off_path += (off_path.empty() ? "" : ",") + std::string(d.name);
      }
    }
    report.notes["off_path"] = off_path;
    const fs::path spans = fs::path(opt.work_dir).parent_path() /
                           ("spans-" + opt.workload + "-" +
                            std::to_string(opt.seed) + ".json");
    rec.write(spans.string());
  }
  std::printf("%s\n", detail_line(opt, fp, report).c_str());
  if (opt.trace) {
    std::printf("%s\n", result_line(report, kPerLayer, report.layer).c_str());
  } else {
    std::printf("%s\n", result_line(report, kEndToEnd, report.e2e).c_str());
  }
  return 0;
}
