#pragma once
// Shared plumbing of the benchmark (README.md): the seeded generator,
// statistics helpers, the span recorder, /proc readers, the run
// fingerprint and the result report. Everything here is the benchmark's
// own code; the program under test is only called, never changed.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64: the only source of randomness, so one seed fixes every
/// generated input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
    }
  }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------- stats

/// Median (mean of the two middle values for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// The run-to-run tail rule: the highest percentile that still has at
/// least `beyond` samples above it. With n sorted samples that is the
/// value at index n - 1 - beyond; the percentile it stands for is
/// 100 * (n - beyond) / n. Below 2 * beyond samples that percentile
/// would sit under the median, so the maximum is reported instead and
/// `percentile` is empty.
struct Tail {
  double value = 0;
  std::optional<double> percentile;
};
[[nodiscard]] Tail tail_with_beyond(std::vector<double> v,
                                    std::size_t beyond = 10);

/// The q-quantile (0 <= q <= 1) by the nearest-rank-below rule; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Open-loop latency: measured from when the request was DUE, not from
/// when it was sent, so a stall also charges the requests queued behind
/// it. Returns seconds; never negative.
[[nodiscard]] double open_loop_latency(Clock::time_point due,
                                       Clock::time_point done);

/// A ratio that always travels with its base.
struct Ratio {
  double num = 0;
  double den = 0;
  [[nodiscard]] double value() const { return den > 0 ? num / den : 0; }
  [[nodiscard]] std::string text() const;  ///< "num/den"
};

// ---------------------------------------------------------------- spans

/// One recorded interval. Spans of one job or request share `id`;
/// `parent` indexes the enclosing span in the same recorder (-1 = root).
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  double start_s = 0;  ///< relative to the recorder's epoch
  double end_s = 0;
};

/// In-memory span store, written out once at exit. A disabled recorder
/// records nothing, so untraced runs pay one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t open(const std::string& name, std::uint64_t id,
                    std::int64_t parent);
  void close(std::int64_t index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Writes every span as a JSON array to `path`.
  void write(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; nests under `parent` (another Span, or none).
class Span {
 public:
  Span(SpanRecorder& rec, const std::string& name, std::uint64_t id,
       const Span* parent = nullptr)
      : rec_(rec),
        index_(rec.open(name, id, parent != nullptr ? parent->index_ : -1)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { rec_.close(index_); }

 private:
  SpanRecorder& rec_;
  std::int64_t index_;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its direct children's intervals.
[[nodiscard]] std::vector<double> self_times(
    const std::vector<SpanRecord>& spans);

/// Summed self time per span name.
[[nodiscard]] std::map<std::string, double> self_time_by_name(
    const std::vector<SpanRecord>& spans);

/// How much of the root spans named `root` their children's self times
/// account for, in percent, with the summed root time as the base.
[[nodiscard]] Ratio span_coverage_pct(const std::vector<SpanRecord>& spans,
                                      const std::string& root);

// ------------------------------------------------------------------ /proc

struct ProcSample {
  std::uint64_t wchar = 0;        ///< /proc/<pid>/io
  std::uint64_t cpu_ticks = 0;    ///< utime + stime, /proc/<pid>/stat
  std::uint64_t vm_hwm_kib = 0;   ///< VmHWM, /proc/<pid>/status
  Clock::time_point at;
};
/// Reads the three files for `pid` (0 = this process). Missing fields
/// stay 0.
[[nodiscard]] ProcSample sample_proc(pid_t pid);
[[nodiscard]] double clock_ticks_per_s();

// ------------------------------------------------------------ fingerprint

/// What produced a run. `valid` is false on a non-Release build or a
/// dirty tree; the reasons say which.
struct Fingerprint {
  std::string git_sha;
  std::string git_dirty;  ///< "true" / "false" / "unknown"
  std::string build_type;
  std::string compiler;
  unsigned nproc = 0;
  std::string isa;
  std::string numa_groups;
  bool valid = true;
  std::vector<std::string> invalid_reasons;
};
[[nodiscard]] Fingerprint take_fingerprint();

// ----------------------------------------------------------------- report

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run found. `e2e` goes into the result line of an
/// untraced run and `layer` into that of a traced run; `notes` (ratio
/// bases, tail percentiles, flags) only into the detail line.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void fail(const std::string& what);
  void set_e2e(const std::string& name, double value, const char* unit) {
    e2e[name] = {value, unit};
  }
  void set_layer(const std::string& name, double value, const char* unit) {
    layer[name] = {value, unit};
  }
  /// Publishes a ratio as a per-layer metric and records its base.
  void set_ratio(const std::string& name, const Ratio& r, const char* unit);
};

/// Options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch space, emptied by the caller
  std::string tcad_path;  ///< the daemon binary (tcad workloads)
  unsigned nproc = 1;
};

/// Spawns `argv` with stdout/stderr sent to /dev/null; returns the pid.
[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv);
/// Waits for `pid`; true iff it exited with status 0.
bool wait_clean(pid_t pid);

}  // namespace perfbench
