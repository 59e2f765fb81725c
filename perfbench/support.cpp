#include "support.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/batch_isa.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "phasespace/sharded_build.hpp"

extern char** environ;

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_with_beyond(std::vector<double> v, std::size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 2 * beyond) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(n - beyond) /
                 static_cast<double>(n);
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

double open_loop_latency(Clock::time_point due, Clock::time_point done) {
  return std::max(0.0, seconds_between(due, done));
}

std::string Ratio::text() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g/%.17g", num, den);
  return buf;
}

// ---------------------------------------------------------------- spans

std::int64_t SpanRecorder::open(const std::string& name, std::uint64_t id,
                                std::int64_t parent) {
  if (!enabled_) return -1;
  const double t = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, t, t});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int64_t index) {
  if (index < 0) return;
  const double t = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = t;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::write(const std::string& path) const {
  tca::obs::JsonWriter w;
  w.begin_array();
  for (const SpanRecord& s : spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("id", s.id);
    w.kv("parent", s.parent);
    w.kv("start_s", s.start_s);
    w.kv("end_s", s.end_s);
    w.end_object();
  }
  w.end_array();
  std::ofstream(path) << w.str() << "\n";
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // Union of the children's intervals, clipped to the parent: children
    // on other threads may overlap each other.
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[i]) {
      const double a = std::max(s.start_s, spans[c].start_s);
      const double b = std::min(s.end_s, spans[c].end_s);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return self;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

Ratio span_coverage_pct(const std::vector<SpanRecord>& spans,
                        const std::string& root) {
  const std::vector<double> self = self_times(spans);
  Ratio r;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent < 0 && s.name == root) r.den += s.end_s - s.start_s;
    if (s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].name == root) {
      r.num += 100 * self[i];
    }
  }
  return r;
}

// ------------------------------------------------------------------ /proc

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t field_after(const std::string& text, const std::string& key) {
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace

ProcSample sample_proc(pid_t pid) {
  const std::string base =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  ProcSample s;
  s.at = Clock::now();
  s.wchar = field_after(slurp(base + "/io"), "wchar:");
  s.vm_hwm_kib = field_after(slurp(base + "/status"), "VmHWM:");
  // Fields 14 and 15 of stat (utime, stime) follow the ")" that closes
  // the command name, which may itself contain spaces.
  const std::string stat = slurp(base + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream is(stat.substr(close + 2));
    std::string tok;
    std::uint64_t utime = 0, stime = 0;
    for (int field = 3; is >> tok; ++field) {
      if (field == 14) utime = std::strtoull(tok.c_str(), nullptr, 10);
      if (field == 15) {
        stime = std::strtoull(tok.c_str(), nullptr, 10);
        break;
      }
    }
    s.cpu_ticks = utime + stime;
  }
  return s;
}

double clock_ticks_per_s() {
  return static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ------------------------------------------------------------ fingerprint

Fingerprint take_fingerprint() {
  namespace bi = tca::obs::build_info;
  Fingerprint f;
  // run.py exports the tree state at run time; the baked-in values are
  // frozen at configure time and serve only as a fallback.
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* dirty = std::getenv("PERFBENCH_GIT_DIRTY");
  f.git_sha = sha != nullptr ? sha : bi::kGitSha;
  f.git_dirty = dirty != nullptr ? dirty : (bi::kGitDirty ? "true" : "false");
  if (f.git_sha == "unknown") f.git_dirty = "unknown";
  f.build_type = bi::kBuildType;
  f.compiler = bi::kCompiler;
  f.nproc = std::max(1u, std::thread::hardware_concurrency());
  f.isa = tca::core::isa_name(tca::core::resolve_batch_isa().effective);
  const tca::phasespace::NumaTopology topo =
      tca::phasespace::probe_numa_topology();
  for (const tca::phasespace::WorkerGroup& g : topo.groups) {
    if (!f.numa_groups.empty()) f.numa_groups += ";";
    f.numa_groups += "node" + std::to_string(g.node) + ":" +
                     std::to_string(g.cpus.size()) + "cpus";
  }
  if (f.build_type != "Release") {
    f.valid = false;
    f.invalid_reasons.push_back("build type is '" + f.build_type +
                                "', not Release");
  }
  if (f.git_dirty == "true") {
    f.valid = false;
    f.invalid_reasons.push_back("working tree has uncommitted changes");
  }
  return f;
}

// ----------------------------------------------------------------- report

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Report::set_ratio(const std::string& name, const Ratio& r,
                       const char* unit) {
  set_layer(name, r.value(), unit);
  notes[name + ".base"] = r.text();
}

// ------------------------------------------------------------ processes

pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  return rc == 0 ? pid : -1;
}

bool wait_clean(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
