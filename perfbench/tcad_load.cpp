// tcad-cold and tcad-hot: the daemon driven over its Unix socket
// (README.md "Workloads").
//
// The daemon is measured from outside: client-observed latency, the
// `counters` op, and /proc/<pid>/{io,stat,status}. Every answer is
// compared byte for byte with the in-process library answer for the same
// query, computed after the timed window.

#include "tcad_load.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/handler.hpp"
#include "service/json_parse.hpp"
#include "service/query.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace svc = tca::service;
using tca::core::NodeId;

// ------------------------------------------------------------ shape

constexpr int kSetupRepeats = 9;  ///< set-ups per run; setup_s is the median

// tcad-cold: closed loop, three clients against the daemon's two build
// slots, every query distinct and cold. The clients move in lockstep
// rounds over a fixed cycle of shapes (kind, size, topology, scheme) and a
// run covers whole cycles, so every run queues the same way on the same
// mix; the seed picks the threshold rule and the sweep order.
constexpr unsigned kColdClients = 3;
struct ColdShape {
  svc::QueryKind kind;
  std::uint32_t n;
  svc::Topology topology;
  svc::Scheme scheme;
};
constexpr ColdShape kColdCycle[] = {
    {svc::QueryKind::kAttractorSummary, 18, svc::Topology::kRing,
     svc::Scheme::kSynchronous},
    {svc::QueryKind::kGoeCensus, 20, svc::Topology::kLine, svc::Scheme::kSweep},
    {svc::QueryKind::kTransientDepth, 22, svc::Topology::kRing,
     svc::Scheme::kSweep},
    {svc::QueryKind::kGoeCensus, 22, svc::Topology::kRing,
     svc::Scheme::kSynchronous},
    {svc::QueryKind::kAttractorSummary, 20, svc::Topology::kRing,
     svc::Scheme::kSweep},
    {svc::QueryKind::kTransientDepth, 18, svc::Topology::kLine,
     svc::Scheme::kSynchronous}};

// tcad-hot: open loop at a fixed rate over four connections.
constexpr unsigned kHotConnections = 4;
constexpr double kHotRate = 5000;           ///< requests/s, all connections
constexpr std::size_t kHotKeys = 48;        ///< warmed key set
constexpr std::size_t kHotCacheEntries = 32;  ///< < kHotKeys: disk tier works
constexpr double kHotShare = 0.92;          ///< skewed repeats of the hot set
constexpr double kPreimageShare = 0.05;     ///< transfer-matrix counts
// The rest (5%) are small-n cold misses of kMissMinBits..+2 cells; every
// kBurstPeriodS one round of identical cold queries of kBurstBits cells
// goes out on every connection at once.
constexpr std::uint32_t kMissMinBits = 12;
constexpr double kBurstPeriodS = 1.0;
constexpr std::uint32_t kBurstBits = 20;

// ------------------------------------------------------------ queries

/// A random rule of any family the protocol serves.
svc::ServiceRule random_rule(Rng& rng, std::uint32_t& radius) {
  svc::ServiceRule r;
  const std::uint32_t arity = 2 * radius + 1;
  switch (rng.below(6)) {
    case 0: r.type = svc::ServiceRule::Type::kMajority; break;
    case 1: r.type = svc::ServiceRule::Type::kMajorityTieOne; break;
    case 2: r.type = svc::ServiceRule::Type::kParity; break;
    case 3:
      r.type = svc::ServiceRule::Type::kKOfN;
      r.k = 1 + static_cast<std::uint32_t>(rng.below(arity));
      break;
    case 4:
      r.type = svc::ServiceRule::Type::kSymmetric;
      r.mask = rng.next() & svc::ServiceQuery::mask_bits(arity);
      break;
    default:
      r.type = svc::ServiceRule::Type::kWolfram;
      r.code = static_cast<std::uint32_t>(rng.below(256));
      radius = 1;
      break;
  }
  return r;
}

/// An explicit-graph query of the given kind and size with seeded rule,
/// radius, topology and scheme.
svc::ServiceQuery explicit_query(svc::QueryKind kind, std::uint32_t n,
                                 Rng& rng) {
  svc::ServiceQuery q;
  q.kind = kind;
  q.n = n;
  q.radius = 1 + static_cast<std::uint32_t>(rng.below(2));
  q.rule = random_rule(rng, q.radius);
  q.topology = rng.below(2) == 0 ? svc::Topology::kRing : svc::Topology::kLine;
  if (rng.below(2) == 0) {
    q.scheme = svc::Scheme::kSweep;
    if (rng.below(2) == 0) {
      q.order.resize(n);
      std::iota(q.order.begin(), q.order.end(), NodeId{0});
      rng.shuffle(q.order);
      bool identity = true;
      for (std::uint32_t i = 0; i < n; ++i) identity &= q.order[i] == i;
      if (identity) q.order.clear();
    }
  }
  q.validate();
  return q;
}

/// A tcad-cold query: the shape fixed; a seeded rule of any family for
/// synchronous shapes, and a seeded threshold rule (majority or k-of-n)
/// plus a seeded order for sweeps.
svc::ServiceQuery cold_query(const ColdShape& shape, Rng& rng) {
  svc::ServiceQuery q;
  q.kind = shape.kind;
  q.n = shape.n;
  q.topology = shape.topology;
  q.scheme = shape.scheme;
  q.radius = 1 + static_cast<std::uint32_t>(rng.below(2));
  if (q.scheme == svc::Scheme::kSynchronous) {
    q.rule = random_rule(rng, q.radius);
  } else if (rng.below(2) == 0) {
    q.rule.type = svc::ServiceRule::Type::kMajority;
  } else {
    q.rule.type = svc::ServiceRule::Type::kKOfN;
    q.rule.k = 1 + static_cast<std::uint32_t>(rng.below(2 * q.radius + 1));
  }
  if (q.scheme == svc::Scheme::kSweep) {
    q.order.resize(q.n);
    std::iota(q.order.begin(), q.order.end(), NodeId{0});
    rng.shuffle(q.order);
  }
  q.validate();
  return q;
}

/// A coalescing-burst query: one fixed cost shape (a majority sweep of
/// kBurstBits cells) in a fresh seeded order each time, so every burst
/// is a distinct cold key of the same size of work.
svc::ServiceQuery burst_query(Rng& rng) {
  svc::ServiceQuery q;
  q.kind = svc::QueryKind::kAttractorSummary;
  q.n = kBurstBits;
  q.radius = 2;
  q.scheme = svc::Scheme::kSweep;
  q.order.resize(q.n);
  std::iota(q.order.begin(), q.order.end(), NodeId{0});
  rng.shuffle(q.order);
  q.validate();
  return q;
}

/// A transfer-matrix preimage count: a synchronous ring target.
svc::ServiceQuery preimage_query(Rng& rng) {
  svc::ServiceQuery q;
  q.kind = svc::QueryKind::kPreimageCount;
  q.n = 20 + static_cast<std::uint32_t>(rng.below(21));
  q.radius = 1 + static_cast<std::uint32_t>(rng.below(2));
  q.rule = random_rule(rng, q.radius);
  q.target = rng.next() & ((std::uint64_t{1} << q.n) - 1);
  q.validate();
  return q;
}

/// Renders the query object. With `vary`, the spelling changes while the
/// meaning stays: field order, whitespace, defaults spelled out or
/// omitted, rule shorthand or object, identity order spelled out, mask
/// bits above the arity. The daemon must canonicalize all of them to one
/// cache key.
std::string render(const svc::ServiceQuery& q, Rng* vary) {
  const auto coin = [&] { return vary != nullptr && vary->below(2) == 0; };
  std::vector<std::string> fields;
  fields.push_back(std::string("\"kind\":\"") + svc::query_kind_name(q.kind) +
                   "\"");
  fields.push_back("\"n\":" + std::to_string(q.n));
  if (q.radius != 1 || coin()) {
    fields.push_back("\"radius\":" + std::to_string(q.radius));
  }
  if (q.topology == svc::Topology::kLine) {
    fields.push_back("\"topology\":\"line\"");
  } else if (coin()) {
    fields.push_back("\"topology\":\"ring\"");
  }
  using T = svc::ServiceRule::Type;
  std::string rule;
  switch (q.rule.type) {
    case T::kMajority:
      rule = coin() ? "{\"type\":\"majority\"}" : "\"majority\"";
      break;
    case T::kMajorityTieOne: rule = "\"majority1\""; break;
    case T::kParity:
      rule = coin() ? "{\"type\":\"parity\"}" : "\"parity\"";
      break;
    case T::kKOfN:
      rule = "{\"type\":\"kofn\",\"k\":" + std::to_string(q.rule.k) + "}";
      break;
    case T::kSymmetric: {
      std::uint64_t mask = q.rule.mask;
      if (coin()) mask |= std::uint64_t{1} << 40;  // stripped by the parser
      rule = "{\"mask\":" + std::to_string(mask) + ",\"type\":\"symmetric\"}";
      break;
    }
    case T::kWolfram:
      rule = "{\"type\":\"wolfram\",\"code\":" + std::to_string(q.rule.code) +
             "}";
      break;
  }
  fields.push_back("\"rule\":" + rule);
  if (q.scheme == svc::Scheme::kSweep) {
    fields.push_back("\"scheme\":\"sweep\"");
    std::vector<NodeId> order = q.order;
    if (order.empty() && coin()) {
      order.resize(q.n);
      std::iota(order.begin(), order.end(), NodeId{0});
    }
    if (!order.empty()) {
      std::string o = "\"order\":[";
      for (std::size_t i = 0; i < order.size(); ++i) {
        o += (i ? "," : "") + std::to_string(order[i]);
      }
      fields.push_back(o + "]");
    }
  } else if (coin()) {
    fields.push_back("\"scheme\":\"synchronous\"");
  }
  if (q.kind == svc::QueryKind::kPreimageCount) {
    fields.push_back("\"target\":" + std::to_string(q.target));
  }
  if (vary != nullptr) vary->shuffle(fields);
  const char* sep = vary != nullptr && vary->below(2) == 0 ? ", " : ",";
  std::string out = vary != nullptr && vary->below(2) == 0 ? "{ " : "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i ? sep : "") + fields[i];
  }
  return out + "}";
}

std::string request_text(std::uint64_t id, const std::string& query_json) {
  return "{\"op\":\"query\",\"id\":" + std::to_string(id) +
         ",\"query\":" + query_json + "}";
}

/// The "result" object of an ok response (handler.cpp puts it last).
std::string result_of(const std::string& response) {
  const std::size_t pos = response.find("\"result\":");
  if (pos == std::string::npos) return "";
  return response.substr(pos + 9, response.size() - pos - 10);
}

std::string source_of(const std::string& response) {
  const std::size_t pos = response.find("\"source\":\"");
  if (pos == std::string::npos) return "";
  const std::size_t end = response.find('"', pos + 10);
  return response.substr(pos + 10, end - pos - 10);
}

bool is_ok(const std::string& response) {
  return response.find("\"status\":\"ok\"") != std::string::npos;
}

// ------------------------------------------------------------- daemon

/// One spawned tcad. The destructor never leaves it running.
class Daemon {
 public:
  Daemon(const RunOptions& opt, std::vector<std::string> flags)
      : dir_(fs::path(opt.work_dir) / "tcad") {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    socket_ = (dir_ / "tcad.sock").string();
    ready_ = (dir_ / "ready").string();
    manifest_ = (dir_ / "tcad.manifest.json").string();
    std::vector<std::string> argv = {opt.tcad_path, "--socket", socket_,
                                     "--ready-file", ready_, "--manifest",
                                     manifest_};
    for (std::string& f : flags) {
      argv.push_back(f == "@dir" ? dir_.string() : std::move(f));
    }
    const Clock::time_point t0 = Clock::now();
    pid_ = spawn(argv);
    while (pid_ > 0 && !fs::exists(ready_)) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;  // died before becoming ready
        break;
      }
      if (seconds_between(t0, Clock::now()) > 30) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { (void)stop(); }

  [[nodiscard]] bool up() const { return pid_ > 0 && fs::exists(ready_); }
  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// SIGTERM, wait, and require a clean shutdown: exit status 0 and the
  /// daemon's own clean-shutdown check (no request left in flight). A
  /// daemon still running after 20 s is killed and counts as unclean.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_between(t0, Clock::now()) > 20) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        status = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool exited_ok = status != -1 && WIFEXITED(status) &&
                           WEXITSTATUS(status) == 0;
    pid_ = -1;
    std::ifstream in(manifest_);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    return exited_ok && doc.find("\"clean-shutdown\"") != std::string::npos &&
           doc.find("\"FAIL\"") == std::string::npos;
  }

 private:
  fs::path dir_;
  std::string socket_, ready_, manifest_;
  pid_t pid_ = -1;
};

using Counters = std::map<std::string, std::uint64_t>;

Counters wire_counters(const std::string& socket) {
  Counters out;
  svc::TcadClient client = svc::TcadClient::connect_uds(socket);
  const svc::JsonValue v =
      svc::parse_json(client.call(R"({"op":"counters","id":0})"));
  if (const svc::JsonValue* c = v.find("counters")) {
    for (const auto& [name, value] : c->as_object()) out[name] = value.as_u64();
  }
  return out;
}

double counter_delta(const Counters& a, const Counters& b,
                     const std::string& name) {
  const auto ia = a.find(name);
  const auto ib = b.find(name);
  const std::uint64_t va = ia == a.end() ? 0 : ia->second;
  const std::uint64_t vb = ib == b.end() ? 0 : ib->second;
  return static_cast<double>(vb - va);
}

// ------------------------------------------------------------ warmers

/// Keeps every CPU busy while it lives: one SCHED_IDLE thread per CPU
/// spins until destroyed. SCHED_IDLE threads run only when nothing else
/// wants the CPU and yield at once to any thread that wakes, so they take
/// no time from the daemon or the clients; what they remove is the cost of
/// waking a halted CPU, which on a virtual machine is host scheduling
/// latency of tens of microseconds that changes with the host's load.
class CpuWarmers {
 public:
  explicit CpuWarmers(unsigned cpus) {
    for (unsigned c = 0; c < cpus; ++c) {
      threads_.emplace_back([this, c] {
        const sched_param param{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(c, &set);
        ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  CpuWarmers(const CpuWarmers&) = delete;
  CpuWarmers& operator=(const CpuWarmers&) = delete;
  ~CpuWarmers() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------- samples

/// One request as the client saw it.
struct Sample {
  svc::ServiceQuery query;
  std::string text;       ///< the request frame as sent
  std::string response;
  double latency_s = 0;   ///< from due (open loop) or send (closed loop)
  double late_s = 0;      ///< generator lateness before the send
  double due_s = 0;       ///< due time, seconds into the window
  bool computed = false;  ///< source == computed
};

/// Library answers by canonical key: a cache-less, checkpoint-less
/// QueryEngine in this process, computed outside the timed window.
class Expected {
 public:
  void add(const svc::ServiceQuery& q) {
    const std::string key = q.canonical_key();
    if (answers_.emplace(key, std::string()).second) todo_.push_back(q);
  }
  /// Computes every pending answer on `threads` threads.
  void compute(unsigned threads) {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        svc::QueryEngine engine{svc::EngineOptions{}};
        for (std::size_t i; (i = next.fetch_add(1)) < todo_.size();) {
          std::string json;  // stays empty on failure: a mismatch
          try {
            const svc::QueryOutcome out =
                engine.execute(todo_[i], svc::RequestBudget{}, {});
            if (out.ok()) json = out.result.to_json();
          } catch (const std::exception&) {
          }
          std::lock_guard<std::mutex> lock(mu);
          answers_[todo_[i].canonical_key()] = json;
        }
      });
    }
    for (std::thread& t : pool) t.join();
    todo_.clear();
  }
  [[nodiscard]] const std::string& of(const svc::ServiceQuery& q) const {
    return answers_.at(q.canonical_key());
  }

 private:
  std::map<std::string, std::string> answers_;
  std::vector<svc::ServiceQuery> todo_;
};

/// Checks every sample against the library; returns the count of bad
/// ones and records the first few.
void verify(const std::vector<Sample>& samples, Expected& expected,
            unsigned threads, Report& report) {
  for (const Sample& s : samples) expected.add(s.query);
  expected.compute(threads);
  for (const Sample& s : samples) {
    ++report.attempted;
    if (!is_ok(s.response)) {
      report.fail("not ok: " + s.response.substr(0, 200));
    } else if (result_of(s.response) != expected.of(s.query) ||
               expected.of(s.query).empty()) {
      report.fail("answer differs from the library: " + s.text);
    }
  }
}

// ---------------------------------------------------- in-process replay

const char* engine_path(const svc::ServiceQuery& q,
                        const svc::EngineOptions& eo) {
  if (!q.needs_explicit_graph()) return "tm";
  if (q.kind == svc::QueryKind::kGoeCensus &&
      q.scheme == svc::Scheme::kSynchronous) {
    return "supervised";
  }
  return q.n <= eo.small_n_bits ? "small_n" : "supervised";
}

/// Replays requests through an in-process RequestHandler built like the
/// daemon, one thread per client stream. Even-indexed requests go through
/// handle() as a whole; odd ones through the same steps one call at a
/// time (parse, cache lookup, execute, serialize, cache insert), each
/// under its own span. Returns, per request replayed through handle(),
/// its client-observed latency minus its handle() time in microseconds:
/// the transport estimate.
std::vector<double> replay(const std::vector<std::vector<const Sample*>>& streams,
                           svc::RequestHandler& handler,
                           const svc::EngineOptions& eo, SpanRecorder& rec,
                           std::uint64_t first_id) {
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> ids{first_id};
  std::vector<std::vector<double>> transport(streams.size());
  for (std::size_t t = 0; t < streams.size(); ++t) {
    threads.emplace_back([&, t] {
      const std::vector<const Sample*>& stream = streams[t];
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::uint64_t id = ids.fetch_add(1);
        const Sample& s = *stream[i];
        if (i % 2 == 0) {
          const Span root(rec, "service.handle", id);
          const Clock::time_point t0 = Clock::now();
          (void)handler.handle(s.text);
          transport[t].push_back(
              1e6 * (s.latency_s - s.late_s - seconds_between(t0, Clock::now())));
          continue;
        }
        const Span root(rec, "service.request", id);
        svc::ServiceQuery q;
        {
          // The requests are generated valid and were answered live, so
          // from_json does not throw here.
          const Span sp(rec, "service.parse", id, &root);
          const svc::JsonValue v = svc::parse_json(s.text);
          q = svc::ServiceQuery::from_json(*v.find("query"));
          (void)q.canonical_key();
        }
        {
          const Span sp(rec, "service.cache.lookup", id, &root);
          if (handler.cache().lookup(q)) continue;
        }
        svc::QueryOutcome out;
        {
          const Span sp(rec, std::string("service.engine.execute.") +
                                 engine_path(q, eo),
                        id, &root);
          out = handler.engine().execute(q, svc::RequestBudget{}, {});
        }
        if (!out.ok()) continue;  // never cached, as in the handler
        std::string json;
        {
          const Span sp(rec, "service.serialize", id, &root);
          json = out.result.to_json();
        }
        {
          const Span sp(rec, "service.cache.insert", id, &root);
          handler.cache().insert(q, json);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const std::vector<double>& v : transport) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

double histogram_mean(const tca::obs::MetricsSnapshot& a,
                      const tca::obs::MetricsSnapshot& b,
                      const std::string& name) {
  const auto ia = a.histograms.find(name);
  const auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return 0;
  double sum = static_cast<double>(ib->second.sum);
  double count = static_cast<double>(ib->second.count);
  if (ia != a.histograms.end()) {
    sum -= static_cast<double>(ia->second.sum);
    count -= static_cast<double>(ia->second.count);
  }
  return count > 0 ? sum / count : 0;
}

/// Median duration (us) of the spans named `name`; 0 when none.
double span_p50_us(const std::vector<SpanRecord>& spans,
                   const std::string& name) {
  std::vector<double> d;
  for (const SpanRecord& s : spans) {
    if (s.name == name) d.push_back(1e6 * (s.end_s - s.start_s));
  }
  return median(d);
}

// --------------------------------------------------------- the workload

struct Config {
  bool hot = false;
  unsigned connections = 3;
  std::vector<std::string> flags;  ///< daemon flags ("@dir": its directory)
  svc::HandlerOptions handler;     ///< the same options, in process
  std::vector<svc::ServiceQuery> hot_set;
};

/// The hot key set of tcad-hot: small explicit queries, all kinds.
std::vector<svc::ServiceQuery> hot_keys(std::uint64_t seed) {
  Rng rng(seed ^ 0x486f74ull);
  std::vector<svc::ServiceQuery> keys;
  std::set<std::string> seen;
  const svc::QueryKind kinds[] = {svc::QueryKind::kAttractorSummary,
                                  svc::QueryKind::kTransientDepth,
                                  svc::QueryKind::kGoeCensus};
  while (keys.size() < kHotKeys) {
    const svc::ServiceQuery q = explicit_query(
        kinds[keys.size() % 3], 10 + static_cast<std::uint32_t>(rng.below(5)),
        rng);
    if (seen.insert(q.canonical_key()).second) keys.push_back(q);
  }
  return keys;
}

/// One timed window against one freshly spawned daemon.
struct Pass {
  std::vector<std::vector<Sample>> per_conn;
  std::vector<double> setups;
  double wall = 0;
  ProcSample p0, p1;
  Counters c0, c1;
  std::vector<std::string> failures;
};

Pass run_pass(const RunOptions& opt, const Config& cfg, SpanRecorder& rec,
              int setup_repeats, double seconds) {
  Pass pass;
  const bool hot = cfg.hot;
  const std::vector<svc::ServiceQuery>& hot_set = cfg.hot_set;

  // Set-up, repeated: spawn until ready, plus the warm fill for hot.
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < setup_repeats; ++i) {
    if (daemon && !daemon->stop()) {
      pass.failures.push_back("tcad did not shut down cleanly");
    }
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt, cfg.flags);
    if (!daemon->up()) {
      pass.failures.push_back("tcad did not become ready");
      return pass;
    }
    svc::TcadClient client = svc::TcadClient::connect_uds(daemon->socket());
    for (const svc::ServiceQuery& q : hot_set) {
      if (!is_ok(client.call(request_text(0, render(q, nullptr))))) {
        pass.failures.push_back("warm fill request failed");
      }
    }
    pass.setups.push_back(seconds_between(t0, Clock::now()));
  }

  pass.c0 = wire_counters(daemon->socket());
  pass.p0 = sample_proc(daemon->pid());
  pass.per_conn.resize(cfg.connections);
  std::mutex keys_mu;
  std::set<std::string> used;  // every cold query is distinct
  for (const svc::ServiceQuery& q : hot_set) used.insert(q.canonical_key());
  const auto fresh = [&](auto make) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      svc::ServiceQuery q = make();
      std::lock_guard<std::mutex> lock(keys_mu);
      if (used.insert(q.canonical_key()).second) return q;
    }
    throw std::runtime_error("no distinct cold query left");
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // Hot: slot k is due at start + k / rate on connection k % connections.
  // Every burst_every rounds, one fresh cold query goes out on every
  // connection at once, so identical requests coalesce.
  const double rate = kHotRate;
  const std::uint64_t burst_every =
      static_cast<std::uint64_t>(rate * kBurstPeriodS) / cfg.connections;
  std::vector<svc::ServiceQuery> bursts;
  if (hot) {
    Rng brng(opt.seed ^ 0x42757273ull);
    const std::uint64_t rounds =
        static_cast<std::uint64_t>(seconds * rate) / cfg.connections + 1;
    for (std::uint64_t r = 0; r < rounds; r += burst_every) {
      bursts.push_back(fresh([&] { return burst_query(brng); }));
    }
  }

  std::atomic<bool> conn_error{false};
  std::vector<Clock::time_point> ends(cfg.connections, start);
  bool stop_rounds = false;  // written by the barrier's completion step
  std::size_t cold_rounds = 0;
  std::barrier rounds(static_cast<std::ptrdiff_t>(cfg.connections),
                      [&]() noexcept {
                        // Whole cycles only.
                        const bool cycle_start =
                            cold_rounds++ % std::size(kColdCycle) == 0;
                        stop_rounds = cycle_start && Clock::now() >= deadline;
                      });
  std::optional<CpuWarmers> warmers;
  if (hot) warmers.emplace(opt.nproc);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < cfg.connections; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + c + 1);
      std::vector<Sample>& out = pass.per_conn[c];
      // Wake at the due time, not up to the default 50 us timer slack
      // after it.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      try {
        svc::TcadClient client = svc::TcadClient::connect_uds(daemon->socket());
        Clock::time_point prev_done = start;
        for (std::uint64_t round = 0;; ++round) {
          Sample s;
          Clock::time_point due;
          if (hot) {
            due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(round * cfg.connections + c) /
                                  rate));
            if (due >= deadline) break;
            const double u = rng.unit();
            if (round % burst_every == 0) {
              // Connection 0 sends first and leads the coalesced build;
              // the rest follow 1 ms later, well inside the build.
              s.query = bursts[round / burst_every];
              if (c > 0) due += std::chrono::milliseconds(1);
            } else if (u < kHotShare) {
              // Zipf-like skew over the hot set.
              const double z = rng.unit();
              const auto rank = static_cast<std::size_t>(
                  static_cast<double>(hot_set.size()) * z * z * z);
              s.query = hot_set[std::min(rank, hot_set.size() - 1)];
            } else if (u < kHotShare + kPreimageShare) {
              s.query = fresh([&] { return preimage_query(rng); });
            } else {
              s.query = fresh([&] {
                const auto k = static_cast<svc::QueryKind>(rng.below(3));
                return explicit_query(
                    k, kMissMinBits + static_cast<std::uint32_t>(rng.below(3)),
                    rng);
              });
            }
            std::this_thread::sleep_until(due);
          } else {
            // Lockstep rounds: every client sends one query of the round's
            // shape, so the build slots queue the same way every round.
            rounds.arrive_and_wait();
            if (stop_rounds) break;
            const ColdShape& shape = kColdCycle[round % std::size(kColdCycle)];
            s.query = fresh([&] { return cold_query(shape, rng); });
            due = Clock::now();
            prev_done = due;
          }
          s.text = request_text(round, render(s.query, &rng));
          const Clock::time_point sent = Clock::now();
          // Open loop: how late the send was against its due time. Closed
          // loop: the generator's own gap since the round began.
          s.late_s = hot ? open_loop_latency(due, sent)
                         : seconds_between(prev_done, sent);
          {
            const Span sp(rec, "tcad.request", round);
            s.response = client.call(s.text);
          }
          const Clock::time_point done = Clock::now();
          prev_done = done;
          s.latency_s = open_loop_latency(due, done);
          s.due_s = seconds_between(start, due);
          s.computed = source_of(s.response) == "computed";
          out.push_back(std::move(s));
          ends[c] = done;
        }
      } catch (const std::exception&) {
        conn_error = true;
        if (!hot) rounds.arrive_and_drop();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  warmers.reset();
  pass.wall = seconds_between(start, *std::max_element(ends.begin(), ends.end()));

  pass.p1 = sample_proc(daemon->pid());
  pass.c1 = wire_counters(daemon->socket());
  if (!daemon->stop()) pass.failures.push_back("tcad did not shut down cleanly");
  if (conn_error) pass.failures.push_back("a client connection failed");
  return pass;
}

/// The median over consecutive 1 s windows (by due time) of each
/// window's median latency: an open-loop run at thousands of requests per
/// second spans many windows, and a few windows slowed by the host then
/// move one value each instead of the pooled median.
double windowed_median(const std::vector<std::pair<double, double>>& at) {
  std::map<long, std::vector<double>> windows;
  for (const auto& [due, latency] : at) {
    windows[static_cast<long>(due)].push_back(latency);
  }
  std::vector<double> medians;
  for (auto& [w, v] : windows) medians.push_back(median(std::move(v)));
  return median(medians);
}

std::vector<double> latencies(const Pass& p) {
  std::vector<double> v;
  for (const auto& conn : p.per_conn) {
    for (const Sample& s : conn) v.push_back(s.latency_s);
  }
  return v;
}

/// p99 of the generator's lateness (ms).
double late_p99_ms(const Pass& p) {
  std::vector<double> v;
  for (const auto& conn : p.per_conn) {
    for (const Sample& s : conn) v.push_back(1e3 * s.late_s);
  }
  return quantile(v, 0.99);
}

}  // namespace

Report run_tcad(const RunOptions& opt, SpanRecorder& rec, bool hot) {
  Report report;
  Config cfg;
  cfg.hot = hot;
  // Each server worker holds one connection for its lifetime, so
  // --workers is at least the connection count: fewer would measure the
  // wait for a free worker, not the request path.
  if (hot) {
    cfg.connections = kHotConnections;
    cfg.flags = {"--workers", std::to_string(kHotConnections),
                 "--cache-entries", std::to_string(kHotCacheEntries),
                 "--cache-dir", "@dir"};
    cfg.handler.cache.max_entries = kHotCacheEntries;
    cfg.hot_set = hot_keys(opt.seed);
  } else {
    cfg.connections = kColdClients;
    cfg.flags = {"--workers", std::to_string(kColdClients), "--ckpt-dir",
                 "@dir"};
  }
  report.notes["tcad_flags"] = [&] {
    std::string f;
    for (const std::string& s : cfg.flags) f += (f.empty() ? "" : " ") + s;
    return f;
  }();

  // The measured pass runs untraced; a traced run splits its time between
  // that pass and a repeat of the same inputs against a fresh daemon with
  // spans on.
  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  SpanRecorder off(false);
  const Pass pass = run_pass(opt, cfg, off, kSetupRepeats, pass_s);
  for (const std::string& f : pass.failures) report.fail(f);
  if (pass.setups.empty()) return report;

  std::vector<Sample> all;
  for (const auto& conn : pass.per_conn) all.insert(all.end(), conn.begin(), conn.end());
  Expected expected;
  verify(all, expected, opt.nproc, report);

  // ---- end-to-end ----
  std::vector<double> lat_ms, job_s;
  std::vector<std::pair<double, double>> lat_at, job_at;  // (due, latency)
  double states = 0;
  for (const Sample& s : all) {
    lat_ms.push_back(1e3 * s.latency_s);
    lat_at.emplace_back(s.due_s, s.latency_s);
    if (s.computed && s.query.needs_explicit_graph()) {
      job_s.push_back(s.latency_s);
      job_at.emplace_back(s.due_s, s.latency_s);
      states += static_cast<double>(std::uint64_t{1} << s.query.n);
    }
  }
  report.set_e2e("setup_s", median(pass.setups), "s");
  report.notes["setup_s.samples"] = std::to_string(pass.setups.size());
  for (double v : pass.setups) {
    report.notes["setup_s.values"] += std::to_string(v) + " ";
  }
  report.set_e2e("states_per_s", states / pass.wall, "states/s");
  report.set_e2e("job_p50_s", hot ? windowed_median(job_at) : median(job_s),
                 "s");
  report.set_e2e("requests_per_s", static_cast<double>(all.size()) / pass.wall,
                 "req/s");
  report.set_e2e("request_p50_ms", hot ? 1e3 * windowed_median(lat_at)
                                       : median(lat_ms),
                 "ms");
  if (hot) {
    report.notes["request_p50_ms.method"] =
        "median over 1 s windows (by due time) of each window's median";
  }
  const Tail tail = tail_with_beyond(lat_ms);
  report.set_e2e("request_tail_ms", tail.value, "ms");
  report.notes["request_tail_ms.percentile"] =
      tail.percentile ? std::to_string(*tail.percentile)
                      : "max (fewer than 20 samples)";
  report.notes["samples"] = std::to_string(all.size());
  report.notes["computed_explicit_samples"] = std::to_string(job_s.size());
  report.notes["loadgen.late_p99_ms"] = std::to_string(late_p99_ms(pass));
  report.set_e2e("rss_peak_mib",
                 static_cast<double>(pass.p1.vm_hwm_kib) / 1024.0, "MiB");
  if (hot) report.notes["offered_rate_per_s"] = std::to_string(kHotRate);

  if (!opt.trace) return report;

  // ---- per-layer: the same inputs again, traced ----
  const Pass traced = run_pass(opt, cfg, rec, 1, pass_s);
  for (const std::string& f : traced.failures) report.fail(f);
  std::vector<Sample> all_traced;
  for (const auto& conn : traced.per_conn) {
    all_traced.insert(all_traced.end(), conn.begin(), conn.end());
  }
  verify(all_traced, expected, opt.nproc, report);

  double computed = 0;
  for (const Sample& s : all_traced) computed += s.computed ? 1 : 0;
  const double ticks =
      static_cast<double>(traced.p1.cpu_ticks - traced.p0.cpu_ticks);
  report.set_ratio("tcad.cpu_util",
                   {ticks / clock_ticks_per_s(),
                    seconds_between(traced.p0.at, traced.p1.at) * opt.nproc},
                   "ratio");
  report.set_ratio(
      "tcad.io.write_bytes_per_request",
      {static_cast<double>(traced.p1.wchar - traced.p0.wchar), computed}, "B");
  for (const char* name :
       {"service.resume.saved", "supervisor.attempts", "supervisor.retries",
        "service.engine.builds", "service.coalesced", "engine.batch.fallback"}) {
    report.set_layer(name, counter_delta(traced.c0, traced.c1, name), "count");
  }
  const double hits = counter_delta(traced.c0, traced.c1, "service.cache.hit") +
                      counter_delta(traced.c0, traced.c1, "service.cache.disk_hit");
  report.set_ratio(
      "service.cache.hit_ratio",
      {hits, hits + counter_delta(traced.c0, traced.c1, "service.cache.miss")},
      "ratio");
  report.set_layer("loadgen.late_p99_ms", late_p99_ms(traced), "ms");
  const double p50_untraced = median(latencies(pass));
  const double p50_traced = median(latencies(traced));
  report.set_layer("bench.trace_overhead_pct",
                   100 * (p50_traced - p50_untraced) / p50_untraced, "%");
  report.notes["bench.trace_overhead_pct.base"] =
      "request p50 traced " + std::to_string(1e3 * p50_traced) +
      " ms vs untraced " + std::to_string(1e3 * p50_untraced) + " ms";

  // In-process replay of the traced pass, one thread per connection.
  svc::HandlerOptions ho = cfg.handler;
  const fs::path rdir = fs::path(opt.work_dir) / "replay";
  fs::remove_all(rdir);
  if (hot) {
    ho.cache.disk_dir = (rdir / "cache").string();
  } else {
    ho.engine.ckpt_dir = (rdir / "ckpt").string();
  }
  std::vector<double> transport_us;
  {
    svc::RequestHandler handler(ho);
    for (const svc::ServiceQuery& q : cfg.hot_set) {
      (void)handler.handle(request_text(0, render(q, nullptr)));
    }
    std::vector<std::vector<const Sample*>> streams(cfg.connections);
    for (unsigned c = 0; c < cfg.connections; ++c) {
      for (const Sample& s : traced.per_conn[c]) streams[c].push_back(&s);
    }
    const tca::obs::MetricsSnapshot m0 = tca::obs::snapshot_metrics();
    transport_us = replay(streams, handler, ho.engine, rec, 1u << 30);
    const tca::obs::MetricsSnapshot m1 = tca::obs::snapshot_metrics();
    report.set_layer("service.admission.wait_us",
                     histogram_mean(m0, m1, "service.admission.wait_us"), "us");
  }
  fs::remove_all(rdir);

  const std::vector<SpanRecord> spans = rec.spans();
  for (const char* path : {"tm", "small_n", "supervised"}) {
    report.set_layer(
        std::string("service.engine.execute_us.") + path,
        span_p50_us(spans, std::string("service.engine.execute.") + path), "us");
  }
  report.set_layer("service.parse.busy_us", span_p50_us(spans, "service.parse"),
                   "us");
  report.set_layer("service.cache.lookup_us",
                   span_p50_us(spans, "service.cache.lookup"), "us");
  report.set_layer("service.cache.insert_us",
                   span_p50_us(spans, "service.cache.insert"), "us");
  report.set_layer("service.serialize_us",
                   span_p50_us(spans, "service.serialize"), "us");
  const double handle_us = span_p50_us(spans, "service.handle");
  report.set_layer("service.handle_us", handle_us, "us");
  report.set_layer("service.transport_us", median(transport_us), "us");
  report.notes["service.transport_us.method"] =
      "median over requests replayed through handle() of (client latency - "
      "generator lateness - in-process handle time), " +
      std::to_string(transport_us.size()) + " requests";
  report.set_ratio("bench.span_coverage_pct",
                   span_coverage_pct(spans, "service.request"), "%");
  return report;
}

}  // namespace perfbench
