// Experiment SVC-LOAD — closed-loop saturation bench for the tcad daemon
// (docs/service.md).
//
// Drives a tcad instance (spawned as a child with --spawn-style defaults,
// or an external one via --socket) through three fixed phases:
//
//   1. MISS    — a canned set of distinct queries, every one cold: each
//                must come back "source":"computed" and bit-identical to
//                the direct library answer computed in-process;
//   2. HIT     — the same set twice more: all "memory-cache";
//   3. COALESCE— 8 connections fire the SAME cold query through a start
//                barrier: exactly ONE response may be "computed", the
//                rest are "coalesced" (attached to the in-flight build)
//                or "memory-cache" (arrived after publication).
//
// The workload is FIXED, so its counters are exact: the run PASSes only
// when loadgen.requests and loadgen.ok both equal the workload size
// (kExpectedRequests) and there are no errors, no mismatches, one
// coalesced build, matching server counters and a clean shutdown. Timing
// (qps, p50/p99 request latency) is published as manifest benchmarks for
// trend tracking but never gated.
//
// In spawn mode (the default) the bench forks its own tcad, SIGTERMs it
// at the end, and requires a zero exit status plus a PASS clean-shutdown
// check in the daemon's own manifest.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/json_parse.hpp"
#include "service/query.hpp"

using namespace tca;

namespace {

namespace fs = std::filesystem;

struct CannedQuery {
  const char* name;
  const char* request_query;  ///< the "query" object, verbatim JSON
};

// The MISS/HIT set: all four kinds, both topologies, both schemes, and
// every rule family. Small n keeps the bench under a second; coalesce
// uses a larger build below so the in-flight window is real.
constexpr CannedQuery kCanned[] = {
    {"attr-maj-ring", R"({"kind":"attractor-summary","n":8,"radius":1,"rule":"majority","topology":"ring"})"},
    {"attr-parity-line", R"({"kind":"attractor-summary","n":8,"radius":1,"rule":"parity","topology":"line"})"},
    {"attr-wolfram110", R"({"kind":"attractor-summary","n":9,"radius":1,"rule":{"type":"wolfram","code":110},"topology":"ring"})"},
    {"attr-sweep-rev", R"({"kind":"attractor-summary","n":7,"radius":1,"rule":"majority","scheme":"sweep","order":[6,5,4,3,2,1,0]})"},
    {"trans-kofn", R"({"kind":"transient-depth","n":9,"radius":1,"rule":{"type":"kofn","k":2},"topology":"ring"})"},
    {"trans-maj1-r2", R"({"kind":"transient-depth","n":9,"radius":2,"rule":"majority1","topology":"ring"})"},
    {"goe-maj-ring", R"({"kind":"goe-census","n":8,"radius":1,"rule":"majority","topology":"ring"})"},
    {"goe-sym-line", R"({"kind":"goe-census","n":8,"radius":1,"rule":{"type":"symmetric","mask":11},"topology":"line"})"},
    {"goe-sweep", R"({"kind":"goe-census","n":7,"radius":1,"rule":"parity","scheme":"sweep"})"},
    {"pre-tm-ring", R"({"kind":"preimage-count","n":12,"radius":1,"rule":"majority","topology":"ring","target":0})"},
    {"pre-explicit-line", R"({"kind":"preimage-count","n":8,"radius":1,"rule":"parity","topology":"line","target":17})"},
    {"pre-sweep", R"({"kind":"preimage-count","n":8,"radius":1,"rule":"majority","scheme":"sweep","order":[1,0,3,2,5,4,7,6],"target":255})"},
};
constexpr std::size_t kCannedCount = sizeof kCanned / sizeof kCanned[0];
constexpr int kHitRounds = 2;
constexpr std::size_t kCoalesceClients = 8;
/// Every MISS and HIT round plus one request per coalescing client.
constexpr std::uint64_t kExpectedRequests =
    kCannedCount * static_cast<std::size_t>(kHitRounds + 1) + kCoalesceClients;
// The coalesce-phase cold query: a 2^14-state supervised build, big
// enough that followers genuinely arrive mid-build on any machine.
constexpr const char* kCoalesceQuery =
    R"({"kind":"attractor-summary","n":14,"radius":1,"rule":"majority1","topology":"ring"})";

/// The daemon's "result" object from a response body (it is the last
/// member by construction; see handler.cpp query_response).
std::string extract_result(const std::string& response) {
  const std::size_t pos = response.find("\"result\":");
  if (pos == std::string::npos) return "";
  return response.substr(pos + 9, response.size() - pos - 10);
}

std::string extract_source(const std::string& response) {
  const service::JsonValue v = service::parse_json(response);
  return v.string_or("source", "");
}

/// Direct library answer for a canned query — the same code path the
/// daemon uses, executed in-process. Bit-identical JSON is the check.
std::string library_answer(const char* query_json,
                           service::QueryEngine& engine) {
  const service::ServiceQuery q =
      service::ServiceQuery::from_json(service::parse_json(query_json));
  const service::QueryOutcome out =
      engine.execute(q, service::RequestBudget{}, {});
  return out.ok() ? out.result.to_json() : "";
}

std::string request_body(std::uint64_t id, const char* query_json) {
  std::ostringstream os;
  os << R"({"op":"query","id":)" << id << R"(,"query":)" << query_json << "}";
  return os.str();
}

struct Latencies {
  std::mutex mu;
  std::vector<std::uint64_t> us;

  void record(std::chrono::steady_clock::time_point t0) {
    const auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::lock_guard<std::mutex> lock(mu);
    us.push_back(static_cast<std::uint64_t>(dt));
  }

  std::uint64_t percentile(double p) {
    std::lock_guard<std::mutex> lock(mu);
    if (us.empty()) return 0;
    std::vector<std::uint64_t> sorted = us;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;   // external server; empty = spawn our own
  std::string tcad_bin;      // spawn mode: path to the tcad binary
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcad" && i + 1 < argc) {
      tcad_bin = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--socket PATH | --tcad TCAD_BIN]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::Counter& c_requests = obs::counter("loadgen.requests");
  obs::Counter& c_ok = obs::counter("loadgen.ok");
  obs::Counter& c_errors = obs::counter("loadgen.errors");
  obs::Counter& c_mismatch = obs::counter("loadgen.mismatch");
  obs::Counter& c_coalesce_ok = obs::counter("loadgen.coalesce_ok");
  obs::Counter& c_counters_ok = obs::counter("loadgen.server_counters_ok");
  obs::Counter& c_clean = obs::counter("loadgen.server_clean_shutdown");

  // --- spawn the daemon (default mode) -------------------------------
  pid_t child = -1;
  std::string workdir;
  std::string server_manifest;
  const bool spawn = socket_path.empty();
  if (spawn) {
    if (tcad_bin.empty()) {
      // Bare invocation (the reproduce.sh bench sweep): the daemon lives
      // at a fixed spot relative to this binary in the build tree.
      const fs::path sibling =
          fs::path(argv[0]).parent_path() / ".." / "src" / "service" / "tcad";
      std::error_code ec;
      if (fs::exists(sibling, ec)) tcad_bin = sibling.string();
    }
    if (tcad_bin.empty()) {
      std::fprintf(stderr, "loadgen_tcad: need --tcad (or --socket)\n");
      return 2;
    }
    char tmpl[] = "loadgen_tcad.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::perror("mkdtemp");
      return 2;
    }
    workdir = tmpl;
    socket_path = workdir + "/tcad.sock";
    server_manifest = workdir + "/tcad.manifest.json";
    const std::string ready = workdir + "/ready";
    child = ::fork();
    if (child == 0) {
      ::execl(tcad_bin.c_str(), tcad_bin.c_str(),
              "--socket", socket_path.c_str(),
              "--cache-dir", (workdir + "/cache").c_str(),
              "--ckpt-dir", (workdir + "/ckpt").c_str(),
              "--ready-file", ready.c_str(),
              "--manifest", server_manifest.c_str(),
              static_cast<char*>(nullptr));
      std::perror("execl tcad");
      _exit(127);
    }
    bool up = false;
    for (int i = 0; i < 300; ++i) {  // 15 s startup allowance
      if (fs::exists(ready)) {
        up = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!up) {
      std::fprintf(stderr, "loadgen_tcad: daemon never became ready\n");
      ::kill(child, SIGKILL);
      return 1;
    }
  }

  // Library-side engine for expected answers (no cache, no checkpoints:
  // pure compute).
  service::QueryEngine lib_engine{service::EngineOptions{}};

  Latencies latencies;
  const auto bench_t0 = std::chrono::steady_clock::now();
  std::uint64_t next_id = 1;

  const auto issue = [&](service::TcadClient& client, const char* query_json,
                         const std::string& expected) -> std::string {
    const std::string req = request_body(next_id++, query_json);
    const auto t0 = std::chrono::steady_clock::now();
    const std::string response = client.call(req);
    latencies.record(t0);
    c_requests.add();
    const service::JsonValue v = service::parse_json(response);
    if (v.string_or("status", "") != "ok") {
      c_errors.add();
      return response;
    }
    c_ok.add();
    if (!expected.empty() && extract_result(response) != expected) {
      c_mismatch.add();
      std::fprintf(stderr, "MISMATCH for %s\n  server: %s\n  library: %s\n",
                   query_json, extract_result(response).c_str(),
                   expected.c_str());
    }
    return response;
  };

  // Phase 1+2: miss then hit rounds, single connection (the protocol is
  // one-outstanding-per-connection; phase 3 exercises concurrency).
  {
    service::TcadClient client = service::TcadClient::connect_uds(socket_path);
    std::vector<std::string> expected(kCannedCount);
    for (std::size_t i = 0; i < kCannedCount; ++i) {
      expected[i] = library_answer(kCanned[i].request_query, lib_engine);
    }
    for (int round = 0; round <= kHitRounds; ++round) {
      for (std::size_t i = 0; i < kCannedCount; ++i) {
        const std::string response =
            issue(client, kCanned[i].request_query, expected[i]);
        const std::string source = extract_source(response);
        const char* want = round == 0 ? "computed" : "memory-cache";
        if (source != want) {
          c_errors.add();
          std::fprintf(stderr, "phase %d: %s: expected source %s, got %s\n",
                       round, kCanned[i].name, want, source.c_str());
        }
      }
    }
  }

  // Phase 3: coalesce — kCoalesceClients connections, one cold query,
  // released together.
  {
    const std::string expected = library_answer(kCoalesceQuery, lib_engine);
    std::mutex mu;
    std::condition_variable cv;
    bool go = false;
    std::atomic<std::uint64_t> computed{0}, attached{0}, bad{0};
    std::vector<std::thread> threads;
    threads.reserve(kCoalesceClients);
    for (std::size_t i = 0; i < kCoalesceClients; ++i) {
      threads.emplace_back([&] {
        service::TcadClient client =
            service::TcadClient::connect_uds(socket_path);
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return go; });
        }
        const std::string response = issue(client, kCoalesceQuery, expected);
        const std::string source = extract_source(response);
        if (source == "computed") {
          computed.fetch_add(1);
        } else if (source == "coalesced" || source == "memory-cache") {
          attached.fetch_add(1);
        } else {
          bad.fetch_add(1);
        }
      });
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      go = true;
    }
    cv.notify_all();
    for (std::thread& t : threads) t.join();
    // Conservation law: exactly one build, everyone else rode along.
    if (computed.load() == 1 &&
        attached.load() == kCoalesceClients - 1 && bad.load() == 0) {
      c_coalesce_ok.add();
    } else {
      std::fprintf(stderr,
                   "coalesce: computed=%llu attached=%llu bad=%llu\n",
                   static_cast<unsigned long long>(computed.load()),
                   static_cast<unsigned long long>(attached.load()),
                   static_cast<unsigned long long>(bad.load()));
    }
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_t0)
          .count();

  // Server-side counter audit over the protocol.
  std::uint64_t server_requests = 0;
  {
    service::TcadClient client = service::TcadClient::connect_uds(socket_path);
    const std::string response =
        client.call(R"({"op":"counters","id":999999})");
    const service::JsonValue v = service::parse_json(response);
    if (const service::JsonValue* counters = v.find("counters")) {
      server_requests = counters->u64_or("service.requests", 0);
      const std::uint64_t server_ok =
          counters->u64_or("service.requests.ok", 0);
      const std::uint64_t mem_hits = counters->u64_or("service.cache.hit", 0);
      const std::uint64_t coalesced =
          counters->u64_or("service.coalesced", 0);
      // The counters op itself is request #(sent+1) and is counted by the
      // time the snapshot is taken.
      const std::uint64_t sent = c_requests.value();
      const bool requests_match = server_requests == sent + 1;
      const bool ok_match = server_ok == c_ok.value();
      // Every HIT-round response was served from memory; coalesce-phase
      // followers may land as coalesced or late cache hits.
      const bool hits_plausible =
          mem_hits + coalesced >=
          kCannedCount * static_cast<std::uint64_t>(kHitRounds);
      if (requests_match && ok_match && hits_plausible) {
        c_counters_ok.add();
      } else {
        std::fprintf(stderr,
                     "server counters: requests=%llu (sent %llu) ok=%llu "
                     "(want %llu) hits=%llu coalesced=%llu\n",
                     static_cast<unsigned long long>(server_requests),
                     static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(server_ok),
                     static_cast<unsigned long long>(c_ok.value()),
                     static_cast<unsigned long long>(mem_hits),
                     static_cast<unsigned long long>(coalesced));
      }
    }
  }

  // Shut the daemon down and audit the shutdown.
  if (spawn) {
    ::kill(child, SIGTERM);
    int status = 0;
    ::waitpid(child, &status, 0);
    bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (clean) {
      // The daemon's own manifest must carry a PASS clean-shutdown check
      // (zero leaked requests after drain).
      std::ifstream in(server_manifest);
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string doc = ss.str();
      clean = doc.find("\"clean-shutdown\"") != std::string::npos &&
              doc.find("\"status\":\"FAIL\"") == std::string::npos;
    }
    if (clean) {
      c_clean.add();
    } else {
      std::fprintf(stderr, "loadgen_tcad: daemon shutdown was not clean\n");
    }
  } else {
    c_clean.add();  // external server: shutdown is out of scope
  }

  const std::uint64_t total = c_requests.value();
  const double qps = wall_s > 0 ? static_cast<double>(total) / wall_s : 0;
  const std::uint64_t p50 = latencies.percentile(0.50);
  const std::uint64_t p99 = latencies.percentile(0.99);

  std::printf("loadgen_tcad: %llu requests in %.3f s (%.0f qps), "
              "p50 %llu us, p99 %llu us\n",
              static_cast<unsigned long long>(total), wall_s, qps,
              static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p99));

  const bool tally_ok = total == kExpectedRequests &&
                        c_ok.value() == kExpectedRequests;
  const bool pass = tally_ok && c_errors.value() == 0 &&
                    c_mismatch.value() == 0 && c_coalesce_ok.value() == 1 &&
                    c_counters_ok.value() == 1 && c_clean.value() == 1;

  obs::RunManifest manifest;
  manifest.tool = "loadgen_tcad";
  manifest.argv.assign(argv, argv + argc);
  manifest.status = pass ? "PASS" : "FAIL";
  manifest.wall_ms = wall_s * 1000.0;
  manifest.checks.push_back(
      {"request-tally", tally_ok ? "PASS" : "FAIL",
       std::to_string(total) + " requests, " + std::to_string(c_ok.value()) +
           " ok, of " + std::to_string(kExpectedRequests)});
  manifest.checks.push_back(
      {"no-errors", c_errors.value() == 0 ? "PASS" : "FAIL", ""});
  manifest.checks.push_back(
      {"service-vs-library", c_mismatch.value() == 0 ? "PASS" : "FAIL",
       "every response bit-identical to the direct library answer"});
  manifest.checks.push_back(
      {"coalesce-conservation", c_coalesce_ok.value() == 1 ? "PASS" : "FAIL",
       "one build, N-1 riders"});
  manifest.checks.push_back(
      {"server-counters", c_counters_ok.value() == 1 ? "PASS" : "FAIL", ""});
  manifest.checks.push_back(
      {"clean-shutdown", c_clean.value() == 1 ? "PASS" : "FAIL", ""});
  manifest.benchmarks.push_back(
      {"loadgen.request.p50", static_cast<double>(p50), "us", 0, total});
  manifest.benchmarks.push_back(
      {"loadgen.request.p99", static_cast<double>(p99), "us", 0, total});
  manifest.benchmarks.push_back({"loadgen.qps", 0, "s", qps, total});
  manifest.try_write(obs::manifest_path("loadgen_tcad"));

  if (pass && !workdir.empty()) {
    std::error_code ec;  // best effort; a leftover dir is not a failure
    fs::remove_all(workdir, ec);
  }
  std::printf("loadgen_tcad: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
