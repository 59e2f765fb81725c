// Unit tests for the tcad service brain (docs/service.md): canonical
// query keys and digests, the two-tier content-addressed cache (LRU
// order, disk round-trip, quarantine-on-corrupt), the request
// coalescer ("N identical concurrent requests start exactly one engine
// build", counter-asserted), resumable large-n builds under a ckpt dir,
// GoE censuses that keep nothing to resume, and the handler's envelopes.
//
// Every test that touches disk gets its own unique temp directory —
// the suite must stay safe under `ctest -j`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/automaton.hpp"
#include "obs/metrics.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/sharded_build.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/handler.hpp"
#include "service/json_parse.hpp"
#include "service/query.hpp"

namespace tca::service {
namespace {

namespace fs = std::filesystem;

/// Per-test unique directory (pid + test name), removed on destruction.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("tca_service_" + std::to_string(::getpid()) + "_" +
             info->test_suite_name() + "_" + info->name());
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

ServiceQuery query_from(const std::string& json) {
  return ServiceQuery::from_json(parse_json(json));
}

ServiceQuery attractor_query(std::uint32_t n) {
  return query_from(R"({"kind":"attractor-summary","n":)" +
                    std::to_string(n) +
                    R"(,"radius":1,"rule":"majority","topology":"ring"})");
}

// ---------------------------------------------------------------------
// Canonical keys and digests
// ---------------------------------------------------------------------

TEST(QueryDigest, FieldOrderDoesNotMatter) {
  const ServiceQuery a = query_from(
      R"({"kind":"goe-census","n":9,"radius":1,"rule":"parity","topology":"line"})");
  const ServiceQuery b = query_from(
      R"({"topology":"line","rule":"parity","radius":1,"n":9,"kind":"goe-census"})");
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(QueryDigest, ExplicitIdentityOrderCanonicalizesToDefault) {
  // A sweep whose order is spelled out as the identity permutation is the
  // same query as one whose order is omitted.
  const ServiceQuery spelled = query_from(
      R"({"kind":"attractor-summary","n":5,"radius":1,"rule":"majority",)"
      R"("scheme":"sweep","order":[0,1,2,3,4]})");
  const ServiceQuery omitted = query_from(
      R"({"kind":"attractor-summary","n":5,"radius":1,"rule":"majority",)"
      R"("scheme":"sweep"})");
  EXPECT_EQ(spelled.canonical_key(), omitted.canonical_key());
  EXPECT_EQ(spelled.digest(), omitted.digest());
}

TEST(QueryDigest, RuleShorthandMatchesObjectForm) {
  const ServiceQuery shorthand = attractor_query(8);
  const ServiceQuery object = query_from(
      R"({"kind":"attractor-summary","n":8,"radius":1,)"
      R"("rule":{"type":"majority"},"topology":"ring"})");
  EXPECT_EQ(shorthand.canonical_key(), object.canonical_key());
}

TEST(QueryDigest, DistinctQueriesGetDistinctKeys) {
  std::vector<std::string> keys = {
      attractor_query(8).canonical_key(),
      attractor_query(9).canonical_key(),
      query_from(R"({"kind":"transient-depth","n":8,"radius":1,)"
                 R"("rule":"majority","topology":"ring"})")
          .canonical_key(),
      query_from(R"({"kind":"attractor-summary","n":8,"radius":1,)"
                 R"("rule":"majority","topology":"line"})")
          .canonical_key(),
      query_from(R"({"kind":"attractor-summary","n":8,"radius":1,)"
                 R"("rule":"majority1","topology":"ring"})")
          .canonical_key(),
  };
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(QueryDigest, DigestIs16LowercaseHexChars) {
  const std::string digest = attractor_query(8).digest();
  ASSERT_EQ(digest.size(), 16u);
  for (const char c : digest) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << digest;
  }
}

TEST(QueryValidation, RejectsBadQueries) {
  // Ring too small for the radius.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":4,"radius":2,)"
                          R"("rule":"majority","topology":"ring"})"),
               InvalidArgumentError);
  // Sweep order must be a permutation.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":3,"radius":1,)"
                          R"("rule":"majority","scheme":"sweep",)"
                          R"("order":[0,0,1]})"),
               InvalidArgumentError);
  // Synchronous scheme takes no order.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":3,"radius":1,)"
                          R"("rule":"majority","order":[2,1,0]})"),
               InvalidArgumentError);
  // Preimage target out of range.
  EXPECT_THROW(query_from(R"({"kind":"preimage-count","n":4,"radius":1,)"
                          R"("rule":"majority","target":16})"),
               InvalidArgumentError);
  // Explicit-graph query beyond the explicit-state ceiling.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":40,"radius":1,)"
                          R"("rule":"majority","topology":"ring"})"),
               DomainTooLargeError);
}

// ---------------------------------------------------------------------
// Cache: memory tier
// ---------------------------------------------------------------------

TEST(ResultCacheMemory, LruEvictionOrder) {
  ResultCache cache({/*max_entries=*/3, /*disk_dir=*/""});
  const ServiceQuery q5 = attractor_query(5);
  const ServiceQuery q6 = attractor_query(6);
  const ServiceQuery q7 = attractor_query(7);
  const ServiceQuery q8 = attractor_query(8);

  cache.insert(q5, "{\"a\":5}");
  cache.insert(q6, "{\"a\":6}");
  cache.insert(q7, "{\"a\":7}");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.keys_by_recency(),
            (std::vector<std::string>{q7.canonical_key(), q6.canonical_key(),
                                      q5.canonical_key()}));

  // Touch q5: it becomes most recent, so q6 is now the eviction victim.
  ASSERT_TRUE(cache.lookup(q5).has_value());
  cache.insert(q8, "{\"a\":8}");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.keys_by_recency(),
            (std::vector<std::string>{q8.canonical_key(), q5.canonical_key(),
                                      q7.canonical_key()}));
  EXPECT_FALSE(cache.lookup(q6).has_value());
  const auto hit = cache.lookup(q5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result_json, "{\"a\":5}");
  EXPECT_EQ(hit->tier, CacheTier::kMemory);
}

TEST(ResultCacheMemory, InsertRefreshesExistingEntry) {
  ResultCache cache({2, ""});
  const ServiceQuery q5 = attractor_query(5);
  cache.insert(q5, "{\"v\":1}");
  cache.insert(q5, "{\"v\":2}");
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(q5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result_json, "{\"v\":2}");
}

// ---------------------------------------------------------------------
// Cache: disk tier
// ---------------------------------------------------------------------

TEST(ResultCacheDisk, RoundTripThroughAFreshCache) {
  const TempDir dir;
  const ServiceQuery q = attractor_query(6);
  {
    ResultCache writer({8, dir.str()});
    writer.insert(q, "{\"answer\":42}");
  }
  // A fresh cache has a cold memory tier; the hit must come from disk and
  // be promoted into memory.
  ResultCache reader({8, dir.str()});
  const auto first = reader.lookup(q);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->result_json, "{\"answer\":42}");
  EXPECT_EQ(first->tier, CacheTier::kDisk);
  const auto second = reader.lookup(q);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tier, CacheTier::kMemory);
}

TEST(ResultCacheDisk, CorruptEntryIsQuarantinedNotServed) {
  const TempDir dir;
  const ServiceQuery q = attractor_query(6);
  std::string path;
  {
    ResultCache writer({8, dir.str()});
    writer.insert(q, "{\"answer\":42}");
    path = writer.disk_path(q);
  }
  ASSERT_TRUE(fs::exists(path));
  // Flip one payload byte (the checkpoint checksum must catch it).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    char c = 0;
    f.read(&c, 1);
    f.seekp(-3, std::ios::end);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
  }
  ResultCache reader({8, dir.str()});
  EXPECT_FALSE(reader.lookup(q).has_value());
  EXPECT_FALSE(fs::exists(path)) << "corrupt file must not stay in place";
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  // The quarantined file is out of the lookup path: still a miss, and no
  // crash on repeat lookups.
  EXPECT_FALSE(reader.lookup(q).has_value());
}

TEST(ResultCacheDisk, EmbeddedKeyMismatchIsQuarantined) {
  const TempDir dir;
  const ServiceQuery q6 = attractor_query(6);
  const ServiceQuery q7 = attractor_query(7);
  ResultCache cache({8, dir.str()});
  cache.insert(q6, "{\"answer\":6}");
  // Simulate a digest collision: q7's slot filled with q6's entry.
  fs::copy_file(cache.disk_path(q6), cache.disk_path(q7));
  ResultCache reader({8, dir.str()});
  EXPECT_FALSE(reader.lookup(q7).has_value());
  EXPECT_TRUE(fs::exists(cache.disk_path(q7) + ".quarantined"));
}

// ---------------------------------------------------------------------
// Coalescing: N identical concurrent requests -> exactly one build
// ---------------------------------------------------------------------

TEST(Coalescing, ConcurrentIdenticalRequestsStartOneBuild) {
  const TempDir dir;
  HandlerOptions options;
  options.cache.disk_dir = "";  // memory only: the engine must be the
                                // only thing that can satisfy a miss
  RequestHandler handler(options);

  const std::string request =
      R"({"op":"query","id":1,"query":{"kind":"attractor-summary","n":12,)"
      R"("radius":1,"rule":"majority","topology":"ring"}})";

  constexpr std::size_t kThreads = 8;
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::string> sources(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string response = handler.handle(request);
      const JsonValue v = parse_json(response);
      if (v.string_or("status", "") == "ok") ok.fetch_add(1);
      sources[i] = v.string_or("source", "");
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok.load(), kThreads);
  // The counter-asserted invariant: one engine build, total.
  EXPECT_EQ(handler.engine().builds_started(), 1u);
  std::size_t computed = 0;
  for (const std::string& s : sources) {
    EXPECT_TRUE(s == "computed" || s == "coalesced" || s == "memory-cache")
        << s;
    if (s == "computed") ++computed;
  }
  EXPECT_EQ(computed, 1u);
  EXPECT_EQ(handler.active_requests(), 0u);
}

TEST(Coalescing, LateJoinerAfterTheLeaderLeftStartsNoSecondBuild) {
  // A request whose cache lookup misses just before the leader caches its
  // result, and whose join_or_lead runs just after the leader has left
  // the coalescer, must still not build again. A tiny query keeps each
  // build short and 16 threads per round oversubscribe the cores, so
  // some of the 1000 rounds land a thread in that window.
  const std::string request =
      R"({"op":"query","id":1,"query":{"kind":"attractor-summary","n":5,)"
      R"("radius":1,"rule":"majority","topology":"ring"}})";
  constexpr std::size_t kThreads = 16;
  for (int round = 0; round < 1000; ++round) {
    HandlerOptions options;
    options.cache.disk_dir = "";
    RequestHandler handler(options);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] { (void)handler.handle(request); });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(handler.engine().builds_started(), 1u) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// Resumable large-n builds
// ---------------------------------------------------------------------

/// The answer of an engine without a ckpt dir: the reference every
/// resumed or checkpointed answer must match byte for byte.
std::string fresh_answer(const ServiceQuery& q) {
  QueryEngine engine{EngineOptions{}};
  const QueryOutcome out = engine.execute(q, RequestBudget{}, {});
  EXPECT_TRUE(out.ok()) << out.error;
  return out.result.to_json();
}

TEST(EngineResume, TruncatedBuildResumesToTheFreshAnswer) {
  const TempDir dir;
  EngineOptions options;
  options.ckpt_dir = dir.str() + "/ckpt";
  QueryEngine engine(options);
  const ServiceQuery q = attractor_query(20);
  obs::Counter& resumed = obs::counter("service.resume.resumed");

  RequestBudget budget;
  budget.max_states = 300000;
  const QueryOutcome cut = engine.execute(q, budget, {});
  ASSERT_EQ(cut.status, QueryOutcome::Status::kTruncated) << cut.error;
  EXPECT_EQ(cut.stop_reason, runtime::StopReason::kMaxStates);
  EXPECT_EQ(cut.states_total, std::uint64_t{1} << 20);
  // Only whole stored shards count: what the resume will skip.
  const phasespace::StateCode shard =
      phasespace::ShardedBuildOptions{}.shard_states;
  EXPECT_GT(cut.states_done, 0u);
  EXPECT_LE(cut.states_done, budget.max_states);
  EXPECT_EQ(cut.states_done % shard, 0u);

  const std::uint64_t resumed_before = resumed.value();
  const QueryOutcome full = engine.execute(q, RequestBudget{}, {});
  ASSERT_TRUE(full.ok()) << full.error;
  EXPECT_TRUE(full.resumed);
  EXPECT_EQ(resumed.value(), resumed_before + 1);
  EXPECT_EQ(full.result.to_json(), fresh_answer(q));
  EXPECT_FALSE(fs::exists(fs::path(options.ckpt_dir) / "store" / q.digest()));
}

TEST(EngineResume, ForeignExtentsUnderTheDigestAreWipedNotResumed) {
  const TempDir dir;
  EngineOptions options;
  options.ckpt_dir = dir.str() + "/ckpt";
  QueryEngine engine(options);
  const ServiceQuery q = attractor_query(18);
  const ServiceQuery other = query_from(
      R"({"kind":"attractor-summary","n":18,"radius":1,"rule":"parity",)"
      R"("topology":"ring"})");
  const fs::path store = fs::path(options.ckpt_dir) / "store";

  // Leave three of `other`'s four shards on disk, then move them under
  // q's digest: what a 64-bit digest collision would look like.
  RequestBudget budget;
  budget.max_states = 200000;
  ASSERT_EQ(engine.execute(other, budget, {}).status,
            QueryOutcome::Status::kTruncated);
  fs::rename(store / other.digest(), store / q.digest());

  obs::Counter& resumed = obs::counter("service.resume.resumed");
  const std::uint64_t resumed_before = resumed.value();
  const QueryOutcome out = engine.execute(q, RequestBudget{}, {});
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_FALSE(out.resumed);
  EXPECT_EQ(resumed.value(), resumed_before);
  EXPECT_EQ(out.result.to_json(), fresh_answer(q));
}

// Builds at or below small_n_bits never spill resumable extents, even
// with a ckpt dir: truncated or complete, they leave nothing under
// ckpt_dir/store/, and they answer exactly like a no-ckpt engine.
TEST(EngineSmallN, SmallBuildsLeaveNothingUnderTheCkptDir) {
  const TempDir dir;
  EngineOptions options;
  options.ckpt_dir = dir.str() + "/ckpt";
  QueryEngine engine(options);
  const fs::path store = fs::path(options.ckpt_dir) / "store";
  const auto spilled = [&] {
    std::error_code ec;
    return fs::exists(store, ec) && !fs::is_empty(store, ec);
  };
  for (const std::uint32_t n : {10u, options.small_n_bits}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const ServiceQuery q = attractor_query(n);
    RequestBudget budget;
    budget.max_states = 100;
    const QueryOutcome cut = engine.execute(q, budget, {});
    ASSERT_EQ(cut.status, QueryOutcome::Status::kTruncated) << cut.error;
    EXPECT_EQ(cut.states_done, 0u) << "nothing is kept for a resume";
    EXPECT_FALSE(spilled());

    const QueryOutcome full = engine.execute(q, RequestBudget{}, {});
    ASSERT_TRUE(full.ok()) << full.error;
    EXPECT_FALSE(full.resumed);
    EXPECT_EQ(full.result.to_json(), fresh_answer(q));
    EXPECT_FALSE(spilled());
  }
}

// GoE censuses keep no table: with a ckpt dir and above small_n_bits, of
// either scheme, truncated or complete, they spill nothing under
// ckpt_dir/store/, resume nothing, and answer what classify counts.
TEST(EngineGoeCensus, NeitherSchemeSpillsOrResumes) {
  const TempDir dir;
  EngineOptions options;
  options.ckpt_dir = dir.str() + "/ckpt";
  QueryEngine engine(options);
  const fs::path store = fs::path(options.ckpt_dir) / "store";
  const auto spilled = [&] {
    std::error_code ec;
    return fs::exists(store, ec) && !fs::is_empty(store, ec);
  };
  for (const char* json : {
           R"({"kind":"goe-census","n":18,"radius":1,"rule":"majority",)"
           R"("topology":"ring"})",
           R"({"kind":"goe-census","n":18,"radius":2,"rule":"parity",)"
           R"("topology":"line","scheme":"sweep"})",
       }) {
    SCOPED_TRACE(json);
    const ServiceQuery q = query_from(json);
    ASSERT_GT(q.n, options.small_n_bits);
    RequestBudget budget;
    budget.max_states = 100000;
    const QueryOutcome cut = engine.execute(q, budget, {});
    ASSERT_EQ(cut.status, QueryOutcome::Status::kTruncated) << cut.error;
    EXPECT_EQ(cut.stop_reason, runtime::StopReason::kMaxStates);
    EXPECT_EQ(cut.states_done, 0u) << "nothing is kept for a resume";
    EXPECT_FALSE(spilled());

    const QueryOutcome full = engine.execute(q, RequestBudget{}, {});
    ASSERT_TRUE(full.ok()) << full.error;
    EXPECT_FALSE(full.resumed);
    EXPECT_FALSE(spilled());
    const core::Automaton a = q.automaton();
    const phasespace::FunctionalGraph fg =
        q.scheme == Scheme::kSweep
            ? phasespace::FunctionalGraph::sweep(a, q.effective_order())
            : phasespace::FunctionalGraph::synchronous(a);
    EXPECT_EQ(full.result.gardens,
              phasespace::classify(fg).num_gardens_of_eden);
    EXPECT_EQ(full.result.scanned, fg.num_states());
  }
}

// ---------------------------------------------------------------------
// Handler error envelope
// ---------------------------------------------------------------------

TEST(Handler, MalformedRequestsBecomeErrorResponses) {
  RequestHandler handler(HandlerOptions{});
  for (const char* bad : {
           "not json at all",
           "{}",
           R"({"op":"launch-missiles","id":1})",
           R"({"op":"query","id":1})",
           R"({"op":"query","id":1,"query":{"kind":"attractor-summary"}})",
       }) {
    const std::string response = handler.handle(bad);
    const JsonValue v = parse_json(response);
    EXPECT_EQ(v.string_or("status", ""), "error") << bad;
    EXPECT_NE(v.find("error"), nullptr) << bad;
  }
  EXPECT_EQ(handler.active_requests(), 0u);
}

// A truncated answer claims "resumable" only when a resumable kDisk build
// kept whole shards. Without a ckpt dir nothing is kept, whatever the
// query kind, so states_done is 0.
TEST(Handler, TruncatedAnswersWithoutCkptDirAreNotResumable) {
  RequestHandler handler(HandlerOptions{});
  for (const std::string kind : {"attractor-summary", "goe-census"}) {
    const std::string response = handler.handle(
        R"({"op":"query","id":1,"query":{"kind":")" + kind +
        R"(","n":20,"radius":1,"rule":"majority","topology":"ring"},)"
        R"("budget":{"max_states":300000}})");
    const JsonValue v = parse_json(response);
    ASSERT_EQ(v.string_or("status", ""), "truncated") << response;
    EXPECT_EQ(v.u64_or("states_done", 1), 0u) << response;
    EXPECT_FALSE(v.bool_or("resumable", true)) << response;
  }
}

TEST(Handler, CachedAnswerIsBitIdenticalToComputedAnswer) {
  RequestHandler handler(HandlerOptions{});
  const std::string request =
      R"({"op":"query","id":7,"query":{"kind":"transient-depth","n":8,)"
      R"("radius":1,"rule":"majority","topology":"ring"}})";
  const std::string first = handler.handle(request);
  const std::string second = handler.handle(request);
  const JsonValue v1 = parse_json(first);
  const JsonValue v2 = parse_json(second);
  EXPECT_EQ(v1.string_or("source", ""), "computed");
  EXPECT_EQ(v2.string_or("source", ""), "memory-cache");
  // Identical modulo the source tag: compare the result payloads.
  const auto result_of = [](const std::string& s) {
    const std::size_t pos = s.find("\"result\":");
    return pos == std::string::npos ? std::string()
                                    : s.substr(pos, s.size() - pos - 1);
  };
  EXPECT_EQ(result_of(first), result_of(second));
  EXPECT_NE(result_of(first), "");
}

}  // namespace
}  // namespace tca::service
