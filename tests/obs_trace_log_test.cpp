// Trace spans (src/obs/trace.hpp) and the structured log sink
// (src/obs/log.hpp), including the end-to-end path the observability issue
// called out: ThreadPool spawn degradation must surface as a counter plus
// a structured warning event instead of a raw fprintf. Labeled
// `sanitizer;faultinject` — the spawn-degrade case uses the fault plan,
// and the span recorder must stay clean under tsan.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/thread_pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/fault.hpp"

namespace tca::obs {
namespace {

TEST(Trace, SpansRecordWhileTracingIsOn) {
  start_tracing();
  {
    TCA_SPAN("outer_span");
    TCA_SPAN("inner_span");
  }
  stop_tracing();
  EXPECT_EQ(trace_event_count(), 2u);
  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("outer_span"), std::string::npos);
  EXPECT_NE(json.find("inner_span"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  clear_trace();
}

TEST(Trace, NoEventsWhenTracingIsOff) {
  clear_trace();
  ASSERT_FALSE(tracing_enabled());
  {
    TCA_SPAN("invisible");
  }
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(Trace, NestedSpansCarryDepth) {
  start_tracing();
  {
    TCA_SPAN("depth_outer");
    {
      TCA_SPAN("depth_inner");
    }
  }
  stop_tracing();
  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"depth\":0"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
  clear_trace();
}

TEST(Trace, ConcurrentSpansAllRecorded) {
  start_tracing();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TCA_SPAN("worker_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  stop_tracing();
  EXPECT_EQ(trace_event_count(), kThreads * kSpansPerThread);
  clear_trace();
}

TEST(Trace, WriteChromeTraceProducesFile) {
  start_tracing();
  {
    TCA_SPAN("exported_span");
  }
  stop_tracing();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tca_obs_trace_test_" + std::to_string(::getpid()) + ".json"))
          .string();
  write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("exported_span"), std::string::npos);
  std::filesystem::remove(path);
  clear_trace();
}

TEST(Log, ScopedSinkCapturesRecords) {
  std::vector<LogRecord> captured;
  std::mutex mutex;
  {
    ScopedLogSink sink([&](const LogRecord& r) {
      const std::lock_guard<std::mutex> lock(mutex);
      captured.push_back(r);
    });
    log_event(LogLevel::kWarn, "test.event",
              {{"name", "value"}, {"count", 7}, {"ratio", 0.5}, {"ok", true}});
  }
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].level, LogLevel::kWarn);
  EXPECT_EQ(captured[0].event, "test.event");
  ASSERT_EQ(captured[0].fields.size(), 4u);
  EXPECT_EQ(captured[0].fields[0].key, "name");
  EXPECT_GT(captured[0].unix_ms, 0u);
}

TEST(Log, RenderJsonlShapesTheRecord) {
  LogRecord r;
  r.level = LogLevel::kError;
  r.event = "render.test";
  r.unix_ms = 1234;
  r.fields.push_back({"text", "needs \"escaping\"\n"});
  r.fields.push_back({"n", 42});
  const std::string line = render_jsonl(r);
  EXPECT_NE(line.find("\"ts_ms\":1234"), std::string::npos);
  EXPECT_NE(line.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"render.test\""), std::string::npos);
  EXPECT_NE(line.find("needs \\\"escaping\\\"\\n"), std::string::npos);
  EXPECT_NE(line.find("\"n\":42"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "rendered record must be a single line";
}

TEST(Log, MinLevelFiltersBelow) {
  std::vector<LogRecord> captured;
  ScopedLogSink sink([&](const LogRecord& r) { captured.push_back(r); });
  ASSERT_EQ(min_log_level(), LogLevel::kInfo);
  log_event(LogLevel::kDebug, "test.dropped");
  EXPECT_TRUE(captured.empty());
  set_min_log_level(LogLevel::kError);
  log_event(LogLevel::kWarn, "test.also_dropped");
  EXPECT_TRUE(captured.empty());
  log_event(LogLevel::kError, "test.kept");
  EXPECT_EQ(captured.size(), 1u);
  set_min_log_level(LogLevel::kInfo);
}

TEST(Log, EventsBumpTheLevelCounter) {
  ScopedLogSink sink([](const LogRecord&) {});
  Counter& warns = counter("log.events.warn");
  const std::uint64_t before = warns.value();
  log_event(LogLevel::kWarn, "test.counted");
  EXPECT_EQ(warns.value(), before + 1);
}

// The issue's satellite: spawn degradation routes through the structured
// sink with a counter tests can assert on — no more raw stderr.
TEST(Log, ThreadPoolSpawnDegradeEmitsCounterAndEvent) {
  std::vector<LogRecord> captured;
  std::mutex mutex;
  ScopedLogSink sink([&](const LogRecord& r) {
    const std::lock_guard<std::mutex> lock(mutex);
    captured.push_back(r);
  });
  Counter& degraded = counter("thread_pool.spawn_degraded");
  const std::uint64_t before = degraded.value();
  runtime::ScopedFaultPlan plan({.fail_thread_spawn = true});
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(degraded.value(), before + 1);
  bool found = false;
  for (const LogRecord& r : captured) {
    if (r.event != "thread_pool.spawn_degraded") continue;
    found = true;
    EXPECT_EQ(r.level, LogLevel::kWarn);
    bool has_requested = false;
    for (const LogField& f : r.fields) {
      if (f.key == "requested_workers") has_requested = true;
    }
    EXPECT_TRUE(has_requested);
  }
  EXPECT_TRUE(found) << "expected a thread_pool.spawn_degraded warn event";
}

}  // namespace
}  // namespace tca::obs
