#include "obs/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "core/annotations.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace tca::obs {
namespace {

std::atomic<std::uint8_t> g_min_level{
    static_cast<std::uint8_t>(LogLevel::kInfo)};

tca::Mutex g_sink_mutex;
LogSink& sink_slot() TCA_REQUIRES(g_sink_mutex) {
  static LogSink* sink = new LogSink();  // empty == default stderr sink
  return *sink;
}

void default_sink(const LogRecord& record) {
  const std::string line = render_jsonl(record);
  // This IS the terminal sink every structured event in src/ funnels
  // into; everything else must call log_event().
  std::fprintf(stderr, "%s\n", line.c_str());
}

Counter& level_counter(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: {
      static Counter& c = counter("log.events.debug");
      return c;
    }
    case LogLevel::kInfo: {
      static Counter& c = counter("log.events.info");
      return c;
    }
    case LogLevel::kWarn: {
      static Counter& c = counter("log.events.warn");
      return c;
    }
    case LogLevel::kError:
    default: {
      static Counter& c = counter("log.events.error");
      return c;
    }
  }
}

}  // namespace

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "unknown";
}

std::string render_jsonl(const LogRecord& record) {
  JsonWriter w;
  w.begin_object()
      .kv("ts_ms", record.unix_ms)
      .kv("level", log_level_name(record.level))
      .kv("event", record.event);
  w.key("fields").begin_object();
  for (const LogField& f : record.fields) {
    w.key(f.key);
    std::visit([&w](const auto& v) { w.value(v); }, f.value);
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

void log_event(LogLevel level, std::string_view event,
               std::vector<LogField> fields) {
  if (static_cast<std::uint8_t>(level) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  level_counter(level).add();
  LogRecord record;
  record.level = level;
  record.event = std::string(event);
  record.fields = std::move(fields);
  record.unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const tca::LockGuard lock(g_sink_mutex);
  if (sink_slot()) {
    sink_slot()(record);
  } else {
    default_sink(record);
  }
}

void set_min_log_level(LogLevel level) noexcept {
  g_min_level.store(static_cast<std::uint8_t>(level),
                    std::memory_order_relaxed);
}

LogLevel min_log_level() noexcept {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

ScopedLogSink::ScopedLogSink(LogSink sink) {
  const tca::LockGuard lock(g_sink_mutex);
  previous_ = std::move(sink_slot());
  sink_slot() = std::move(sink);
}

ScopedLogSink::~ScopedLogSink() {
  const tca::LockGuard lock(g_sink_mutex);
  sink_slot() = std::move(previous_);
}

}  // namespace tca::obs
