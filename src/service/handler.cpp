#include "service/handler.hpp"

#include <chrono>
#include <exception>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/error.hpp"
#include "service/json_parse.hpp"

namespace tca::service {
namespace {

/// Uniform error response body.
std::string error_response(std::uint64_t id, ErrorCode code,
                           const std::string& message) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("v", kProtocolVersion);
  w.kv("id", id);
  w.kv("status", "error");
  w.key("error").begin_object();
  w.kv("code", error_code_name(code));
  w.kv("message", message);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::string query_response(std::uint64_t id, const char* source,
                           const std::string& result_json) {
  // result_json is a pre-rendered JSON object (QueryResult::to_json or a
  // cached copy of one); splice it in verbatim.
  obs::JsonWriter w;
  w.begin_object();
  w.kv("v", kProtocolVersion);
  w.kv("id", id);
  w.kv("status", "ok");
  w.kv("source", source);
  w.end_object();
  std::string out = std::move(w).str();
  out.insert(out.size() - 1, ",\"result\":" + result_json);
  return out;
}

std::string truncated_response(std::uint64_t id, const QueryOutcome& outcome) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("v", kProtocolVersion);
  w.kv("id", id);
  w.kv("status", "truncated");
  w.kv("stop_reason", runtime::stop_reason_name(outcome.stop_reason));
  w.kv("states_done", outcome.states_done);
  w.kv("states_total", outcome.states_total);
  w.kv("resumable", outcome.states_done > 0);
  w.end_object();
  return std::move(w).str();
}

RequestBudget parse_budget(const JsonValue& request) {
  RequestBudget budget;
  if (const JsonValue* b = request.find("budget");
      b != nullptr && !b->is_null()) {
    budget.max_states =
        b->u64_or("max_states", runtime::RunBudget::kUnlimited);
    budget.wall_ms = b->u64_or("wall_ms", 0);
  }
  return budget;
}

}  // namespace

RequestHandler::RequestHandler(HandlerOptions options)
    : cache_(options.cache), engine_(options.engine) {}

std::string RequestHandler::handle(const std::string& request_json,
                                   runtime::CancelToken token) {
  TCA_SPAN("service_request");
  static obs::Counter& requests = obs::counter("service.requests");
  static obs::Histogram& latency_us = obs::histogram(
      "service.request_us", obs::default_latency_bounds_us());

  const auto t0 = std::chrono::steady_clock::now();
  requests.add();
  active_.fetch_add(1, std::memory_order_relaxed);
  std::string response;
  std::uint64_t id = 0;
  try {
    const JsonValue request = parse_json(request_json);
    if (!request.is_object()) {
      throw InvalidArgumentError("request frame must be a JSON object");
    }
    id = request.u64_or("id", 0);
    const std::string op = request.string_or("op", "query");
    if (op == "ping") {
      obs::JsonWriter w;
      w.begin_object();
      w.kv("v", kProtocolVersion);
      w.kv("id", id);
      w.kv("status", "ok");
      w.kv("op", "ping");
      w.end_object();
      response = std::move(w).str();
    } else if (op == "counters") {
      // A live counter snapshot (the full manifest is written at
      // shutdown); loadgen diffs these against its baseline.
      const obs::MetricsSnapshot snap = obs::snapshot_metrics();
      obs::JsonWriter w;
      w.begin_object();
      w.kv("v", kProtocolVersion);
      w.kv("id", id);
      w.kv("status", "ok");
      w.key("counters").begin_object();
      for (const auto& [name, value] : snap.counters) w.kv(name, value);
      w.end_object();
      w.key("gauges").begin_object();
      for (const auto& [name, value] : snap.gauges) {
        w.kv(name, static_cast<std::int64_t>(value));
      }
      w.end_object();
      w.end_object();
      response = std::move(w).str();
    } else if (op == "query") {
      response = handle_query(request, id, std::move(token));
    } else {
      throw InvalidArgumentError("unknown op '" + op + "'");
    }
  } catch (const tca::Error& e) {
    const auto& ex = dynamic_cast<const std::exception&>(e);
    response = error_response(id, e.code(), ex.what());
  } catch (const std::exception& e) {
    response = error_response(id, ErrorCode::kUnknown, e.what());
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  latency_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return response;
}

std::string RequestHandler::handle_query(const JsonValue& request,
                                         std::uint64_t id,
                                         runtime::CancelToken token) {
  static obs::Counter& ok_count = obs::counter("service.requests.ok");
  static obs::Counter& truncated_count =
      obs::counter("service.requests.truncated");
  static obs::Counter& error_count = obs::counter("service.requests.error");

  const JsonValue* query_obj = request.find("query");
  if (query_obj == nullptr) {
    throw InvalidArgumentError("request has no 'query' object");
  }
  const ServiceQuery query = ServiceQuery::from_json(*query_obj);
  const RequestBudget budget = parse_budget(request);

  // 1. Cache.
  if (std::optional<CacheHit> hit = cache_.lookup(query)) {
    ok_count.add();
    return query_response(id,
                          hit->tier == CacheTier::kMemory ? "memory-cache"
                                                          : "disk-cache",
                          hit->result_json);
  }

  // 2. Coalesce. Followers reuse the leader's full response body (their
  // id is substituted by re-rendering; simpler: followers get the shared
  // result JSON with their own envelope).
  const std::string key = query.canonical_key();
  if (std::shared_ptr<const CoalescedResult> shared =
          coalescer_.join_or_lead(key)) {
    if (!shared->ok) {
      error_count.add();
      return error_response(id, shared->error_code,
                            "coalesced request failed: " + shared->error);
    }
    ok_count.add();
    return query_response(id, "coalesced", shared->response_json);
  }

  // 3. Leader: compute, publish, cache. The guard guarantees followers
  // are released even if the engine throws something unexpected.
  LeaderGuard guard(coalescer_, key);
  CoalescedResult publish;
  // A leader that finished between this request's cache miss and its
  // join_or_lead cached the result before leaving the coalescer: serve
  // that instead of building it a second time.
  if (std::optional<std::string> cached = cache_.peek(key)) {
    publish.ok = true;
    publish.response_json = *cached;
    guard.publish(std::move(publish));
    ok_count.add();
    return query_response(id, "memory-cache", *cached);
  }
  const QueryOutcome outcome = engine_.execute(query, budget, std::move(token));
  if (outcome.ok()) {
    const std::string result_json = outcome.result.to_json();
    cache_.insert(query, result_json);
    publish.ok = true;
    publish.response_json = result_json;
    guard.publish(std::move(publish));
    ok_count.add();
    return query_response(id, "computed", result_json);
  }
  if (outcome.status == QueryOutcome::Status::kTruncated) {
    publish.error_code = ErrorCode::kBudgetExhausted;
    publish.error = std::string("truncated: ") +
                    runtime::stop_reason_name(outcome.stop_reason);
    guard.publish(std::move(publish));
    truncated_count.add();
    return truncated_response(id, outcome);
  }
  publish.error_code = outcome.error_code;
  publish.error = outcome.error;
  guard.publish(std::move(publish));
  error_count.add();
  return error_response(id, outcome.error_code, outcome.error);
}

}  // namespace tca::service
