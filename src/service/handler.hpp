#pragma once
// Transport-independent request handling for tcad (docs/service.md).
//
// One RequestHandler owns the full service brain — result cache,
// request coalescer, query engine — and maps a request JSON document to a
// response JSON document. The socket server (service/server.hpp) and the
// in-process tests/oracles drive the SAME object, which is what lets the
// service-vs-library PBT oracle assert bit-identical answers without
// standing up sockets.
//
// Request flow for op=query:
//   1. parse + canonicalize (service/query.hpp);
//   2. cache lookup — memory then disk ("source": "memory-cache" /
//      "disk-cache");
//   3. coalesce — identical concurrent queries attach to the in-flight
//      leader ("source": "coalesced");
//   4. the leader computes via QueryEngine, publishes to followers, and
//      inserts COMPLETE results into the cache ("source": "computed").
//      Truncated or failed outcomes are never cached — a later request
//      with a larger budget must be able to finish the job (and can,
//      via the resume checkpoints).
//
// Counters: service.requests, service.requests.{ok,truncated,error},
// plus the cache/coalescer/engine families documented in their headers.
// Latency lands in service.request_us.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/budget.hpp"
#include "service/cache.hpp"
#include "service/coalesce.hpp"
#include "service/engine.hpp"

namespace tca::service {

/// Protocol revision reported in every response and in the manifest.
inline constexpr std::uint32_t kProtocolVersion = 1;

struct HandlerOptions {
  CacheOptions cache;
  EngineOptions engine;
};

class RequestHandler {
 public:
  explicit RequestHandler(HandlerOptions options);

  RequestHandler(const RequestHandler&) = delete;
  RequestHandler& operator=(const RequestHandler&) = delete;

  /// Handles one request document and returns the response document.
  /// Never throws: malformed requests become {"status":"error",...}
  /// responses. `token` cancels the compute cooperatively (server
  /// shutdown); pass a default token for in-process use.
  [[nodiscard]] std::string handle(const std::string& request_json,
                                   runtime::CancelToken token = {});

  /// Requests currently inside handle() (the zero-leaked-requests check
  /// at shutdown: must be 0 after the listener drains).
  [[nodiscard]] std::uint64_t active_requests() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] QueryEngine& engine() noexcept { return engine_; }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }

 private:
  std::string handle_query(const JsonValue& request, std::uint64_t id,
                           runtime::CancelToken token);

  ResultCache cache_;
  Coalescer coalescer_;
  QueryEngine engine_;
  std::atomic<std::uint64_t> active_{0};
};

}  // namespace tca::service
