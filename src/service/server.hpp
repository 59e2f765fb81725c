#pragma once
// The tcad socket server (docs/service.md).
//
// Listens on a Unix-domain socket (always) and an optional loopback TCP
// port, accepts connections on a dedicated thread, and serves them from a
// small worker pool. Each connection carries length-prefixed JSON frames
// (service/protocol.hpp); each frame is handled by the shared
// RequestHandler, so every connection sees the same cache, coalescer, and
// engine.
//
// Shutdown discipline (the "zero leaked requests" guarantee the
// service_smoke test checks): stop() closes the listeners, cancels the
// server-wide CancelToken (in-flight engine work stops at its next
// cooperative check and is reported truncated), shuts down every open
// connection socket so blocked reads return, then joins all threads.
// After stop() returns, handler().active_requests() == 0 — there is no
// path that leaves a request in flight.
//
// Counters: service.connections, service.conn_errors.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "runtime/budget.hpp"
#include "service/handler.hpp"

namespace tca::service {

struct ServerOptions {
  /// Unix-domain socket path (required). An existing socket file at this
  /// path is unlinked on start.
  std::string uds_path = "tcad.sock";
  /// Optional loopback TCP listener; 0 disables, any other value binds
  /// 127.0.0.1:<port> (port 0 via tcp_enabled below).
  std::uint16_t tcp_port = 0;
  /// Bind the TCP listener even when tcp_port == 0 (ephemeral port,
  /// readable via TcadServer::tcp_port()).
  bool tcp_enabled = false;
  /// Worker threads serving accepted connections.
  std::uint32_t num_workers = 2;
  HandlerOptions handler;
};

class TcadServer {
 public:
  explicit TcadServer(ServerOptions options);
  ~TcadServer();

  TcadServer(const TcadServer&) = delete;
  TcadServer& operator=(const TcadServer&) = delete;

  /// Binds, listens, and spawns the accept + worker threads. Throws
  /// tca::RuntimeError(kIo) when a socket cannot be bound.
  void start();

  /// Graceful shutdown (idempotent; see header comment).
  void stop();

  [[nodiscard]] const std::string& uds_path() const noexcept {
    return options_.uds_path;
  }
  /// Actual bound TCP port (0 when TCP is off). Valid after start().
  [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  [[nodiscard]] RequestHandler& handler() noexcept { return handler_; }

  /// The token handed to every request (cancelled by stop()).
  [[nodiscard]] runtime::CancelToken token() const { return token_; }

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);

  ServerOptions options_;
  RequestHandler handler_;
  runtime::CancelToken token_;
  std::uint16_t tcp_port_ = 0;

  int uds_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;

  std::vector<std::thread> threads_;

  mutable Mutex mu_;
  CondVar cv_;
  bool stopping_ TCA_GUARDED_BY(mu_) = false;
  bool started_ TCA_GUARDED_BY(mu_) = false;
  std::vector<int> pending_fds_ TCA_GUARDED_BY(mu_);  ///< accepted, unserved
  std::vector<int> active_fds_ TCA_GUARDED_BY(mu_);   ///< being served
};

}  // namespace tca::service
