// tcad — phase-space-as-a-service daemon (docs/service.md).
//
// Serves attractor-summary / transient-depth / goe-census / preimage-count
// queries over a Unix-domain socket (and optional loopback TCP) with
// content-addressed caching, request coalescing, and supervised
// checkpoint-backed computation. Runs until SIGTERM/SIGINT, then shuts
// down gracefully and writes a schema-versioned run manifest whose
// clean-shutdown check the service_smoke test requires to PASS.
//
// Usage:
//   tcad [--socket PATH] [--tcp PORT | --tcp-ephemeral] [--cache-dir DIR]
//        [--ckpt-dir DIR] [--cache-entries N] [--workers N]
//        [--ready-file PATH] [--manifest PATH]
//
// --ready-file is written AFTER the listeners are up: first line the
// socket path, second line the bound TCP port (0 when off). Scripts wait
// on its existence instead of sleeping.

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "service/server.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void tcad_on_signal(int) {
  const char byte = 1;
  // Async-signal-safe wakeup; the return value is irrelevant (the pipe
  // being full still means a wakeup is already pending).
  [[maybe_unused]] const ssize_t r = ::write(g_signal_pipe[1], &byte, 1);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    tca::obs::log_event(tca::obs::LogLevel::kError, "tcad.bad_flag",
                        {{"flag", flag}, {"value", text}});
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tca;

  service::ServerOptions options;
  options.uds_path = "tcad.sock";
  std::string ready_file;
  std::string manifest_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        obs::log_event(obs::LogLevel::kError, "tcad.bad_flag",
                       {{"flag", arg}, {"value", "(missing)"}});
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.uds_path = next();
    } else if (arg == "--tcp") {
      options.tcp_port = static_cast<std::uint16_t>(parse_u64(arg, next()));
      options.tcp_enabled = true;
    } else if (arg == "--tcp-ephemeral") {
      options.tcp_enabled = true;
    } else if (arg == "--cache-dir") {
      options.handler.cache.disk_dir = next();
    } else if (arg == "--ckpt-dir") {
      options.handler.engine.ckpt_dir = next();
    } else if (arg == "--cache-entries") {
      options.handler.cache.max_entries =
          static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (arg == "--workers") {
      options.num_workers = static_cast<std::uint32_t>(parse_u64(arg, next()));
    } else if (arg == "--ready-file") {
      ready_file = next();
    } else if (arg == "--manifest") {
      manifest_out = next();
    } else {
      obs::log_event(obs::LogLevel::kError, "tcad.bad_flag",
                     {{"flag", arg}, {"value", "(unknown)"}});
      return 2;
    }
  }

  if (::pipe(g_signal_pipe) != 0) return 1;
  struct sigaction sa{};
  sa.sa_handler = tcad_on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a client vanishing must not kill the daemon

  const auto t0 = std::chrono::steady_clock::now();
  service::TcadServer server(options);
  int exit_code = 0;
  try {
    server.start();
    if (!ready_file.empty()) {
      std::ofstream ready(ready_file);
      ready << server.uds_path() << "\n" << server.tcp_port() << "\n";
    }
    // Block until a termination signal lands.
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    obs::log_event(obs::LogLevel::kInfo, "tcad.shutdown_signal", {});
  } catch (const std::exception& e) {
    obs::log_event(obs::LogLevel::kError, "tcad.fatal", {{"what", e.what()}});
    exit_code = 1;
  }
  server.stop();

  const std::uint64_t leaked = server.handler().active_requests();
  obs::RunManifest manifest;
  manifest.tool = "tcad";
  manifest.argv.assign(argv, argv + argc);
  manifest.status = exit_code == 0 && leaked == 0 ? "PASS" : "FAIL";
  manifest.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  manifest.checks.push_back(
      {"clean-shutdown", leaked == 0 ? "PASS" : "FAIL",
       "active requests after drain: " + std::to_string(leaked)});
  manifest.extra["protocol_version"] =
      std::to_string(service::kProtocolVersion);
  manifest.try_write(manifest_out.empty() ? obs::manifest_path("tcad")
                                          : manifest_out);
  return exit_code;
}
