// End-to-end tests for the tcad socket server (docs/service.md): a real
// TcadServer on a Unix-domain socket (plus the loopback TCP listener),
// driven by TcadClient over the length-prefixed frame protocol. The
// central assertion is the service-vs-library oracle: every query kind
// answered over the wire must be bit-identical to the direct library
// answer computed in-process. Shutdown must leave zero leaked requests.
//
// Socket paths live in per-test unique temp directories (sun_path is
// short; /tmp keeps us under the 108-byte limit) so the suite is safe
// under `ctest -j`.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/handler.hpp"
#include "service/json_parse.hpp"
#include "service/query.hpp"
#include "service/server.hpp"

namespace tca::service {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("tca_e2e_" + std::to_string(::getpid()) + "_" + info->name());
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

std::string result_of(const std::string& response) {
  const std::size_t pos = response.find("\"result\":");
  return pos == std::string::npos
             ? std::string()
             : response.substr(pos + 9, response.size() - pos - 10);
}

/// Direct library answer, same compute path the daemon uses.
std::string library_answer(const std::string& query_json) {
  QueryEngine engine{EngineOptions{}};
  const ServiceQuery q = ServiceQuery::from_json(parse_json(query_json));
  const QueryOutcome out = engine.execute(q, RequestBudget{}, {});
  EXPECT_TRUE(out.ok()) << out.error;
  return out.result.to_json();
}

TEST(TcadE2e, AllQueryKindsMatchTheLibraryOverUds) {
  const TempDir dir;
  ServerOptions options;
  options.uds_path = dir.str() + "/tcad.sock";
  options.handler.cache.disk_dir = dir.str() + "/cache";
  options.handler.engine.ckpt_dir = dir.str() + "/ckpt";
  TcadServer server(options);
  server.start();

  const std::vector<std::string> queries = {
      R"({"kind":"attractor-summary","n":8,"radius":1,"rule":"majority","topology":"ring"})",
      R"({"kind":"transient-depth","n":8,"radius":1,"rule":{"type":"wolfram","code":110},"topology":"ring"})",
      R"({"kind":"goe-census","n":8,"radius":1,"rule":"parity","topology":"line"})",
      R"({"kind":"preimage-count","n":10,"radius":1,"rule":"majority","topology":"ring","target":0})",
      R"({"kind":"preimage-count","n":7,"radius":1,"rule":"majority","scheme":"sweep","order":[6,5,4,3,2,1,0],"target":127})",
  };

  TcadClient client = TcadClient::connect_uds(server.uds_path());
  std::uint64_t id = 1;
  for (const std::string& query : queries) {
    const std::string response = client.call(
        R"({"op":"query","id":)" + std::to_string(id++) + R"(,"query":)" +
        query + "}");
    const JsonValue v = parse_json(response);
    ASSERT_EQ(v.string_or("status", ""), "ok") << response;
    EXPECT_EQ(v.u64_or("v", 0), kProtocolVersion);
    EXPECT_EQ(result_of(response), library_answer(query)) << query;
  }

  server.stop();
  EXPECT_EQ(server.handler().active_requests(), 0u);
}

TEST(TcadE2e, TruncatedBuildResumesOverTheWire) {
  const TempDir dir;
  ServerOptions options;
  options.uds_path = dir.str() + "/tcad.sock";
  options.handler.engine.ckpt_dir = dir.str() + "/ckpt";
  TcadServer server(options);
  server.start();

  const std::string query =
      R"({"kind":"transient-depth","n":18,"radius":1,"rule":"majority",)"
      R"("topology":"line"})";
  TcadClient client = TcadClient::connect_uds(server.uds_path());
  const JsonValue cut = parse_json(client.call(
      R"({"op":"query","id":1,"query":)" + query +
      R"(,"budget":{"max_states":150000}})"));
  ASSERT_EQ(cut.string_or("status", ""), "truncated");
  EXPECT_TRUE(cut.bool_or("resumable", false));
  EXPECT_GT(cut.u64_or("states_done", 0), 0u);

  const std::string response = client.call(
      R"({"op":"query","id":2,"query":)" + query + "}");
  ASSERT_EQ(parse_json(response).string_or("status", ""), "ok") << response;
  EXPECT_EQ(result_of(response), library_answer(query));

  server.stop();
  EXPECT_EQ(server.handler().active_requests(), 0u);
}

TEST(TcadE2e, TcpListenerServesTheSameCacheAsUds) {
  const TempDir dir;
  ServerOptions options;
  options.uds_path = dir.str() + "/tcad.sock";
  options.tcp_enabled = true;  // ephemeral port
  TcadServer server(options);
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  const std::string request =
      R"({"op":"query","id":1,"query":{"kind":"attractor-summary","n":7,)"
      R"("radius":1,"rule":"majority","topology":"ring"}})";

  TcadClient uds = TcadClient::connect_uds(server.uds_path());
  const std::string first = uds.call(request);
  ASSERT_EQ(parse_json(first).string_or("source", ""), "computed");

  // The TCP connection hits the same handler: warm cache.
  TcadClient tcp = TcadClient::connect_tcp(server.tcp_port());
  const std::string second = tcp.call(request);
  EXPECT_EQ(parse_json(second).string_or("source", ""), "memory-cache");
  EXPECT_EQ(result_of(first), result_of(second));

  server.stop();
  EXPECT_EQ(server.handler().active_requests(), 0u);
}

TEST(TcadE2e, PingAndCountersOps) {
  const TempDir dir;
  ServerOptions options;
  options.uds_path = dir.str() + "/tcad.sock";
  TcadServer server(options);
  server.start();

  TcadClient client = TcadClient::connect_uds(server.uds_path());
  const JsonValue pong =
      parse_json(client.call(R"({"op":"ping","id":41})"));
  EXPECT_EQ(pong.string_or("status", ""), "ok");
  EXPECT_EQ(pong.u64_or("id", 0), 41u);

  const JsonValue counters =
      parse_json(client.call(R"({"op":"counters","id":42})"));
  EXPECT_EQ(counters.string_or("status", ""), "ok");
  const JsonValue* table = counters.find("counters");
  ASSERT_NE(table, nullptr);
  // Both requests so far are counted by the time the snapshot is taken.
  EXPECT_GE(table->u64_or("service.requests", 0), 2u);

  server.stop();
}

TEST(TcadE2e, WireErrorsDoNotKillTheConnection) {
  const TempDir dir;
  ServerOptions options;
  options.uds_path = dir.str() + "/tcad.sock";
  TcadServer server(options);
  server.start();

  TcadClient client = TcadClient::connect_uds(server.uds_path());
  const JsonValue bad = parse_json(client.call("this is not json"));
  EXPECT_EQ(bad.string_or("status", ""), "error");

  // Same connection still serves good requests afterwards.
  const JsonValue good = parse_json(client.call(R"({"op":"ping","id":1})"));
  EXPECT_EQ(good.string_or("status", ""), "ok");

  server.stop();
  EXPECT_EQ(server.handler().active_requests(), 0u);
}

TEST(TcadE2e, StopIsIdempotentAndLeavesNoSocketFile) {
  const TempDir dir;
  ServerOptions options;
  options.uds_path = dir.str() + "/tcad.sock";
  TcadServer server(options);
  server.start();
  EXPECT_TRUE(fs::exists(options.uds_path));
  server.stop();
  server.stop();  // second stop must be a no-op
  EXPECT_FALSE(fs::exists(options.uds_path));
  EXPECT_EQ(server.handler().active_requests(), 0u);
}

TEST(TcadE2e, DiskCacheSurvivesAServerRestart) {
  const TempDir dir;
  ServerOptions options;
  options.uds_path = dir.str() + "/tcad.sock";
  options.handler.cache.disk_dir = dir.str() + "/cache";
  const std::string request =
      R"({"op":"query","id":1,"query":{"kind":"goe-census","n":8,)"
      R"("radius":1,"rule":"majority","topology":"ring"}})";

  std::string first_result;
  {
    TcadServer server(options);
    server.start();
    TcadClient client = TcadClient::connect_uds(server.uds_path());
    const std::string response = client.call(request);
    ASSERT_EQ(parse_json(response).string_or("source", ""), "computed");
    first_result = result_of(response);
    server.stop();
  }
  {
    TcadServer server(options);
    server.start();
    TcadClient client = TcadClient::connect_uds(server.uds_path());
    const std::string response = client.call(request);
    EXPECT_EQ(parse_json(response).string_or("source", ""), "disk-cache");
    EXPECT_EQ(result_of(response), first_result);
    server.stop();
  }
}

}  // namespace
}  // namespace tca::service
