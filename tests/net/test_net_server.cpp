// End-to-end NetServer tests over real loopback sockets: request/response
// fidelity vs direct prediction, protocol-error handling, the metrics
// endpoint, hot-swap over the wire, concurrent clients, and drain-on-
// shutdown semantics.
#include "net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/ticker.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::net {
namespace {

using namespace std::chrono_literals;

NetServerConfig quick_config(int replicas = 2) {
  NetServerConfig cfg;
  cfg.pool.replicas = replicas;
  cfg.pool.serve.max_batch = 4;
  cfg.pool.serve.max_wait = 2ms;
  return cfg;
}

ModelFactory tiny_factory() {
  return [] { return serve::testfix::tiny_model(); };
}

TEST(NetServer, ForecastOverTheWireMatchesDirectPredict) {
  NetServer server(quick_config(), tiny_factory());
  ASSERT_GT(server.port(), 0);  // ephemeral port was bound

  Client client("127.0.0.1", server.port());
  const nn::Tensor x = serve::testfix::random_input(3);
  const ForecastResponse resp = client.forecast(x, /*want_heatmap=*/true);

  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.model_version, 1u);
  EXPECT_FALSE(resp.from_cache);

  auto reference = serve::testfix::tiny_model();
  reference->set_deterministic_inference(true);
  const nn::Tensor expected = reference->predict(x);
  ASSERT_EQ(resp.heatmap.shape(), expected.shape());
  EXPECT_EQ(resp.heatmap.max_abs_diff(expected), 0.0f);
  EXPECT_DOUBLE_EQ(resp.congestion_score, reference->congestion_score(expected));

  // The same placement resubmitted is a bit-identical cache hit.
  const ForecastResponse again = client.forecast(x, /*want_heatmap=*/true);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.heatmap.max_abs_diff(resp.heatmap), 0.0f);
}

TEST(NetServer, ScoreOnlyResponseOmitsHeatmap) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());
  const nn::Tensor x = serve::testfix::random_input(4);
  const ForecastResponse resp = client.forecast(x);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.heatmap.numel(), 0);  // not requested, not shipped

  // The score still matches a direct deterministic prediction exactly.
  auto reference = serve::testfix::tiny_model();
  reference->set_deterministic_inference(true);
  EXPECT_DOUBLE_EQ(resp.congestion_score,
                   reference->congestion_score(reference->predict(x)));
}

TEST(NetServer, BadInputShapeFailsThatRequestOnly) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());

  const ForecastResponse bad = client.forecast(nn::Tensor(nn::Shape{1, 2, 16, 16}));
  EXPECT_EQ(bad.status, Status::kFailed);
  EXPECT_FALSE(bad.error.empty());

  // The connection survives a failed request; the next one is served.
  const ForecastResponse good = client.forecast(serve::testfix::random_input(5));
  EXPECT_EQ(good.status, Status::kOk);
  EXPECT_EQ(server.metrics().requests_failed.load(), 1u);
}

TEST(NetServer, GarbageBytesGetAnErrorFrameAndClose) {
  NetServer server(quick_config(1), tiny_factory());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const char garbage[] = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);

  // The server answers with one kError frame, then closes the connection.
  FrameReader reader;
  std::uint8_t buf[4096];
  std::optional<Frame> error_frame;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF after the error frame
    reader.feed(buf, static_cast<std::size_t>(n));
    if (auto f = reader.next()) {
      error_frame = std::move(f);
    }
  }
  ::close(fd);
  ASSERT_TRUE(error_frame.has_value());
  EXPECT_EQ(error_frame->type, FrameType::kError);
  EXPECT_NE(decode_text(*error_frame).find("magic"), std::string::npos);
  EXPECT_EQ(server.metrics().protocol_errors.load(), 1u);
}

TEST(NetServer, MetricsEndpointReflectsTraffic) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());
  (void)client.forecast(serve::testfix::random_input(6));
  (void)client.forecast(serve::testfix::random_input(6));  // cache hit

  // The completed counter lands just after the response bytes; wait for it
  // so the scrape below sees both requests.
  while (server.metrics().requests_completed.load() < 2) {
    std::this_thread::sleep_for(1ms);
  }
  const std::string text = client.metrics_text();
  EXPECT_NE(text.find("net_requests_completed 2\n"), std::string::npos);
  EXPECT_NE(text.find("net_requests_accepted 2\n"), std::string::npos);
  EXPECT_NE(text.find("pool_model_version 1\n"), std::string::npos);
  EXPECT_NE(text.find("pool_cache_hits 1\n"), std::string::npos);
  EXPECT_NE(text.find("pool_cache_requests 2\n"), std::string::npos);
  EXPECT_NE(text.find("net_request_latency_seconds_count 2\n"), std::string::npos);
  EXPECT_EQ(server.metrics().metrics_requests.load(), 1u);
}

TEST(NetServer, ScrapeHasOneTypeLinePerMetric) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());
  (void)client.forecast(serve::testfix::random_input(7));
  const std::string text = client.metrics_text();

  std::map<std::string, int> types;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    types[line.substr(7, line.find(' ', 7) - 7)] += 1;
  }
  ASSERT_GT(types.count("net_requests_completed"), 0u) << text;
  ASSERT_GT(types.count("pool_queue_depth"), 0u) << text;
  for (const auto& [name, count] : types) EXPECT_EQ(count, 1) << name;
}

TEST(NetServer, ShutdownWithoutConnectionsIsPromptAndLeavesNoObsThread) {
  NetServer server(quick_config(1), tiny_factory());
  EXPECT_TRUE(obs::Ticker::instance().running());  // SLO windows tick on it
  const auto start = std::chrono::steady_clock::now();
  server.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 500ms);
  EXPECT_FALSE(obs::Ticker::instance().running());
}

TEST(NetServer, SwapOverTheWireIsDeniedByDefault) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());
  const SwapResponse resp = client.swap("/does/not/matter.ckpt");
  EXPECT_EQ(resp.status, Status::kFailed);
  EXPECT_NE(resp.error.find("disabled"), std::string::npos);
  EXPECT_EQ(server.metrics().hot_swaps.load(), 0u);
}

TEST(NetServer, SwapOverTheWirePublishesWhenAllowed) {
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() / "paintplace_test_net_swap.ckpt";
  serve::testfix::tiny_model(/*seed=*/21)->save(ckpt.string());

  NetServerConfig cfg = quick_config();
  cfg.allow_swap = true;
  NetServer server(cfg, tiny_factory());
  Client client("127.0.0.1", server.port());

  const SwapResponse resp = client.swap(ckpt.string());
  EXPECT_EQ(resp.status, Status::kOk) << resp.error;
  EXPECT_EQ(resp.new_version, 2u);

  const ForecastResponse after = client.forecast(serve::testfix::random_input(7));
  EXPECT_EQ(after.model_version, 2u);
  std::filesystem::remove(ckpt);
}

TEST(NetServer, SwapRejectsArchitectureMismatch) {
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() / "paintplace_test_net_mismatch.ckpt";
  serve::testfix::tiny_model(/*seed=*/5, /*image_size=*/32)->save(ckpt.string());

  NetServerConfig cfg = quick_config(1);
  cfg.allow_swap = true;
  NetServer server(cfg, tiny_factory());  // serving a 16px model
  Client client("127.0.0.1", server.port());

  const SwapResponse resp = client.swap(ckpt.string());
  EXPECT_EQ(resp.status, Status::kFailed);
  EXPECT_FALSE(resp.error.empty());
  // The pool still serves the original model at the original version.
  EXPECT_EQ(client.forecast(serve::testfix::random_input(8)).model_version, 1u);
  std::filesystem::remove(ckpt);
}

TEST(NetServer, ConcurrentClientsAllGetAnswers) {
  NetServer server(quick_config(2), tiny_factory());
  constexpr int kClients = 3, kPerClient = 6;
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        const ForecastResponse r =
            client.forecast(serve::testfix::random_input(300 + c * kPerClient + i));
        if (r.status == Status::kOk) ok[static_cast<std::size_t>(c)] += 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(ok[static_cast<std::size_t>(c)], kPerClient);
  EXPECT_EQ(server.metrics().requests_completed.load(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(server.metrics().shed_total(), 0u);
}

TEST(NetServer, ShutdownDrainsPipelinedRequests) {
  NetServerConfig cfg = quick_config(2);
  cfg.pool.serve.max_wait = 50ms;  // batches stay open: requests are in flight at shutdown
  cfg.pool.serve.max_batch = 64;
  auto server = std::make_unique<NetServer>(cfg, tiny_factory());
  Client client("127.0.0.1", server->port());

  constexpr int kInFlight = 5;
  for (std::uint64_t id = 1; id <= kInFlight; ++id) {
    client.send_forecast(id, serve::testfix::random_input(400 + id));
  }
  // Wait until the reader has admitted all five (sent != accepted: bytes
  // still in the socket buffer at shutdown would simply never be accepted),
  // then shut down with the whole window unresolved.
  while (server->metrics().requests_accepted.load() < kInFlight) {
    std::this_thread::sleep_for(1ms);
  }
  std::thread stopper([&] { server->shutdown(); });
  int answered = 0;
  for (int i = 0; i < kInFlight; ++i) {
    const ForecastResponse r = client.read_forecast_response();
    if (r.status == Status::kOk) ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, kInFlight);
}

TEST(NetServer, OverloadShedsWithTypedReason) {
  NetServerConfig cfg = quick_config(1);
  cfg.pool.max_replica_depth = 1;
  cfg.pool.serve.max_wait = 20ms;  // hold the batch open so depth stays high
  cfg.pool.serve.max_batch = 64;
  NetServer server(cfg, tiny_factory());
  Client client("127.0.0.1", server.port());

  for (std::uint64_t id = 1; id <= 4; ++id) {
    client.send_forecast(id, serve::testfix::random_input(500 + id));
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < 4; ++i) {
    const ForecastResponse r = client.read_forecast_response();
    if (r.status == Status::kOk) ++ok;
    if (r.status == Status::kShed) {
      ++shed;
      EXPECT_EQ(r.shed_reason, ShedReason::kReplicaQueueFull);
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(server.metrics().shed_queue_full.load(), static_cast<std::uint64_t>(shed));
}

}  // namespace
}  // namespace paintplace::net
