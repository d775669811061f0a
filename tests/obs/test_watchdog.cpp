// Stall-watchdog tests: deterministic tick() detection (report exactly once
// per stuck request, oldest-age gauge tracking, disabled = free), the
// force-retain hook that commits a stalled request's buffered spans through
// the sampler's tail path, and the live loopback case the incident story is
// built on — a wedged replica (long coalesce wait) pushes a request past
// --stall-ms and the stall count rides the PPN1 health frame to the client.
#include "obs/watchdog.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace {
namespace {

using obs::Log;
using obs::LogConfig;
using obs::LogFormat;
using obs::LogLevel;
using obs::MetricsRegistry;
using obs::Watchdog;
using obs::WatchdogConfig;

/// Captures every structured line and silences rate limiting so the stall
/// report is always observable; restores the process logger afterwards.
class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = Log::instance().config();
    LogConfig cfg = saved_;
    cfg.min_level = LogLevel::kDebug;
    cfg.format = LogFormat::kKeyValue;
    cfg.rate_limit_per_key = 0;
    Log::instance().configure(cfg);
    Log::instance().reset_rate_limits();
    // The sink runs on whatever thread emits (the obs ticker, this test) —
    // the capture buffer needs its own lock.
    Log::instance().set_sink([this](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mu_);
      lines_.push_back(line);
    });
  }
  void TearDown() override {
    Log::instance().set_sink(nullptr);
    Log::instance().configure(saved_);
  }

  bool logged(const std::string& needle) const {
    std::lock_guard<std::mutex> lock(lines_mu_);
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  static WatchdogConfig stall_config(double stall_ms) {
    WatchdogConfig cfg;
    cfg.stall_ms = stall_ms;
    return cfg;
  }

  LogConfig saved_;
  mutable std::mutex lines_mu_;
  std::vector<std::string> lines_;
};

TEST_F(WatchdogTest, ReportsAStalledRequestExactlyOnce) {
  Watchdog wd(MetricsRegistry::global());
  wd.configure(stall_config(50.0));
  wd.set_depths_fn([] { return std::vector<std::int64_t>{2, 0}; });

  wd.track(42, /*replica=*/1);
  ASSERT_EQ(wd.tracked(), 1u);
  const double t0 = wd.now_s();

  wd.tick(t0 + 0.010);  // 10ms old: under threshold
  EXPECT_EQ(wd.stalls(), 0u);

  wd.tick(t0 + 0.200);  // 200ms old: stalled
  EXPECT_EQ(wd.stalls(), 1u);
  EXPECT_GE(wd.oldest_request_ms(), 200.0);
  EXPECT_TRUE(logged("watchdog.stall"));
  EXPECT_TRUE(logged("trace=42"));
  EXPECT_TRUE(logged("replica=1"));

  wd.tick(t0 + 0.400);  // still stuck: no duplicate report
  EXPECT_EQ(wd.stalls(), 1u);
  EXPECT_GE(MetricsRegistry::global().gauge("obs_watchdog_stalls").value(), 1.0);

  wd.complete(42);
  EXPECT_EQ(wd.tracked(), 0u);
  wd.tick(t0 + 0.500);
  EXPECT_EQ(wd.oldest_request_ms(), 0.0);  // nothing in flight
}

TEST_F(WatchdogTest, DisabledWatchdogTracksAndReportsNothing) {
  Watchdog wd(MetricsRegistry::global());  // stall_ms defaults to 0
  wd.track(7, 0);
  EXPECT_EQ(wd.tracked(), 0u);  // track is a no-op while disabled
  wd.tick(wd.now_s() + 10.0);
  EXPECT_EQ(wd.stalls(), 0u);
  wd.complete(7);  // unknown id: harmless
}

TEST_F(WatchdogTest, UntracedRequestsAreIgnored) {
  Watchdog wd(MetricsRegistry::global());
  wd.configure(stall_config(50.0));
  wd.track(0, 0);  // trace id 0 = untraced; nothing to force-retain or name
  EXPECT_EQ(wd.tracked(), 0u);
}

TEST_F(WatchdogTest, StallForceRetainsTheBufferedTrace) {
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::Sampler& sampler = tracer.sampler();
  tracer.disable();
  tracer.clear();
  tracer.enable();
  obs::SamplerConfig scfg;
  scfg.sample_every = 1U << 30;  // head-sample ~never: spans buffer provisionally
  scfg.slow_threshold_s = 10.0;
  sampler.configure(scfg);
  obs::Counter& retained_stall =
      MetricsRegistry::global().counter("obs_trace_retained_stall_total");
  const std::uint64_t base_retained = retained_stall.load();

  sampler.begin(99);
  {
    obs::ScopedTraceId scope(99);
    obs::Span span("watchdog.test.span", "test");
  }
  EXPECT_EQ(tracer.recorded(), 0u);  // buffered, not committed

  Watchdog wd(MetricsRegistry::global());
  wd.configure(stall_config(50.0));
  wd.track(99, 0);
  wd.tick(wd.now_s() + 0.200);
  EXPECT_EQ(wd.stalls(), 1u);

  // force_retain committed the buffered span through the tail path …
  EXPECT_EQ(tracer.recorded(), 1u);
  EXPECT_EQ(retained_stall.load() - base_retained, 1u);
  EXPECT_NE(tracer.dump_json().find("watchdog.test.span"), std::string::npos);
  // … and the eventual finish() sees an already-retained trace (kept).
  EXPECT_TRUE(sampler.finish(99, 0.001, obs::RequestOutcome::kOk));

  sampler.disable();
  tracer.disable();
  tracer.clear();
}

TEST_F(WatchdogTest, WedgedReplicaStallReachesTheHealthFrame) {
  net::NetServerConfig cfg;
  cfg.pool.replicas = 1;
  cfg.pool.serve.max_batch = 64;  // a lone request never fills the batch …
  cfg.pool.serve.max_wait = std::chrono::milliseconds(300);  // … and waits 300ms
  cfg.watchdog.stall_ms = 50.0;  // ticks every 12.5ms
  net::NetServer server(cfg, [] { return serve::testfix::tiny_model(); });
  ASSERT_GT(server.port(), 0);

  net::Client client("127.0.0.1", server.port());
  // Blocks ~300ms in the coalescing queue: wedged long past stall-ms, while
  // the watchdog ticks every 12.5ms.
  EXPECT_EQ(client.forecast(serve::testfix::random_input(1)).status, net::Status::kOk);

  EXPECT_GE(server.watchdog().stalls(), 1u);
  const net::HealthInfo health = client.health();
  EXPECT_GE(health.watchdog_stalls, 1u);
  EXPECT_EQ(health.watchdog_stalls, server.watchdog().stalls());
  EXPECT_TRUE(logged("watchdog.stall"));
}

}  // namespace
}  // namespace paintplace
