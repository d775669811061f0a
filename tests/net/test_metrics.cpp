// net::Metrics tests: latency-histogram recording and quantiles, counter
// rollups, and the registry exposition the metrics endpoint serves.
#include "net/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace paintplace::net {
namespace {

TEST(Histogram, EmptyHistogramIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(Histogram, QuantilesBracketRecordedLatencies) {
  obs::Histogram h;
  // 99 fast samples around 1ms, one slow outlier around 1s.
  for (int i = 0; i < 99; ++i) h.record(1e-3);
  h.record(1.0);
  EXPECT_EQ(h.count(), 100u);

  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.5e-3);
  EXPECT_LE(p50, 2.5e-3);  // within the 1ms sample's log2 bucket

  const double p99 = h.quantile(0.99);
  EXPECT_LE(p99, 2.5e-3);  // the outlier is beyond the 99th

  const double p100 = h.quantile(1.0);
  EXPECT_GE(p100, 0.5);  // the outlier's bucket
}

TEST(Histogram, QuantileIsMonotoneInQ) {
  obs::Histogram h;
  for (int i = 1; i <= 64; ++i) h.record(static_cast<double>(i) * 1e-4);
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(Histogram, ConcurrentRecordsAllLand) {
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.record(1e-3);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), 4000u);
}

TEST(Histogram, ResetClears) {
  obs::Histogram h;
  h.record(0.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Metrics, ShedTotalSumsBothReasons) {
  Metrics m;
  m.shed_queue_full.fetch_add(3);
  m.shed_client_cap.fetch_add(4);
  EXPECT_EQ(m.shed_total(), 7u);
}

TEST(Metrics, RenderTextExposesEveryField) {
  obs::MetricsRegistry registry;
  Metrics m(registry);
  m.connections_opened.store(5);
  m.requests_accepted.store(100);
  m.requests_completed.store(90);
  m.shed_queue_full.store(7);
  m.protocol_errors.store(1);
  m.latency.record(2e-3);

  PoolStats pool;
  pool.queue_depth = 3;
  pool.cache_hits = 40;
  pool.cache_requests = 100;
  pool.model_version = 2;
  m.set_pool(2, pool);

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("net_connections_opened 5\n"), std::string::npos);
  EXPECT_NE(text.find("net_requests_accepted 100\n"), std::string::npos);
  EXPECT_NE(text.find("net_requests_completed 90\n"), std::string::npos);
  EXPECT_NE(text.find("net_shed_queue_full 7\n"), std::string::npos);
  EXPECT_NE(text.find("net_protocol_errors 1\n"), std::string::npos);
  EXPECT_NE(text.find("net_request_latency_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("pool_replicas 2\n"), std::string::npos);
  EXPECT_NE(text.find("pool_queue_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("pool_cache_hits 40\n"), std::string::npos);
  EXPECT_NE(text.find("pool_cache_requests 100\n"), std::string::npos);
  EXPECT_NE(text.find("pool_model_version 2\n"), std::string::npos);
  // Every instrument is typed.
  for (const std::string& name : registry.names()) {
    EXPECT_NE(text.find("# TYPE " + name + " "), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace paintplace::net
