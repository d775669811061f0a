// Unit tests for the benchmark's own statistics (perfbench/stats.h) and for
// the agreement between the workload table in inputs.cpp and ledger.json.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "perfbench/stats.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 99.0), 0.0);
}

TEST(TailPercentile, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 99.9);  // exactly 10 beyond p99.9
  EXPECT_DOUBLE_EQ(tail_percentile(9999), 99.0);   // 9.999 beyond p99.9: not enough
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(999), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(99), 75.0);
  EXPECT_DOUBLE_EQ(tail_percentile(40), 75.0);
  EXPECT_DOUBLE_EQ(tail_percentile(39), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(3), 50.0);  // nothing supported: the median
  EXPECT_DOUBLE_EQ(tail_percentile(100, 20), 75.0);
}

TEST(ChunkedPercentile, IgnoresAStallConfinedToOneChunk) {
  std::vector<double> v(500, 1.0);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1.0 + static_cast<double>(i % 100) / 100.0;
  const double steady = chunked_percentile(v, 90.0, 5);
  EXPECT_NEAR(steady, percentile(v, 90.0), 1e-9);  // identical chunks: the plain percentile
  std::vector<double> stalled = v;
  for (std::size_t i = 100; i < 160; ++i) stalled[i] = 50.0;  // 60 slow requests in chunk 1
  EXPECT_GT(percentile(stalled, 90.0), 10.0);                 // the whole-run p90 jumps
  EXPECT_NEAR(chunked_percentile(stalled, 90.0, 5), steady, 1e-9);
  std::vector<double> slower = v;
  for (double& x : slower) x *= 2.0;  // a slowdown everywhere still shows
  EXPECT_NEAR(chunked_percentile(slower, 90.0, 5), 2.0 * steady, 1e-9);
  EXPECT_DOUBLE_EQ(chunked_percentile(v, 90.0, 1), percentile(v, 90.0));
  EXPECT_DOUBLE_EQ(chunked_percentile({2.0, 1.0}, 50.0, 5), 1.5);  // too few for 5 chunks
}

TEST(Tally, ShedsCountAsFailed) {
  Tally t;
  t.record(Outcome::kOk);
  t.record(Outcome::kOk);
  t.record(Outcome::kShed);
  t.record(Outcome::kFailed);
  t.record(Outcome::kProtocolError);
  EXPECT_EQ(t.attempted(), 5u);
  EXPECT_EQ(t.failures(), 3u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.6);

  Tally only_shed;
  only_shed.record(Outcome::kShed);
  EXPECT_EQ(only_shed.failures(), 1u);
  EXPECT_DOUBLE_EQ(only_shed.failed_frac(), 1.0);
  EXPECT_DOUBLE_EQ(Tally{}.failed_frac(), 0.0);
}

TEST(OpenLoopLedger, ChargesAStallToTheRequestsBehindIt) {
  // Requests are due every 10 ms; each takes 1 ms once sent. The generator
  // stalls for 50 ms at t = 20 ms, so requests due at 20..60 ms all go out
  // at 70 ms and complete back to back.
  OpenLoopLedger ledger;
  const double service = 0.001;
  double server_free = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double due = 0.010 * i;
    const double sent = (due >= 0.020 && due < 0.070) ? 0.070 : due;
    ledger.sent(static_cast<std::uint64_t>(i), due, sent);
    server_free = std::max(server_free, sent) + service;
    ASSERT_TRUE(ledger.completed(static_cast<std::uint64_t>(i), server_free, Outcome::kOk));
  }
  const std::vector<double>& lat = ledger.latencies();
  ASSERT_EQ(lat.size(), 10u);
  EXPECT_NEAR(lat[0], 0.001, 1e-12);  // before the stall: service time only
  EXPECT_NEAR(lat[1], 0.001, 1e-12);
  // Due at 20 ms, answered at 71 ms: the stall is charged, not hidden.
  EXPECT_NEAR(lat[2], 0.051, 1e-12);
  // Due at 60 ms, queued behind four others sent at 70 ms: done at 75 ms.
  EXPECT_NEAR(lat[6], 0.015, 1e-12);
  EXPECT_NEAR(lat[7], 0.006, 1e-12);  // sent on time, still behind the backlog
  EXPECT_NEAR(lat[8], 0.001, 1e-12);  // the backlog has drained
  // The generator's lateness is kept apart from the system's latency.
  EXPECT_NEAR(ledger.lags()[2], 0.050, 1e-12);
  EXPECT_NEAR(ledger.lags()[6], 0.010, 1e-12);
  EXPECT_NEAR(ledger.lags()[7], 0.0, 1e-12);
  EXPECT_GT(percentile(lat, 90.0), 0.040);  // the tail sees the stall
}

TEST(OpenLoopLedger, FailuresCountButCarryNoLatency) {
  OpenLoopLedger ledger;
  ledger.sent(1, 0.0, 0.0);
  ledger.sent(2, 0.1, 0.1);
  ledger.sent(3, 0.2, 0.2);
  EXPECT_EQ(ledger.in_flight(), 3u);
  EXPECT_TRUE(ledger.completed(1, 0.01, Outcome::kOk));
  EXPECT_TRUE(ledger.completed(2, 0.11, Outcome::kShed));
  EXPECT_FALSE(ledger.completed(2, 0.12, Outcome::kOk));  // already answered
  EXPECT_FALSE(ledger.completed(99, 0.12, Outcome::kOk));  // never sent
  EXPECT_TRUE(ledger.completed(3, 0.5, Outcome::kProtocolError));
  EXPECT_EQ(ledger.in_flight(), 0u);
  EXPECT_EQ(ledger.latencies().size(), 1u);
  EXPECT_EQ(ledger.tally().attempted(), 3u);
  EXPECT_EQ(ledger.tally().failures(), 2u);
}

TEST(PoissonArrivals, FixedCountReproducibleAndExponentialGaps) {
  const std::vector<double> a = poisson_arrivals(150.0, 8.0, 42);
  EXPECT_EQ(a, poisson_arrivals(150.0, 8.0, 42));
  EXPECT_NE(a, poisson_arrivals(150.0, 8.0, 43));
  ASSERT_EQ(a.size(), 1200u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 8.0);
  // Exponential gaps: mean 1/rate and coefficient of variation 1.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < a.size(); ++i) gaps.push_back(a[i] - a[i - 1]);
  double mean = 0.0, var = 0.0;
  for (const double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 1.0 / 150.0, 0.1 / 150.0);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The workload table in inputs.cpp is what runs; ledger.json is what
// performance changes cite. They must state the same loop, connections,
// depth, rate and fresh share.
TEST(Ledger, AgreesWithTheWorkloadTable) {
  const std::string ledger = read_file(std::string(PERFBENCH_DIR) + "/ledger.json");
  const std::string table = read_file(std::string(PERFBENCH_DIR) + "/inputs.cpp");
  ASSERT_FALSE(ledger.empty());
  // {name, loop, connections, depth, rate, heatmap, paper, design, scale, fresh, ...}
  const std::regex row(
      R"re(\{"(\w+)", "(\w+)", (\d+), (\d+), ([0-9.]+), (true|false), (true|false), )re"
      R"re("\w+", [0-9.]+, ([0-9.]+), \d+, \d+, \d+, \d+\})re");
  int rows = 0;
  for (std::sregex_iterator it(table.begin(), table.end(), row), end; it != end; ++it, ++rows) {
    const std::smatch& m = *it;
    const std::string name = m[1];
    const std::size_t at = ledger.find("\"name\": \"" + name + "\"");
    ASSERT_NE(at, std::string::npos) << name << " missing from ledger.json";
    const std::string entry = ledger.substr(at, ledger.find('}', at) - at);
    EXPECT_NE(entry.find("\"loop\": \"" + std::string(m[2]) + "\""), std::string::npos) << name;
    EXPECT_NE(entry.find("\"connections\": " + std::string(m[3])), std::string::npos) << name;
    EXPECT_NE(entry.find("\"depth\": " + std::string(m[4])), std::string::npos) << name;
    const double rate = std::stod(m[5]);
    std::ostringstream rate_text;
    rate_text << "\"rate_rps\": " << rate;
    EXPECT_NE(entry.find(rate_text.str()), std::string::npos) << name << ": " << rate_text.str();
    std::ostringstream fresh_text;
    fresh_text << "\"fresh_frac\": " << std::stod(m[8]);
    EXPECT_NE(entry.find(fresh_text.str()), std::string::npos) << name << ": " << fresh_text.str();
  }
  EXPECT_EQ(rows, 3);
}

}  // namespace
}  // namespace perfbench
