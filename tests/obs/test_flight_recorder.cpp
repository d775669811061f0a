// Flight-recorder tests: ring wraparound keeps exactly the newest
// kEventsPerThread events, the programmatic dump carries the post-mortem
// schema (build identity, per-thread span stacks, events, metrics snapshot)
// and parses back by substring, record-time sanitization keeps the dump
// JSON-clean, live obs::Span nesting shows as the thread's span stack, and
// the slots of exited threads are reused.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace paintplace::obs {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// enable() is sticky by design (a black box does not turn off mid-flight);
/// each test just clears the rings so earlier tests' events don't leak in.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::instance().enable();
    FlightRecorder::instance().clear();
  }
  void TearDown() override { FlightRecorder::instance().clear(); }

  static std::string dump_to_temp(const char* name) {
    const std::string path = ::testing::TempDir() + name;
    EXPECT_TRUE(FlightRecorder::instance().dump(path, /*signal_number=*/11));
    return slurp(path);
  }
};

TEST_F(FlightRecorderTest, RingKeepsOnlyTheNewestEventsAfterWraparound) {
  const std::size_t total = FlightRecorder::kEventsPerThread + 40;
  for (std::size_t i = 0; i < total; ++i) {
    const std::string msg = "mark-" + std::to_string(i);
    FlightRecorder::record(EventKind::kMark, /*trace_id=*/i, msg.c_str(),
                           static_cast<std::int64_t>(i), 0);
  }
  // recorded() saturates at ring capacity per thread.
  EXPECT_EQ(FlightRecorder::instance().recorded(), FlightRecorder::kEventsPerThread);

  const std::string dump = dump_to_temp("fr_wrap.json");
  // The oldest 40 events were overwritten; the newest survive in order.
  EXPECT_EQ(dump.find("\"msg\":\"mark-39\""), std::string::npos);
  EXPECT_NE(dump.find("\"msg\":\"mark-40\""), std::string::npos);
  EXPECT_NE(dump.find("\"msg\":\"mark-" + std::to_string(total - 1) + "\""), std::string::npos);
  const std::size_t first_kept = dump.find("\"msg\":\"mark-40\"");
  const std::size_t last_kept = dump.find("\"msg\":\"mark-" + std::to_string(total - 1) + "\"");
  EXPECT_LT(first_kept, last_kept);  // oldest-to-newest within the thread
}

TEST_F(FlightRecorderTest, DumpCarriesSchemaBuildSpansEventsAndMetrics) {
  FlightRecorder::record(EventKind::kRequest, 42, "admitted", /*a=*/1, /*b=*/3);
  FlightRecorder::record(EventKind::kStall, 42, "stall", /*a=*/250, /*b=*/1);
  MetricsRegistry::global().counter("obs_fr_test_marker", "flight recorder test").fetch_add(1);
  FlightRecorder::instance().refresh_metrics_snapshot();

  std::string dump;
  {
    Span request("net.request", "test");
    Span batch("serve.run_batch", "test");
    dump = dump_to_temp("fr_schema.json");
  }

  EXPECT_EQ(dump.rfind("{\"schema\":\"paintplace-postmortem-v1\",\"signal\":11", 0), 0u);
  EXPECT_NE(dump.find("\"pid\":"), std::string::npos);
  EXPECT_NE(dump.find("\"build\":{\"git_sha\":\""), std::string::npos);
  EXPECT_NE(dump.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(dump.find("\"native_kernel\":"), std::string::npos);
  // This thread's span stack, bottom to top.
  EXPECT_NE(dump.find("\"span_stack\":[\"net.request\",\"serve.run_batch\"]"),
            std::string::npos);
  // Events carry kind names and both payload integers.
  EXPECT_NE(dump.find("\"kind\":\"request\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"stall\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace\":42"), std::string::npos);
  EXPECT_NE(dump.find("\"a\":250"), std::string::npos);
  // The metrics snapshot embeds the escaped registry exposition.
  EXPECT_NE(dump.find("\"metrics\":\""), std::string::npos);
  EXPECT_NE(dump.find("obs_fr_test_marker"), std::string::npos);
  // Balanced object, newline-terminated (the CI checker json.loads()es it).
  EXPECT_EQ(dump.back(), '\n');
  EXPECT_EQ(dump[dump.size() - 2], '}');
}

TEST_F(FlightRecorderTest, MessagesAreSanitizedAtRecordTime) {
  FlightRecorder::record(EventKind::kMark, 0, "quote\" slash\\ newline\n tab\t");
  const std::string dump = dump_to_temp("fr_sanitize.json");
  // The JSON-breaking bytes became underscores; no raw quote/backslash from
  // the message survives into the events array.
  EXPECT_NE(dump.find("\"msg\":\"quote_ slash_ newline_ tab_\""), std::string::npos);
}

TEST_F(FlightRecorderTest, LiveSpansMaintainTheForensicStack) {
  // enable() turns span stacks on, so a plain obs::Span pushes its name.
  std::string dump;
  {
    Span outer("fr.test.outer", "test");
    Span inner("fr.test.inner", "test");
    dump = dump_to_temp("fr_spans.json");
  }
  EXPECT_NE(dump.find("\"span_stack\":[\"fr.test.outer\",\"fr.test.inner\"]"),
            std::string::npos);
  // Both spans popped on scope exit: a fresh dump shows an empty stack.
  const std::string after = dump_to_temp("fr_spans_after.json");
  EXPECT_NE(after.find("\"span_stack\":[]"), std::string::npos);
}

TEST_F(FlightRecorderTest, ExitedThreadsSlotsAreReused) {
  // More short-lived threads than the slot table holds, one at a time: each
  // reuses the slot its predecessor returned, so the last one still records.
  constexpr int kThreads = 300;
  std::string dump;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&dump, i] {
      const std::string msg = "thread-" + std::to_string(i);
      FlightRecorder::record(EventKind::kMark, 0, msg.c_str());
      if (i == kThreads - 1) {
        Span span("fr.test.last_thread", "test");
        dump = dump_to_temp("fr_reuse.json");
      }
    }).join();
  }
  EXPECT_NE(dump.find("\"msg\":\"thread-" + std::to_string(kThreads - 1) + "\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"span_stack\":[\"fr.test.last_thread\"]"), std::string::npos);
}

}  // namespace
}  // namespace paintplace::obs
