// obs ticker tests: tasks run on their own periods from one thread, a
// removed task never runs again, and the thread exists only while some task
// is registered.
#include "obs/ticker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace paintplace::obs {
namespace {

using namespace std::chrono_literals;

/// Polls `done` for up to five seconds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Ticker, RunsTasksUntilRemovedAndStopsWithTheLast) {
  Ticker& ticker = Ticker::instance();
  ASSERT_FALSE(ticker.running());
  std::atomic<int> fast{0}, slow{0};
  std::thread::id fast_thread, slow_thread;
  const Ticker::TaskId a = ticker.add(1ms, [&] {
    fast_thread = std::this_thread::get_id();
    fast += 1;
  });
  const Ticker::TaskId b = ticker.add(20ms, [&] {
    slow_thread = std::this_thread::get_id();
    slow += 1;
  });
  EXPECT_TRUE(ticker.running());
  ASSERT_TRUE(eventually([&] { return fast >= 5 && slow >= 1; }));

  ticker.remove(a);
  const int fast_after_remove = fast;
  EXPECT_TRUE(ticker.running());  // b is still registered
  ASSERT_TRUE(eventually([&] { return slow >= 3; }));
  EXPECT_EQ(fast, fast_after_remove);
  EXPECT_EQ(fast_thread, slow_thread);  // one thread runs every task

  ticker.remove(b);
  EXPECT_FALSE(ticker.running());
}

TEST(Ticker, RemovingALongPeriodTaskDoesNotWaitOutItsPeriod) {
  Ticker& ticker = Ticker::instance();
  const Ticker::TaskId id = ticker.add(std::chrono::seconds(60), [] {});
  const auto start = std::chrono::steady_clock::now();
  ticker.remove(id);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  EXPECT_FALSE(ticker.running());
}

}  // namespace
}  // namespace paintplace::obs
