// paintplace::obs — the one background thread obs runs.
//
// Everything in obs that polls — SLO windows (slo.h), watchdog scans
// (watchdog.h), profiler samples (profiler.h), and NetServer's periodic
// stats line — registers a task here instead of owning a thread. The ticker
// runs each task on its own period from a single thread that sleeps on a
// condition variable until the next task is due, so removing a task (and
// with it, shutting a server down) never waits out a sleep. The thread
// exists only while some task is registered: a process with no live
// NetServer, no running profiler and no watchdog has no obs thread.
//
// Tasks run one at a time and must not add or remove tasks themselves.
// Each component keeps its deterministic tick(now) public, so tests drive
// the same logic without the ticker.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace paintplace::obs {

class Ticker {
 public:
  using TaskId = std::uint64_t;  ///< never 0

  static Ticker& instance();
  ~Ticker();

  /// Runs `fn` every `period` (first run one period from now), starting the
  /// thread if this is the first task.
  TaskId add(std::chrono::microseconds period, std::function<void()> fn);
  /// Unregisters a task. On return it is not running and never runs again;
  /// removing the last task joins the thread.
  void remove(TaskId id);

  bool running() const;  ///< the thread exists (tests)

 private:
  struct Task {
    TaskId id;
    std::chrono::steady_clock::duration period;
    std::chrono::steady_clock::time_point due;
    std::shared_ptr<const std::function<void()>> fn;
  };

  Ticker() = default;
  void run();

  mutable std::mutex lifecycle_mu_;  ///< serialises add/remove; guards thread_
  std::thread thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Task> tasks_;
  TaskId next_id_ = 1;
  TaskId running_task_ = 0;  ///< the task whose fn is executing, 0 = none
  bool stop_ = false;
};

}  // namespace paintplace::obs
