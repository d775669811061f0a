#include "obs/ticker.h"

#include <algorithm>

namespace paintplace::obs {

Ticker& Ticker::instance() {
  static Ticker ticker;
  return ticker;
}

Ticker::~Ticker() {
  // Tasks still registered at exit (a profiler never stopped): stop the
  // thread before the statics its tasks touch go away.
  std::lock_guard<std::mutex> life(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Ticker::TaskId Ticker::add(std::chrono::microseconds period, std::function<void()> fn) {
  std::lock_guard<std::mutex> life(lifecycle_mu_);
  TaskId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    tasks_.push_back(Task{id, period, std::chrono::steady_clock::now() + period,
                          std::make_shared<const std::function<void()>>(std::move(fn))});
  }
  cv_.notify_all();
  if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
  return id;
}

void Ticker::remove(TaskId id) {
  std::lock_guard<std::mutex> life(lifecycle_mu_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                                [id](const Task& t) { return t.id == id; }),
                 tasks_.end());
    cv_.wait(lock, [&] { return running_task_ != id; });
    if (!tasks_.empty()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = false;
}

bool Ticker::running() const {
  std::lock_guard<std::mutex> life(lifecycle_mu_);
  return thread_.joinable();
}

void Ticker::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    auto next = std::min_element(tasks_.begin(), tasks_.end(),
                                 [](const Task& a, const Task& b) { return a.due < b.due; });
    if (next == tasks_.end()) {
      cv_.wait(lock);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now < next->due) {
      cv_.wait_until(lock, next->due);
      continue;
    }
    // A late tick does not queue up catch-up runs.
    next->due += next->period;
    if (next->due <= now) next->due = now + next->period;
    running_task_ = next->id;
    const std::shared_ptr<const std::function<void()>> fn = next->fn;
    lock.unlock();
    (*fn)();
    lock.lock();
    running_task_ = 0;
    cv_.notify_all();
  }
}

}  // namespace paintplace::obs
