#include "obs/watchdog.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/sampler.h"
#include "obs/ticker.h"
#include "obs/trace.h"

namespace paintplace::obs {

Watchdog::Watchdog(MetricsRegistry& registry)
    : epoch_(std::chrono::steady_clock::now()) {
  // Gauges exist from construction so the health frame and scrapes always
  // have them, reading 0 until a stall actually happens.
  stalls_gauge_ = &registry.gauge(
      "obs_watchdog_stalls", "Stall reports filed by the request watchdog");
  oldest_gauge_ = &registry.gauge(
      "obs_watchdog_oldest_request_ms",
      "Age of the oldest in-flight request at the last watchdog tick");
}

Watchdog::~Watchdog() { stop(); }

double Watchdog::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Watchdog::configure(const WatchdogConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  enabled_.store(config.stall_ms > 0.0, std::memory_order_relaxed);
}

void Watchdog::set_depths_fn(DepthsFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  depths_fn_ = std::move(fn);
}

void Watchdog::start() {
  if (!enabled_.load(std::memory_order_relaxed) || task_ != 0) return;
  double period_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    period_ms = std::clamp(config_.stall_ms / 4.0, 10.0, 200.0);
  }
  task_ = Ticker::instance().add(
      std::chrono::microseconds(static_cast<std::int64_t>(period_ms * 1e3)),
      [this] { tick(now_s()); });
}

void Watchdog::stop() {
  if (task_ != 0) Ticker::instance().remove(std::exchange(task_, 0));
}

void Watchdog::track(std::uint64_t trace_id, int replica) {
  if (!enabled_.load(std::memory_order_relaxed) || trace_id == 0) return;
  const double now = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_[trace_id] = InFlight{now, replica, false};
}

void Watchdog::complete(std::uint64_t trace_id) {
  if (!enabled_.load(std::memory_order_relaxed) || trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_.erase(trace_id);
}

double Watchdog::oldest_request_ms() const { return oldest_gauge_->value(); }

std::size_t Watchdog::tracked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_.size();
}

void Watchdog::tick(double now) {
  struct Stall {
    std::uint64_t trace_id;
    double age_ms;
    int replica;
  };
  std::vector<Stall> stalls;
  std::vector<std::int64_t> depths;
  double oldest_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_.load(std::memory_order_relaxed)) return;
    for (auto& [trace_id, req] : in_flight_) {
      const double age_ms = (now - req.admitted_s) * 1e3;
      oldest_ms = std::max(oldest_ms, age_ms);
      if (age_ms > config_.stall_ms && !req.reported) {
        req.reported = true;
        stalls.push_back({trace_id, age_ms, req.replica});
      }
    }
    if (depths_fn_) depths = depths_fn_();
  }
  oldest_gauge_->set(oldest_ms);

  for (const Stall& s : stalls) {
    const std::uint64_t total =
        stalls_.fetch_add(1, std::memory_order_relaxed) + 1;
    stalls_gauge_->set(static_cast<double>(total));

    std::string depth_list;
    for (std::size_t i = 0; i < depths.size(); ++i) {
      if (i > 0) depth_list.push_back(',');
      depth_list += std::to_string(depths[i]);
    }
    Log::instance()
        .warn("watchdog", "stall")
        .kv("trace", s.trace_id)
        .kv("age_ms", s.age_ms)
        .kv("stall_ms", [this] {
          std::lock_guard<std::mutex> lock(mu_);
          return config_.stall_ms;
        }())
        .kv("replica", s.replica)
        .kv("in_flight", static_cast<std::int64_t>(tracked()))
        .kv("queue_depths", depth_list);

    FlightRecorder::record(EventKind::kStall, s.trace_id, "request stalled",
                           static_cast<std::int64_t>(s.age_ms), s.replica);

    // Whatever the head-sampling decision was, the stuck request's spans
    // must reach the trace: commit-on-arrival through the tail path.
    Tracer::instance().sampler().force_retain(s.trace_id);
  }

  // A crash dump embeds the last snapshot taken here — at most one tick
  // stale.
  if (FlightRecorder::instance().enabled()) {
    FlightRecorder::instance().refresh_metrics_snapshot();
  }
}

}  // namespace paintplace::obs
