// paintplace::obs — stall watchdog: finds the request that is stuck.
//
// The SLO monitor (slo.h) says *that* p99 is breached; the watchdog says
// *which* request is responsible. The net front-end registers every
// admitted request (track) and deregisters it at completion (complete); a
// task on the obs ticker (ticker.h) checks every in-flight request's
// admission-to-completion age against the stall threshold, at a quarter of
// the threshold (clamped to 10..200 ms). Past it, the
// watchdog files a structured stall report exactly once per request:
//
//   * an obs::Log line (subsystem "watchdog", event "stall") naming the
//     trace id, age, owning replica, and current per-replica queue depths,
//   * a FlightRecorder kStall event (so a later crash dump shows the stall
//     history),
//   * Sampler::force_retain(trace_id) — the stuck request's spans are
//     committed through the tail path no matter what head sampling decided,
//     so the trace evidence survives,
//   * gauge updates: obs_watchdog_stalls (total reports) and
//     obs_watchdog_oldest_request_ms (age of the oldest in-flight request,
//     refreshed every tick) — both carried in the PPN1 health frame.
//
// Each tick also refreshes the FlightRecorder metrics snapshot, so a crash
// dump's registry view is at most one tick stale.
//
// track/complete cost one mutex-protected map op per request — noise next
// to a forecast — and collapse to a relaxed load + branch when no stall
// threshold is configured. tick(now_s) is public and deterministic for
// tests (SloMonitor style); start()/stop() run it on the ticker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace paintplace::obs {

class Counter;
class Gauge;
class MetricsRegistry;

struct WatchdogConfig {
  /// A request in flight longer than this is reported as stalled.
  /// 0 disables stall detection (track/complete become cheap no-ops).
  double stall_ms = 0.0;
};

class Watchdog {
 public:
  /// Snapshot of per-replica queue depths, polled at each tick for the
  /// stall report. Optional; return {} when there is no pool.
  using DepthsFn = std::function<std::vector<std::int64_t>()>;

  explicit Watchdog(MetricsRegistry& registry);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void configure(const WatchdogConfig& config);
  void set_depths_fn(DepthsFn fn);

  /// Registers tick() with the obs ticker (no-op when stall_ms is 0).
  /// stop() unregisters it; the destructor stops implicitly. Neither is
  /// thread-safe against the other.
  void start();
  void stop();

  /// Registers an admitted request. `replica` is the shard it was queued
  /// on (-1 when unknown). No-op while disabled.
  void track(std::uint64_t trace_id, int replica);
  /// Deregisters a completed (or failed, or shed-after-track) request.
  void complete(std::uint64_t trace_id);

  /// One monitor pass at time `now_s` (seconds on the watchdog's own
  /// monotonic clock — tests pass synthetic times). Public for determinism.
  void tick(double now_s);

  /// Total stall reports filed (mirrors the obs_watchdog_stalls gauge).
  std::uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }
  /// Age of the oldest currently in-flight request at the last tick, ms.
  double oldest_request_ms() const;
  /// In-flight requests currently tracked (tests).
  std::size_t tracked() const;

  /// Seconds since this watchdog was constructed — the clock track() stamps
  /// admissions with; tests mixing real track() calls with synthetic tick
  /// times read it to stay on one timeline.
  double now_s() const;

 private:
  std::atomic<bool> enabled_{false};  ///< stall_ms > 0
  std::uint64_t task_ = 0;            ///< ticker task id, 0 = not started

  struct InFlight {
    double admitted_s = 0.0;
    int replica = -1;
    bool reported = false;
  };

  mutable std::mutex mu_;
  WatchdogConfig config_;
  DepthsFn depths_fn_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;

  std::atomic<std::uint64_t> stalls_{0};
  Gauge* stalls_gauge_ = nullptr;
  Gauge* oldest_gauge_ = nullptr;

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace paintplace::obs
