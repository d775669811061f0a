// paintplace::obs — tail-based trace sampling.
//
// Full tracing records every span of every request; under a production
// swarm that is unaffordable (and mostly uninteresting — the healthy
// requests all look alike). The Sampler keeps the traces that matter:
//
//   * head sampling — a deterministic 1-in-N of requests is committed in
//     full, so the steady state stays visible at a bounded cost;
//   * tail retention — a request whose end-to-end latency exceeds the slow
//     threshold, or that ends in a shed/error, is *always* committed, even
//     when head sampling would have dropped it.
//
// Mechanically: the request front-end calls begin(trace_id) when it mints a
// trace id. While the request runs, every span carrying that id is offered
// to the sampler instead of being recorded — head-sampled requests pass
// straight through to the per-thread rings, everything else buffers
// provisionally (tagged with the thread slot whose ring it would have landed
// in, so a commit preserves thread attribution). At completion, finish(trace_id, latency,
// outcome) either commits the buffered spans to their rings or discards
// them. Spans with trace id 0 (or an id the sampler was never told about —
// e.g. in-process ForecastServer traffic) bypass the sampler entirely, so
// enabling it never loses non-request instrumentation.
//
// Decisions are counted in MetricsRegistry::global():
//   obs_trace_sampled_total        head-sampled requests (committed live)
//   obs_trace_retained_slow_total  tail-retained: latency over threshold
//   obs_trace_retained_error_total tail-retained: shed or error outcome
//   obs_trace_retained_stall_total tail-retained: watchdog force_retain
//   obs_trace_discarded_total      requests whose spans were dropped
//
// Knobs: ServeConfig::{trace_sample,trace_slow_ms}, forecast_serve
// --trace-sample/--trace-slow-ms, or PAINTPLACE_TRACE_SAMPLE /
// PAINTPLACE_TRACE_SLOW_MS in the environment.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace paintplace::obs {

class Counter;

struct SamplerConfig {
  /// Head-sample 1 in this many requests. 1 keeps everything (tail logic
  /// still runs, but every request is head-sampled); must be >= 1.
  std::uint64_t sample_every = 100;
  /// Requests at least this slow commit regardless of the head decision.
  double slow_threshold_s = 0.100;
  /// Seed for the deterministic head-sampling hash — the same seed and
  /// request sequence reproduce the same decisions (tests rely on it).
  std::uint64_t seed = 0;
  /// Per-request cap on provisionally buffered spans; beyond it the newest
  /// spans are dropped (a runaway request cannot balloon memory).
  std::size_t max_buffered_spans = 512;
};

/// How a request ended, from the layer that owns its lifecycle (the net
/// front-end: writer resolution, shed decision, or decode/forward failure).
enum class RequestOutcome : std::uint8_t { kOk = 0, kShed = 1, kError = 2 };

class Sampler {
 public:
  Sampler();

  /// Enables sampling with the given policy and resets decision state.
  void configure(const SamplerConfig& config);
  /// Back to record-everything (PR 7 behavior). Buffered spans are dropped.
  void disable();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Registers a request at the point its trace id is minted and takes the
  /// head-sampling decision for it. No-op while inactive.
  void begin(std::uint64_t trace_id);

  /// Offers a completed span. Returns true when the sampler consumed it
  /// (buffered provisionally); false when the caller should record it
  /// directly (head-sampled request, or an id begin() never saw).
  bool offer(const SpanEvent& event, ThreadSlot* slot);

  /// Commits (slow / shed / error) or discards the request's buffered
  /// spans and bumps the decision counters. Unknown ids are ignored.
  /// Returns false only when the request's spans were discarded — i.e.
  /// true means the trace id is (conceptually) present in the trace, which
  /// is what exemplar attachment wants to know.
  bool finish(std::uint64_t trace_id, double latency_s, RequestOutcome outcome);

  /// Commits a request's buffered spans immediately and marks it retained,
  /// regardless of the head decision — the watchdog calls this for a
  /// stalled request so its evidence survives even if the process never
  /// reaches finish(). Later spans for the id record live; a later
  /// finish() treats it as already committed. No-op for unknown ids.
  void force_retain(std::uint64_t trace_id);

  /// Drops every in-flight request's buffer and restarts the deterministic
  /// decision sequence (tests, shutdown).
  void reset();

  /// Requests currently buffered (tests).
  std::size_t pending() const;

 private:
  struct PendingRequest {
    bool head_sampled = false;
    std::vector<std::pair<ThreadSlot*, SpanEvent>> spans;
  };

  std::atomic<bool> active_{false};

  mutable std::mutex mu_;
  SamplerConfig config_;
  std::uint64_t decisions_ = 0;  ///< requests seen since configure()/reset()
  std::unordered_map<std::uint64_t, PendingRequest> pending_;

  Counter* sampled_ = nullptr;
  Counter* retained_slow_ = nullptr;
  Counter* retained_error_ = nullptr;
  Counter* retained_stall_ = nullptr;
  Counter* discarded_ = nullptr;
};

}  // namespace paintplace::obs
