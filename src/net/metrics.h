// Counters, pool gauges and the latency histogram of the networked serving
// front-end.
//
// A typed *view* over the process-wide obs::MetricsRegistry: every
// instrument below is registered under its exposition name (net_*, pool_*),
// so it appears in the registry's Prometheus exposition — the one the PPN1
// metrics frame serves — alongside the serving/GEMM/training metrics.
// Construction binds (and resets) the named instruments — counters read
// "since this server instance started"; run one NetServer per process if
// you scrape exact counts.
//
// Everything is cheap enough to sit on the request path: counters are
// relaxed atomics, and the histogram records into log-spaced atomic buckets
// (record() is one increment, quantiles are computed at read time).
#pragma once

#include <cstdint>

#include "net/replica_pool.h"
#include "obs/metrics_registry.h"

namespace paintplace::net {

/// The front-end's instruments. The replica pool and server bump the
/// counters; individual counters are exact, cross-counter skew is bounded
/// by in-flight requests.
class Metrics {
 public:
  explicit Metrics(obs::MetricsRegistry& registry = obs::MetricsRegistry::global());

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  obs::Counter& connections_opened;
  obs::Counter& connections_closed;
  obs::Counter& idle_closed;         ///< closed by the server's idle deadline
  obs::Counter& requests_accepted;   ///< admitted to a replica
  obs::Counter& requests_completed;  ///< response written, any status
  obs::Counter& requests_failed;     ///< completed with kFailed
  obs::Counter& shed_queue_full;
  obs::Counter& shed_client_cap;
  obs::Counter& protocol_errors;
  obs::Counter& metrics_requests;
  obs::Counter& hot_swaps;

  obs::Histogram& latency;  ///< admission -> response-written, seconds

  // Pool state as of the last set_pool() (the server calls it per scrape).
  obs::Gauge& pool_replicas;
  obs::Gauge& pool_queue_depth;        ///< admitted-but-unanswered, all replicas
  obs::Gauge& pool_max_replica_depth;  ///< deepest single replica
  obs::Gauge& pool_cache_hits;
  obs::Gauge& pool_cache_requests;     ///< total submits seen by the replicas
  obs::Gauge& pool_model_version;

  std::uint64_t shed_total() const {
    return shed_queue_full.load() + shed_client_cap.load();
  }

  void set_pool(int replicas, const PoolStats& stats);

  /// Zeroes every instrument (runs at construction: a new server instance
  /// starts its counts fresh even though the registry persists).
  void reset();
};

}  // namespace paintplace::net
