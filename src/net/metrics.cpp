#include "net/metrics.h"

namespace paintplace::net {

Metrics::Metrics(obs::MetricsRegistry& registry)
    : connections_opened(registry.counter("net_connections_opened",
                                          "TCP connections accepted")),
      connections_closed(registry.counter("net_connections_closed",
                                          "TCP connections torn down")),
      idle_closed(registry.counter("net_idle_closed",
                                   "connections closed by the idle deadline")),
      requests_accepted(registry.counter("net_requests_accepted",
                                         "forecast requests admitted to a replica")),
      requests_completed(registry.counter("net_requests_completed",
                                          "responses written, any status")),
      requests_failed(registry.counter("net_requests_failed",
                                       "responses written with kFailed")),
      shed_queue_full(registry.counter("net_shed_queue_full",
                                       "requests shed: replica in-flight bound")),
      shed_client_cap(registry.counter("net_shed_client_cap",
                                       "requests shed: per-client fairness cap")),
      protocol_errors(registry.counter("net_protocol_errors",
                                       "malformed or out-of-place frames")),
      metrics_requests(registry.counter("net_metrics_requests",
                                        "kMetricsRequest frames served")),
      hot_swaps(registry.counter("net_hot_swaps", "checkpoint hot swaps published")),
      latency(registry.histogram("net_request_latency_seconds",
                                 "admission to response-written")),
      pool_replicas(registry.gauge("pool_replicas", "ForecastServer replicas")),
      pool_queue_depth(registry.gauge("pool_queue_depth",
                                      "admitted-but-unanswered requests, all replicas")),
      pool_max_replica_depth(registry.gauge("pool_max_replica_depth",
                                            "admitted-but-unanswered requests, deepest replica")),
      pool_cache_hits(registry.gauge("pool_cache_hits", "result-cache hits, all replicas")),
      pool_cache_requests(registry.gauge("pool_cache_requests",
                                         "requests submitted to the replicas")),
      pool_model_version(registry.gauge("pool_model_version", "serving model version")) {
  reset();
}

void Metrics::set_pool(int replicas, const PoolStats& stats) {
  pool_replicas.set(replicas);
  pool_queue_depth.set(static_cast<double>(stats.queue_depth));
  pool_max_replica_depth.set(static_cast<double>(stats.max_replica_depth));
  pool_cache_hits.set(static_cast<double>(stats.cache_hits));
  pool_cache_requests.set(static_cast<double>(stats.cache_requests));
  pool_model_version.set(static_cast<double>(stats.model_version));
}

void Metrics::reset() {
  for (obs::Counter* c : {&connections_opened, &connections_closed, &idle_closed,
                          &requests_accepted, &requests_completed, &requests_failed,
                          &shed_queue_full, &shed_client_cap, &protocol_errors,
                          &metrics_requests, &hot_swaps}) {
    c->store(0);
  }
  latency.reset();
  set_pool(0, PoolStats{});
}

}  // namespace paintplace::net
