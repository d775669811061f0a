// paintplace::obs — unified metrics registry.
//
// One process-wide home for every counter, gauge, and histogram the stack
// emits (net::Metrics is a typed view over it — see net/metrics.h), and the
// one metrics exposition: the PPN1 metrics frame and `forecast_serve
// --metrics-dump` both serve render_prometheus(). Metrics are get-or-create
// by name: the first caller creates the instrument, later callers bind the
// same one, so the serving path, the training loop, and the GEMM wrappers
// all land in a single exposition.
//
// Everything is cheap enough for hot paths: Counter::fetch_add is one
// relaxed atomic increment, Histogram::record is two. Name lookup takes a
// mutex, so call sites cache the returned reference (instrument addresses
// are stable for the registry's lifetime) instead of re-looking-up per
// event.
//
// Exposition is Prometheus text format: `# TYPE` headers, `name value`
// samples, histograms as cumulative `_bucket{le="..."}` series plus `_sum`
// and `_count`. A flat `grep '^name '` keeps working — samples are still
// one `name value` per line.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.h"

namespace paintplace::obs {

/// Monotonic counter. The atomic-compatible method names (fetch_add, load,
/// store) keep call sites that used to hold a raw std::atomic unchanged.
class Counter {
 public:
  void fetch_add(std::uint64_t n = 1,
                 std::memory_order order = std::memory_order_relaxed) {
    value_.fetch_add(n, order);
  }
  std::uint64_t load(std::memory_order order = std::memory_order_relaxed) const {
    return value_.load(order);
  }
  void store(std::uint64_t v,
             std::memory_order order = std::memory_order_relaxed) {
    value_.store(v, order);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, versions, rates).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-spaced histogram over positive values: bucket b covers
/// [2^b, 2^(b+1)) millionths of a unit — for latencies in seconds that is
/// 1µs up to ~33.5s, with bucket 0 absorbing anything smaller and the last
/// bucket absorbing overflow. record() never blocks; quantiles interpolate
/// linearly inside the winning bucket at read time.
class Histogram {
 public:
  static constexpr int kBuckets = 26;

  void record(double value);
  /// Records `value` and attaches `trace_id` as the bucket's exemplar — the
  /// most recent retained trace that landed in that latency band. 0 leaves
  /// the exemplar untouched. Exposition renders exemplars as `# EXEMPLAR`
  /// comment lines so an operator can jump from a histogram bucket straight
  /// to a concrete trace (OpenMetrics-style, comment-encoded to stay plain
  /// Prometheus-text compatible).
  void record(double value, std::uint64_t trace_id);
  /// Exemplar trace id last attached to bucket b (0 = none).
  std::uint64_t exemplar_trace(int b) const {
    return exemplar_trace_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
  /// The value that carried that exemplar, in recorded units.
  double exemplar_value(int b) const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of recorded values (exact to one millionth of a unit per sample).
  double sum() const;

  /// Value below which fraction `q` (0..1] of samples fall, interpolated
  /// inside the winning bucket. 0 with no samples.
  double quantile(double q) const;

  /// The same interpolation over a raw bucket-count array — for quantiles
  /// of *derived* distributions that were never a live Histogram: windowed
  /// deltas (SloMonitor), cross-process aggregation (forecast_client ships
  /// bucket counts over a pipe) and scraped expositions.
  static double quantile_of(const std::array<std::uint64_t, kBuckets>& buckets, double q);

  void reset();

  std::uint64_t bucket_count(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket b in recorded units (2^(b+1) millionths).
  static double bucket_upper(int b);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::array<std::atomic<std::uint64_t>, kBuckets> exemplar_trace_{};
  std::array<std::atomic<std::uint64_t>, kBuckets> exemplar_millionths_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_millionths_{0};
};

/// Get-or-create registry of named instruments. Names follow Prometheus
/// conventions (snake_case, `_total` for counters, `_seconds` for latency
/// histograms). Registering one name as two different instrument kinds
/// throws CheckError.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem defaults to.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "");

  /// Prometheus-style info metric: rendered as `name{labels} 1`. `labels`
  /// is the pre-formatted label body (`key="value",key2="value2"`).
  /// Re-registering the same name replaces the labels — idempotent process
  /// identity (build_info) rather than a time series.
  void set_info(const std::string& name, const std::string& labels,
                const std::string& help = "");

  /// Gauge whose value is computed at exposition time (uptime, derived
  /// rates). The callback must be thread-safe, non-throwing, and must not
  /// touch the registry (it runs under the registry lock).
  void gauge_callback(const std::string& name, std::function<double()> fn,
                      const std::string& help = "");

  /// Reads an instrument if it exists (SloMonitor polls by name without
  /// creating). nullptr / empty when the name is absent or a different kind.
  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Prometheus text exposition of every instrument, in name order.
  std::string render_prometheus() const;

  /// Registered instrument names, in name order (tests, debugging).
  std::vector<std::string> names() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kInfo, kCallbackGauge };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::string info_labels;        ///< kInfo
    std::function<double()> callback;  ///< kCallbackGauge
  };

  Entry& entry_of(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // ordered — exposition is sorted
};

}  // namespace paintplace::obs
