#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace paintplace::obs {

namespace {

/// Bucket b covers [2^b, 2^(b+1)) millionths; bucket 0 also absorbs smaller
/// samples, the last bucket absorbs overflow.
int bucket_of(double value) {
  const double millionths = value * 1e6;
  if (millionths < 1.0) return 0;
  const int b = static_cast<int>(std::log2(millionths));
  return std::min(b, Histogram::kBuckets - 1);
}

double bucket_lower(int b) { return b == 0 ? 0.0 : std::exp2(b) * 1e-6; }

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void Histogram::record(double value) {
  if (value < 0.0) value = 0.0;
  buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_millionths_.fetch_add(static_cast<std::uint64_t>(value * 1e6),
                            std::memory_order_relaxed);
}

void Histogram::record(double value, std::uint64_t trace_id) {
  record(value);
  if (trace_id == 0) return;
  if (value < 0.0) value = 0.0;
  // Last-write-wins per bucket; the two stores are independently atomic, so
  // a torn pair can at worst pair a trace with a neighbouring sample's
  // value from the same bucket — fine for a debugging breadcrumb.
  const auto b = static_cast<std::size_t>(bucket_of(value));
  exemplar_trace_[b].store(trace_id, std::memory_order_relaxed);
  exemplar_millionths_[b].store(static_cast<std::uint64_t>(value * 1e6),
                                std::memory_order_relaxed);
}

double Histogram::exemplar_value(int b) const {
  return static_cast<double>(
             exemplar_millionths_[static_cast<std::size_t>(b)].load(
                 std::memory_order_relaxed)) *
         1e-6;
}

double Histogram::sum() const {
  return static_cast<double>(sum_millionths_.load(std::memory_order_relaxed)) * 1e-6;
}

double Histogram::bucket_upper(int b) { return std::exp2(b + 1) * 1e-6; }

double Histogram::quantile_of(const std::array<std::uint64_t, kBuckets>& buckets, double q) {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t n = 0;
  for (const std::uint64_t b : buckets) n += b;
  if (n == 0) return 0.0;
  const double target = q * static_cast<double>(n);
  double seen = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double in_bucket = static_cast<double>(buckets[static_cast<std::size_t>(b)]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      const double frac = (target - seen) / in_bucket;
      const double lo = bucket_lower(b), hi = bucket_upper(b);
      return lo + frac * (hi - lo);
    }
    seen += in_bucket;
  }
  return bucket_upper(kBuckets - 1);
}

double Histogram::quantile(double q) const {
  std::array<std::uint64_t, kBuckets> snapshot;
  for (int b = 0; b < kBuckets; ++b) snapshot[static_cast<std::size_t>(b)] = bucket_count(b);
  return quantile_of(snapshot, q);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_millionths_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry_of(const std::string& name, Kind kind,
                                                  const std::string& help) {
  PP_CHECK_MSG(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.help = help;
    switch (kind) {
      case Kind::kCounter: entry.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram: entry.histogram = std::make_unique<Histogram>(); break;
      case Kind::kInfo: break;           // labels set by the caller
      case Kind::kCallbackGauge: break;  // callback set by the caller
    }
    it = entries_.emplace(name, std::move(entry)).first;
  } else {
    PP_CHECK_MSG(it->second.kind == kind,
                 "metric " << name << " already registered as a different kind");
    if (it->second.help.empty() && !help.empty()) it->second.help = help;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help) {
  return *entry_of(name, Kind::kCounter, help).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  return *entry_of(name, Kind::kGauge, help).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help) {
  return *entry_of(name, Kind::kHistogram, help).histogram;
}

void MetricsRegistry::set_info(const std::string& name, const std::string& labels,
                               const std::string& help) {
  Entry& entry = entry_of(name, Kind::kInfo, help);
  std::lock_guard<std::mutex> lock(mu_);
  entry.info_labels = labels;
}

void MetricsRegistry::gauge_callback(const std::string& name, std::function<double()> fn,
                                     const std::string& help) {
  Entry& entry = entry_of(name, Kind::kCallbackGauge, help);
  std::lock_guard<std::mutex> lock(mu_);
  entry.callback = std::move(fn);
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.kind == Kind::kCounter ? it->second.counter.get()
                                                                   : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.kind == Kind::kHistogram
             ? it->second.histogram.get()
             : nullptr;
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.help.empty()) out += "# HELP " + name + " " + entry.help + "\n";
    switch (entry.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(entry.counter->load()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_value(entry.gauge->value()) + "\n";
        break;
      case Kind::kInfo:
        out += "# TYPE " + name + " gauge\n";
        out += name + "{" + entry.info_labels + "} 1\n";
        break;
      case Kind::kCallbackGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_value(entry.callback ? entry.callback() : 0.0) + "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t in_bucket = h.bucket_count(b);
          if (in_bucket == 0 && b != Histogram::kBuckets - 1) continue;  // keep it short
          cumulative += in_bucket;
          const bool last = b == Histogram::kBuckets - 1;
          const std::string le =
              last ? std::string("+Inf") : format_value(Histogram::bucket_upper(b));
          out += name + "_bucket{le=\"" + le + "\"} " +
                 std::to_string(last ? h.count() : cumulative) + "\n";
          // Exemplar: the most recent retained trace that landed in this
          // band, as a comment so plain Prometheus-text parsers pass over
          // it (OpenMetrics exemplars need the openmetrics content type).
          const std::uint64_t exemplar = h.exemplar_trace(b);
          if (exemplar != 0) {
            out += "# EXEMPLAR " + name + "_bucket{le=\"" + le + "\"} trace_id=" +
                   std::to_string(exemplar) + " value=" +
                   format_value(h.exemplar_value(b)) + "\n";
          }
        }
        out += name + "_sum " + format_value(h.sum()) + "\n";
        out += name + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

}  // namespace paintplace::obs
