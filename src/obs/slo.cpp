#include "obs/slo.h"

#include <algorithm>
#include <utility>

#include "obs/ticker.h"

namespace paintplace::obs {

namespace {

std::uint64_t saturating_sub(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

const char* to_string(SloState state) {
  switch (state) {
    case SloState::kHealthy: return "healthy";
    case SloState::kWarning: return "warning";
    case SloState::kBreached: return "breached";
  }
  return "unknown";
}

SloMonitor::SloMonitor(const SloConfig& config, MetricsRegistry& registry)
    : config_(config),
      registry_(registry),
      epoch_(std::chrono::steady_clock::now()),
      window_p99_gauge_(registry.gauge("slo_window_p99_seconds",
                                       "windowed p99 request latency")),
      window_error_rate_gauge_(registry.gauge("slo_window_error_rate",
                                              "windowed (failed+shed)/total rate")),
      latency_burn_gauge_(registry.gauge("slo_latency_burn_rate",
                                         "windowed p99 / latency objective")),
      error_burn_gauge_(registry.gauge("slo_error_burn_rate",
                                       "windowed error rate / error objective")),
      state_gauge_(registry.gauge("slo_state",
                                  "0 healthy, 1 warning, 2 breached")) {}

SloMonitor::~SloMonitor() { stop(); }

void SloMonitor::start() {
  if (task_ == 0) task_ = Ticker::instance().add(kTickPeriod, [this] { tick(); });
}

void SloMonitor::stop() {
  if (task_ != 0) Ticker::instance().remove(std::exchange(task_, 0));
}

void SloMonitor::tick() {
  tick(std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count());
}

SloMonitor::Snapshot SloMonitor::read_instruments(double now_s) const {
  Snapshot snap;
  snap.t = now_s;
  if (const Histogram* h = registry_.find_histogram(config_.latency_histogram)) {
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      snap.buckets[static_cast<std::size_t>(b)] = h->bucket_count(b);
    }
  }
  if (const Counter* c = registry_.find_counter(config_.completed_counter)) {
    snap.completed = c->load();
  }
  if (const Counter* c = registry_.find_counter(config_.failed_counter)) {
    snap.failed = c->load();
  }
  for (const std::string& name : config_.shed_counters) {
    if (const Counter* c = registry_.find_counter(name)) snap.shed += c->load();
  }
  return snap;
}

void SloMonitor::tick(double now_s) {
  Snapshot snap = read_instruments(now_s);
  std::lock_guard<std::mutex> lock(mu_);
  snaps_.push_back(std::move(snap));
  // Keep the youngest snapshot at or past the window edge as the delta
  // base (so the window always spans its full width once history allows),
  // and drop everything older than it.
  const double cutoff = now_s - config_.window_s;
  while (snaps_.size() >= 2 && snaps_[1].t <= cutoff) snaps_.pop_front();
  recompute_locked();
}

void SloMonitor::recompute_locked() {
  const Snapshot& base = snaps_.front();
  const Snapshot& cur = snaps_.back();

  Status s;
  const std::uint64_t completed = saturating_sub(cur.completed, base.completed);
  const std::uint64_t failed = saturating_sub(cur.failed, base.failed);
  const std::uint64_t shed = saturating_sub(cur.shed, base.shed);
  s.window_requests = completed + shed;
  if (s.window_requests > 0) {
    std::array<std::uint64_t, Histogram::kBuckets> delta{};
    for (std::size_t b = 0; b < delta.size(); ++b) {
      delta[b] = saturating_sub(cur.buckets[b], base.buckets[b]);
    }
    s.window_p99_s = Histogram::quantile_of(delta, 0.99);
    s.window_error_rate =
        static_cast<double>(failed + shed) / static_cast<double>(s.window_requests);
  }
  if (config_.latency_objective_s > 0.0) {
    s.latency_burn_rate = s.window_p99_s / config_.latency_objective_s;
  }
  if (config_.error_rate_objective > 0.0) {
    s.error_burn_rate = s.window_error_rate / config_.error_rate_objective;
  }
  const double worst_burn = std::max(s.latency_burn_rate, s.error_burn_rate);
  s.state = worst_burn > 1.0              ? SloState::kBreached
            : worst_burn > config_.warning_burn ? SloState::kWarning
                                                : SloState::kHealthy;
  status_ = s;

  window_p99_gauge_.set(s.window_p99_s);
  window_error_rate_gauge_.set(s.window_error_rate);
  latency_burn_gauge_.set(s.latency_burn_rate);
  error_burn_gauge_.set(s.error_burn_rate);
  state_gauge_.set(static_cast<double>(static_cast<int>(s.state)));
}

SloMonitor::Status SloMonitor::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace paintplace::obs
