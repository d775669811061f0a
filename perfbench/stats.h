// The benchmark's own statistics: percentiles, request outcome tallies and
// open-loop due-time accounting. Header-only and free of the paintplace
// library so the unit tests (test_stats.cpp) exercise exactly this code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0,100]) of an unsorted sample;
/// 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// The highest percentile of the ladder 99.9/99/95/90/75/50 that has at
/// least `min_beyond` of `n` samples beyond it, i.e. n * (1 - p/100) >=
/// min_beyond. Falls back to the median when even p50 is unsupported. A
/// workload fixes its tail percentile by calling this with its planned
/// minimum sample count, so the reported percentile never shifts between
/// runs of different speed.
inline double tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Integer form of n * (1 - p/100) >= min_beyond, exact for the ladder.
    const auto beyond_per_mille = static_cast<std::uint64_t>(std::llround((100.0 - p) * 10.0));
    if (static_cast<std::uint64_t>(n) * beyond_per_mille >=
        static_cast<std::uint64_t>(min_beyond) * 1000) {
      return p;
    }
  }
  return 50.0;
}

/// Median, over `k` equal consecutive chunks of `values` (in arrival
/// order), of each chunk's p-th percentile. A stall that hits one chunk
/// moves one chunk's tail, not the reported one; a slowdown that hits every
/// chunk moves them all. k = 1 is the plain percentile.
inline double chunked_percentile(const std::vector<double>& values, double p, std::size_t k) {
  const std::size_t n = k == 0 ? 0 : values.size() / k;
  if (k <= 1 || n == 0) return percentile(values, p);
  std::vector<double> tails;
  for (std::size_t i = 0; i < k; ++i) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(i * n);
    const std::vector<double> chunk(first, first + static_cast<std::ptrdiff_t>(n));
    tails.push_back(percentile(chunk, p));
  }
  return median(std::move(tails));
}

/// How one attempted request ended.
enum class Outcome : std::uint8_t { kOk, kShed, kFailed, kProtocolError };

/// Attempted/failed bookkeeping. Everything that is not kOk is a failure:
/// a shed request is a miss for its caller just like a failed one.
struct Tally {
  std::uint64_t ok = 0, shed = 0, failed = 0, protocol_errors = 0;

  void record(Outcome o) {
    switch (o) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kFailed: ++failed; break;
      case Outcome::kProtocolError: ++protocol_errors; break;
    }
  }
  std::uint64_t attempted() const { return ok + failures(); }
  std::uint64_t failures() const { return shed + failed + protocol_errors; }
  double failed_frac() const {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(failures()) / static_cast<double>(attempted());
  }
  Tally& operator+=(const Tally& o) {
    ok += o.ok, shed += o.shed, failed += o.failed, protocol_errors += o.protocol_errors;
    return *this;
  }
};

/// Due times of Poisson arrivals at `rate_per_s` over [0, seconds),
/// conditioned on their count: exactly round(rate * seconds) instants,
/// uniform over the window and sorted (a Poisson process given its count).
/// Seeds change when requests arrive, not how many, so the offered load of
/// every run is the same.
inline std::vector<double> poisson_arrivals(double rate_per_s, double seconds,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> at(0.0, seconds);
  std::vector<double> due(static_cast<std::size_t>(std::llround(rate_per_s * seconds)));
  for (double& t : due) t = at(rng);
  std::sort(due.begin(), due.end());
  return due;
}

/// Open-loop accounting: a request's latency runs from when it was *due*,
/// not from when the generator got round to sending it, so a stall (in the
/// generator or the system) is charged to every request queued behind it.
/// The generator's own lateness (sent - due) is kept separately: if it
/// grows, the run measured the generator, not the system.
class OpenLoopLedger {
 public:
  void sent(std::uint64_t id, double due_s, double sent_s) {
    due_[id] = due_s;
    lag_s_.push_back(sent_s - due_s);
  }

  /// Records the response to `id`; returns false for an unknown id.
  bool completed(std::uint64_t id, double done_s, Outcome outcome) {
    const auto it = due_.find(id);
    if (it == due_.end()) return false;
    tally_.record(outcome);
    if (outcome == Outcome::kOk) latency_s_.push_back(done_s - it->second);
    due_.erase(it);
    return true;
  }

  std::size_t in_flight() const { return due_.size(); }
  const Tally& tally() const { return tally_; }
  /// Due-to-response seconds of every kOk response.
  const std::vector<double>& latencies() const { return latency_s_; }
  const std::vector<double>& lags() const { return lag_s_; }

 private:
  std::unordered_map<std::uint64_t, double> due_;
  std::vector<double> latency_s_;
  std::vector<double> lag_s_;
  Tally tally_;
};

}  // namespace perfbench
