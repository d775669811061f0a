#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>

#include "obs/log.h"
#include "obs/thread_slot.h"
#include "obs/ticker.h"

namespace paintplace::obs {

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

bool Profiler::enabled() const {
  return detail::span_stacks_wanted_by(detail::kStackProfiler);
}

void Profiler::start(std::chrono::microseconds period) {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (task_ != 0) return;
  detail::want_span_stacks(detail::kStackProfiler, true);
  task_ = Ticker::instance().add(period, [this] { sample_once(); });
}

void Profiler::stop() {
  std::lock_guard<std::mutex> lock(run_mu_);
  detail::want_span_stacks(detail::kStackProfiler, false);
  if (task_ != 0) Ticker::instance().remove(std::exchange(task_, 0));
}

void Profiler::sample_once() {
  if (!enabled()) return;
  // Fold each non-idle stack outside the aggregate lock, then merge.
  std::vector<std::string> folded;
  for (std::size_t i = 0; i < thread_slot_count(); ++i) {
    ThreadSlot& slot = *thread_slot(i);
    std::lock_guard<std::mutex> lock(slot.stack_mu);
    const std::size_t depth = std::min<std::size_t>(
        slot.depth.load(std::memory_order_relaxed), ThreadSlot::kMaxSpanDepth);
    if (depth == 0) continue;
    std::string key;
    for (std::size_t d = 0; d < depth; ++d) {
      if (d > 0) key += ';';
      key += slot.names[d];
    }
    folded.push_back(std::move(key));
  }
  if (folded.empty()) return;
  std::lock_guard<std::mutex> lock(agg_mu_);
  for (auto& key : folded) {
    aggregate_[std::move(key)] += 1;
    samples_ += 1;
  }
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(agg_mu_);
  aggregate_.clear();
  samples_ = 0;
}

std::uint64_t Profiler::samples() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return samples_;
}

std::string Profiler::collapsed() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  std::string out;
  for (const auto& [stack, count] : aggregate_) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool Profiler::write_collapsed(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Log::instance().error("obs", "profile_write_failed").kv("path", path);
    return false;
  }
  const std::string body = collapsed();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

std::vector<std::pair<std::string, std::uint64_t>> Profiler::top_k(std::size_t k) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    out.assign(aggregate_.begin(), aggregate_.end());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace paintplace::obs
