// paintplace::obs — span-stack sampling profiler.
//
// A statistical profiler that reuses the tracing instrumentation instead of
// signals or frame pointers: while profiling is on, every live Span sits on
// its thread's span stack (thread_slot.h), and a ticker task (ticker.h)
// periodically walks every thread's stack and folds it into
// `root;child;grandchild -> count` aggregates. Because the spans are the
// semantic units of the serving path (frame decode, pool dispatch, batch
// run, per-layer forwards, per-GEMM kernels), the folded stacks read like a
// flame graph of the *request pipeline*, not of libc internals — and the
// whole thing works on any platform the tracer does.
//
// Cost model matches Span tracing: when the profiler is off (the default) a
// Span construction still costs exactly one relaxed atomic load — the same
// load tracing uses, one combined flags word (see obs::detail::g_span_mask
// in trace.h) — and bench_serve's overhead guard covers both. When on, a
// push/pop is an uncontended per-thread mutex plus a name copy.
//
// Export: collapsed() emits standard collapsed-stack text, one
// "a;b;c count" per line — feed it to inferno/flamegraph.pl or paste into
// speedscope.app — and top_k() powers the plain-text table that
// `forecast_serve --profile` and bench_serve print.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace paintplace::obs {

class Profiler {
 public:
  static Profiler& instance();

  bool enabled() const;

  /// Turns on span stacks and samples them on the obs ticker at the given
  /// period. Idempotent while running.
  void start(std::chrono::microseconds period = std::chrono::milliseconds(2));
  /// Stops sampling. Aggregates survive until clear() so they can be
  /// exported after the run.
  void stop();

  /// One sweep over every thread's live stack (the ticker task's body;
  /// public so tests and benches can sample deterministically). A no-op
  /// while the profiler is off.
  void sample_once();

  void clear();

  /// Folded-stack samples collected (sum over aggregate counts).
  std::uint64_t samples() const;

  /// Collapsed-stack text: "root;child;leaf count\n" per distinct stack.
  std::string collapsed() const;
  bool write_collapsed(const std::string& path) const;

  /// The k hottest folded stacks, by sample count descending.
  std::vector<std::pair<std::string, std::uint64_t>> top_k(std::size_t k) const;

 private:
  Profiler() = default;

  std::mutex run_mu_;         ///< guards task_ (start/stop)
  std::uint64_t task_ = 0;    ///< ticker task id, 0 = not sampling

  mutable std::mutex agg_mu_;
  std::map<std::string, std::uint64_t> aggregate_;
  std::uint64_t samples_ = 0;
};

}  // namespace paintplace::obs
