// The untraced run of each workload: set up several times, measure one
// timed window, check the outputs, and report the end-to-end metrics.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/timer.h"
#include "net/server.h"
#include "perfbench/bench.h"

namespace perfbench {

using paintplace::Timer;

namespace {

constexpr int kSetups = 3;                  // setup_s is the median of this many set-ups
constexpr double kMaxGeneratorLagMs = 5.0;  // open loop: p99 lateness that voids a run

/// The end-to-end metrics every workload reports: `latency_s` holds the
/// client-observed latency of every successful forecast, `work` is how many
/// forecasts completed in `elapsed_s`.
void report_end_to_end(MetricSink& sink, const WorkloadSpec& spec,
                       const std::vector<double>& setups, const std::vector<double>& latency_s,
                       double work, double elapsed_s, const Tally& tally) {
  sink.set("setup_s", median(setups), "s");
  sink.set("latency_p50_ms", 1e3 * median(latency_s), "ms");
  const auto chunks = static_cast<std::size_t>(spec.chunks);
  const double tail = tail_percentile(static_cast<std::size_t>(spec.min_samples) / chunks,
                                      static_cast<std::size_t>(spec.tail_beyond));
  sink.set("latency_tail_ms", 1e3 * chunked_percentile(latency_s, tail, chunks), "ms");
  sink.set("throughput_per_s", work / elapsed_s, "1/s");
  sink.set("success_frac", 1.0 - tally.failed_frac(), "fraction");
  sink.set("peak_rss_mb", peak_rss_mb(), "MB");
}

bool write_all(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n, bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t bytes) {
  auto* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, p, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n, bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One complete set-up in a forked child, returning its duration. Forked
/// before this process starts any thread, so each child is as cold as the
/// parent's own set-up, and the child's models never count toward this
/// process's peak RSS. With `twin` set, the child then also shuts its
/// server down and computes the twin forecasts of the check subset (its
/// inputs are the parent's, bit for bit: generation is seeded), so the
/// oracle model never shares the parent's memory with the served ones.
double setup_in_child(const WorkloadSpec& spec, std::uint64_t seed, TwinForecasts* twin) {
  PP_CHECK_MSG(thread_count() == 1, "set-up children must fork from a single-threaded process");
  int fds[2];
  PP_CHECK_MSG(::pipe(fds) == 0, "pipe failed");
  const pid_t pid = ::fork();
  PP_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    bool ok = false;
    try {
      Timer t;
      SetupTimes times;
      Served served = set_up(spec, seed, times);
      const double secs = t.seconds();
      std::fprintf(stderr, "setup (child): %.3f s (inputs %.3f, server %.3f, warm-up %.3f)\n",
                   secs, times.inputs_s, times.server_s, times.warmup_s);
      served.server.reset();
      ok = write_all(fds[1], &secs, sizeof(secs));
      if (twin != nullptr) {
        const TwinForecasts out = twin_forecasts(spec, check_subset(spec, served.inputs));
        for (std::size_t i = 0; ok && i < out.scores.size(); ++i) {
          const nn::Tensor& h = out.heatmaps[i];
          const std::int64_t dims[4] = {h.dim(0), h.dim(1), h.dim(2), h.dim(3)};
          ok = write_all(fds[1], dims, sizeof(dims)) &&
               write_all(fds[1], h.data(), sizeof(float) * h.numel()) &&
               write_all(fds[1], &out.scores[i], sizeof(double));
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up child: %s\n", e.what());
      ok = false;
    }
    ::close(fds[1]);
    ::_exit(ok ? 0 : 1);  // skip the parent's atexit handlers and stdio buffers
  }
  ::close(fds[1]);
  double secs = -1.0;
  bool got = read_all(fds[0], &secs, sizeof(secs));
  if (twin != nullptr) {
    std::int64_t dims[4];
    while (got && read_all(fds[0], dims, sizeof(dims))) {
      nn::Tensor h(nn::Shape{dims[0], dims[1], dims[2], dims[3]});
      double score = 0.0;
      got = read_all(fds[0], h.data(), sizeof(float) * h.numel()) &&
            read_all(fds[0], &score, sizeof(score));
      twin->heatmaps.push_back(std::move(h));
      twin->scores.push_back(score);
    }
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  PP_CHECK_MSG(got && secs >= 0.0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "set-up child failed");
  return secs;
}

bool run_serving(const Args& args, const WorkloadSpec& spec, MetricSink& sink, Tally& tally) {
  std::vector<double> setups;
  TwinForecasts twin;
  for (int i = 1; i < kSetups; ++i) {
    setups.push_back(setup_in_child(spec, args.seed, i == 1 ? &twin : nullptr));
  }
  Timer t;
  SetupTimes times;
  Served served = set_up(spec, args.seed, times);
  setups.push_back(t.seconds());
  std::fprintf(stderr, "setup: %.3f s (inputs %.3f, server %.3f, warm-up %.3f)\n", setups.back(),
               times.inputs_s, times.server_s, times.warmup_s);

  const ServeRun run = drive(spec, served, args.seed, args.seconds, spec.min_samples);
  tally = run.tally;
  const paintplace::net::PoolStats pool = served.server->pool().stats();
  std::fprintf(stderr,
               "timed: %llu ok / %llu attempted in %.3f s; mean batch %.2f, cache hits %llu of "
               "%llu, coalesced %llu, scrapes %llu\n",
               static_cast<unsigned long long>(run.tally.ok),
               static_cast<unsigned long long>(run.tally.attempted()), run.elapsed_s,
               pool.serve.mean_batch(), static_cast<unsigned long long>(pool.cache_hits),
               static_cast<unsigned long long>(pool.cache_requests),
               static_cast<unsigned long long>(pool.serve.coalesced),
               static_cast<unsigned long long>(run.scrapes));

  bool correct = true;
  if (static_cast<Index>(run.latency_s.size()) < spec.min_samples) {
    std::fprintf(stderr, "FAIL: %zu latency samples, the workload needs %lld\n",
                 run.latency_s.size(), static_cast<long long>(spec.min_samples));
    correct = false;
  }
  if (spec.loop == "open") {
    const double lag_p99_ms = 1e3 * percentile(run.lag_s, 99.0);
    std::fprintf(stderr, "generator lag p99 %.3f ms\n", lag_p99_ms);
    if (lag_p99_ms > kMaxGeneratorLagMs) {
      std::fprintf(stderr, "FAIL: the load generator lagged (p99 %.3f ms > %.1f ms)\n",
                   lag_p99_ms, kMaxGeneratorLagMs);
      correct = false;
    }
    if (run.scrapes == 0) {
      std::fprintf(stderr, "FAIL: no metrics scrape or health probe was answered\n");
      correct = false;
    }
  }

  report_end_to_end(sink, spec, setups, run.latency_s, static_cast<double>(run.tally.ok),
                    run.elapsed_s, run.tally);

  std::string detail;
  const std::vector<nn::Tensor> subset = check_subset(spec, served.inputs);
  const Index mismatches = check_wire_equivalence(served, subset, twin, detail);
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %lld of %zu served forecasts differ from in-process predict:\n%s",
                 static_cast<long long>(mismatches), subset.size(), detail.c_str());
    correct = false;
  }
  return correct;
}

}  // namespace

bool run_workload(const Args& args, MetricSink& sink, Tally& tally) {
  return run_serving(args, workload_spec(args.workload), sink, tally);
}

}  // namespace perfbench
