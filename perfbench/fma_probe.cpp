// Roofline compute peak: fp32 FMA throughput of this host, measured. Built
// with the host's full ISA (see CMakeLists.txt) and the widest vector it
// has, with enough independent accumulators to hide FMA latency, so no
// GEMM on this machine can exceed it.
#include <thread>
#include <vector>

#include "common/timer.h"

namespace perfbench {

namespace {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#if defined(__AVX512F__)
constexpr int kLanes = 16;
#else
constexpr int kLanes = 8;
#endif
typedef float vec __attribute__((vector_size(kLanes * sizeof(float))));
constexpr int kAccumulators = 16;
constexpr long kInnerReps = 1 << 16;

/// FMAs per second of one thread over `seconds`.
double probe_thread(double seconds, float seed) {
  vec acc[kAccumulators];
  for (int i = 0; i < kAccumulators; ++i) acc[i] = vec{} + seed * static_cast<float>(i + 1);
  const vec mul = vec{} + 0.999999f;
  const vec add = vec{} + 1e-7f;
  long reps = 0;
  paintplace::Timer t;
  do {
    for (long r = 0; r < kInnerReps; ++r) {
      for (int i = 0; i < kAccumulators; ++i) acc[i] = acc[i] * mul + add;
    }
    reps += kInnerReps;
  } while (t.seconds() < seconds);
  float sink = 0.0f;
  for (int i = 0; i < kAccumulators; ++i) sink += acc[i][0];
  const double elapsed = t.seconds();
  // Keep the chain observable so it cannot be folded away.
  if (sink == 12345.0f) return 0.0;
  return static_cast<double>(reps) * kAccumulators * kLanes / elapsed;
}
#pragma GCC diagnostic pop

}  // namespace

double fma_peak_gflops(int threads, double seconds) {
  std::vector<double> rates(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&rates, i, seconds] {
      rates[static_cast<std::size_t>(i)] = probe_thread(seconds, 1e-3f * static_cast<float>(i + 1));
    });
  }
  for (std::thread& t : pool) t.join();
  double fmas = 0.0;
  for (const double r : rates) fmas += r;
  return 2.0 * fmas / 1e9;  // an FMA is two flops
}

}  // namespace perfbench
