// Shared pieces of the repo benchmark: workload parameters, input
// generation, the model and server the workloads drive, and the metric sink
// that becomes the run's last output line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "fpga/arch.h"
#include "fpga/netlist.h"
#include "net/server.h"
#include "perfbench/stats.h"

namespace perfbench {

using paintplace::Index;
namespace nn = paintplace::nn;
namespace core = paintplace::core;

/// Everything a workload's behaviour depends on. The values live in
/// workload_spec(); perfbench/ledger.json records the same numbers next to
/// the layer table, and test_stats.cpp checks the two agree.
struct WorkloadSpec {
  std::string name;
  std::string loop;          ///< "closed" or "open"
  int connections = 0;       ///< forecast connections (open loop: plus one control)
  int depth = 0;             ///< closed loop: requests kept in flight per connection
  double rate_rps = 0.0;     ///< open loop: Poisson arrival rate
  bool want_heatmap = false;
  bool paper_scale = false;  ///< 256x256 base-64 model, else 32x32 base-32
  std::string design;        ///< Table 2 design the placements come from
  double design_scale = 0.04;
  double fresh_frac = 1.0;   ///< open loop: share of arrivals that are fresh snapshots
  Index min_samples = 0;     ///< latency samples a run always collects
  /// The tail is reported as chunked_percentile over `chunks` chunks of the
  /// run, at tail_percentile(min_samples / chunks, tail_beyond): a
  /// percentile fixed per workload that every chunk supports.
  Index chunks = 1;
  Index tail_beyond = 10;
  Index max_requests = 0;    ///< distinct inputs (closed loop) / fresh inputs (open loop)
};

/// Throws CheckError for an unknown workload name.
const WorkloadSpec& workload_spec(const std::string& name);
std::vector<std::string> workload_names();

/// A Table 2 design at a fractional scale: packed netlist plus its fabric.
/// The netlist itself is fixed per design; placements vary with the seed.
struct Design {
  paintplace::fpga::Netlist netlist;
  paintplace::fpga::Arch arch;
};
std::unique_ptr<Design> make_design(const std::string& name, double scale);

/// Model input width of a workload (32 at CI scale, 256 at paper scale).
Index image_width(const WorkloadSpec& spec);
core::Pix2PixConfig model_config(bool paper_scale);
/// A fresh forecaster with deterministic inference: the replicas' factory
/// and the correctness twin build their models through this one function.
std::shared_ptr<core::CongestionForecaster> make_model(bool paper_scale);

/// `count` distinct rendered snapshots of annealing runs (SaPlacer's
/// snapshot hook every `every_accepted` accepted moves), starting from
/// placer seed `seed` and taking further seeds until enough distinct inputs
/// exist.
std::vector<nn::Tensor> anneal_snapshots(const Design& design, std::uint64_t seed, Index count,
                                         Index every_accepted, Index width);

/// Final placements of a placer-option sweep (SweepConfig::options_at with
/// base seed `seed`), rendered at `width`.
std::vector<nn::Tensor> sweep_placements(const Design& design, std::uint64_t seed, Index count,
                                         Index width);

/// Resident-set high-water mark of this process, MiB.
double peak_rss_mb();
/// Threads of this process right now.
std::size_t thread_count();
/// Measured fp32 FMA peak of `threads` concurrent threads, GFLOP/s
/// (fma_probe.cpp): the roofline compute bound GEMM rates are shown against.
double fma_peak_gflops(int threads, double seconds);

/// Named metric values in insertion order, printed as the run's result.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const;
  /// Human-readable listing for stderr.
  std::string table() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Value> values_;
};

/// Command-line arguments, as the benchmark contract passes them.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What a workload's set-up produced: the inputs and a running server.
struct Served {
  std::vector<nn::Tensor> warmup;  ///< untimed requests sent during set-up
  std::vector<nn::Tensor> inputs;  ///< the timed stream (fresh inputs for the open loop)
  std::size_t next_fresh = 0;      ///< first input of `inputs` not yet sent
  std::unique_ptr<paintplace::net::NetServer> server;
};

/// Set-up phase timings of one set-up, seconds.
struct SetupTimes {
  double inputs_s = 0.0, server_s = 0.0, warmup_s = 0.0;
  double total() const { return inputs_s + server_s + warmup_s; }
};

/// One timed window of a serving workload.
struct ServeRun {
  Tally tally;
  std::vector<double> latency_s;  ///< per successful forecast, client-observed
  std::vector<double> lag_s;      ///< open loop: generator lateness per send
  double elapsed_s = 0.0;
  std::uint64_t scrapes = 0;  ///< open loop: control-connection responses
};

/// Builds the workload's inputs and server and sends its warm-up.
Served set_up(const WorkloadSpec& spec, std::uint64_t seed, SetupTimes& times);

/// Drives one timed window against `served.server` for `seconds`,
/// continuing the input stream where the previous window stopped. A closed
/// loop runs on past `seconds` until it has `min_samples` latencies; an open
/// loop lasts long enough for `min_samples` arrivals.
ServeRun drive(const WorkloadSpec& spec, Served& served, std::uint64_t seed, double seconds,
               Index min_samples);

/// In-process forecasts of a twin model (same config and seed,
/// deterministic inference): the oracle served forecasts must bit-equal.
struct TwinForecasts {
  std::vector<nn::Tensor> heatmaps;
  std::vector<double> scores;
};
TwinForecasts twin_forecasts(const WorkloadSpec& spec, const std::vector<nn::Tensor>& inputs);

/// The fixed, evenly spread subset of a workload's inputs that the
/// wire-equivalence check requests.
std::vector<nn::Tensor> check_subset(const WorkloadSpec& spec,
                                     const std::vector<nn::Tensor>& inputs);

/// Requests `inputs` with heat maps over the wire and compares every
/// returned heat map and score bit for bit with `twin`. Returns the number
/// of mismatches and describes them in `detail`.
Index check_wire_equivalence(Served& served, const std::vector<nn::Tensor>& inputs,
                             const TwinForecasts& twin, std::string& detail);

/// Untimed and traced entry points (workloads.cpp / peel.cpp).
bool run_workload(const Args& args, MetricSink& sink, Tally& tally);
bool run_traced(const Args& args, MetricSink& sink, Tally& tally);

}  // namespace perfbench
