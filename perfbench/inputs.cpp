// Workload parameters, input generation and the metric sink.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "data/dataset.h"
#include "fpga/design_suite.h"
#include "perfbench/bench.h"
#include "place/sa_placer.h"
#include "serve/tensor_key.h"

namespace perfbench {

namespace fpga = paintplace::fpga;
namespace place = paintplace::place;
namespace data = paintplace::data;
namespace serve = paintplace::serve;

namespace {

// Rendering as the dataset builder does it.
const data::DatasetConfig kRender{};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> kSpecs = {
      // name, loop, connections, depth, rate, heatmap, paper, design, scale, fresh,
      // min samples, chunks, tail beyond, max requests
      {"live_anneal", "closed", 1, 1, 0.0, true, false, "ode", 0.04, 1.0, 1000, 5, 20, 1600},
      {"explore_paper", "closed", 1, 8, 0.0, true, true, "ode", 0.04, 1.0, 48, 1, 10, 76},
      {"rescore_open", "open", 3, 0, 175.0, false, false, "ode", 0.04, 0.6, 1500, 5, 20, 1200},
  };
  return kSpecs;
}

}  // namespace

const WorkloadSpec& workload_spec(const std::string& name) {
  for (const WorkloadSpec& s : specs()) {
    if (s.name == name) return s;
  }
  PP_CHECK_MSG(false, "unknown workload '" << name << "'");
  return specs().front();
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : specs()) out.push_back(s.name);
  return out;
}

std::unique_ptr<Design> make_design(const std::string& name, double scale) {
  const fpga::DesignSpec spec = fpga::scale_spec(fpga::design_by_name(name), scale);
  fpga::Netlist netlist = fpga::generate_packed(spec, fpga::NetgenParams{}, /*seed=*/1);
  const fpga::NetlistStats st = netlist.stats();
  fpga::Arch arch = fpga::Arch::auto_sized(
      {st.num_clbs, st.num_inputs + st.num_outputs, st.num_mems, st.num_mults});
  return std::make_unique<Design>(Design{std::move(netlist), std::move(arch)});
}

Index image_width(const WorkloadSpec& spec) { return spec.paper_scale ? 256 : 32; }

core::Pix2PixConfig model_config(bool paper_scale) {
  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = 4;
  cfg.generator.image_size = paper_scale ? 256 : 32;
  cfg.generator.base_channels = paper_scale ? 64 : 32;
  cfg.generator.max_channels = paper_scale ? 512 : 256;
  cfg.disc_base_channels = cfg.generator.base_channels;
  return cfg;  // GeneratorConfig::seed / Pix2PixConfig::seed keep their fixed defaults
}

std::shared_ptr<core::CongestionForecaster> make_model(bool paper_scale) {
  auto model = std::make_shared<core::CongestionForecaster>(model_config(paper_scale));
  model->set_deterministic_inference(true);
  return model;
}

std::vector<nn::Tensor> anneal_snapshots(const Design& design, std::uint64_t seed, Index count,
                                         Index every_accepted, Index width) {
  const paintplace::img::PixelGeometry geom(design.arch, kRender.render_target_width);
  std::vector<nn::Tensor> out;
  std::unordered_set<serve::TensorKey, serve::TensorKeyHash> seen;
  for (std::uint64_t s = seed; static_cast<Index>(out.size()) < count; ++s) {
    place::PlacerOptions options;
    options.seed = s;
    place::SaPlacer placer(design.arch, design.netlist, options);
    std::vector<place::Placement> snaps;
    placer.set_snapshot(
        [&](const place::Placement& p, Index, double) { snaps.push_back(p); }, every_accepted);
    (void)placer.place();
    std::vector<nn::Tensor> rendered(snaps.size());
    paintplace::parallel_for_each(static_cast<Index>(snaps.size()), [&](Index i) {
      rendered[static_cast<std::size_t>(i)] =
          data::make_input(snaps[static_cast<std::size_t>(i)], geom, width, kRender.lambda_connect);
    });
    for (nn::Tensor& t : rendered) {
      if (static_cast<Index>(out.size()) == count) break;
      if (seen.insert(serve::TensorKey::of(t)).second) out.push_back(std::move(t));
    }
    PP_CHECK_MSG(s < seed + 1000, "annealing produced too few distinct snapshots");
  }
  return out;
}

std::vector<nn::Tensor> sweep_placements(const Design& design, std::uint64_t seed, Index count,
                                         Index width) {
  const paintplace::img::PixelGeometry geom(design.arch, kRender.render_target_width);
  data::SweepConfig sweep;
  sweep.base_seed = seed;
  std::vector<nn::Tensor> out(static_cast<std::size_t>(count));
  paintplace::parallel_for_each(count, [&](Index i) {
    place::SaPlacer placer(design.arch, design.netlist, sweep.options_at(i));
    out[static_cast<std::size_t>(i)] =
        data::make_input(placer.place(), geom, width, kRender.lambda_connect);
  });
  return out;
}

double peak_rss_mb() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_maxrss) / 1024.0;
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task")) ++n;
  return n;
}

void MetricSink::set(const std::string& name, double value, const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = Value{value, unit};
}

double MetricSink::get(const std::string& name) const {
  const auto it = values_.find(name);
  PP_CHECK_MSG(it != values_.end(), "metric " << name << " was never set");
  return it->second.value;
}

std::string MetricSink::result_json(bool correct, std::uint64_t attempted,
                                    std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Value& v = values_.at(order_[i]);
    char num[64];
    // Full precision; JSON has no inf/nan, so a non-finite value (a metric
    // whose inputs were empty) prints as 0 and the run's checks flag it.
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(v.value) ? v.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + order_[i] + "\": {\"value\": " + num + ", \"unit\": \"" +
           v.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string MetricSink::table() const {
  std::string out;
  for (const std::string& name : order_) {
    const Value& v = values_.at(name);
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n", name.c_str(), v.value,
                  v.unit.c_str());
    out += line;
  }
  return out;
}

}  // namespace perfbench
