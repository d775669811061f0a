// The traced run: per-layer metrics, measured from outside each module by
// timing calls into its public entry points.
//
// It runs the workload's own set-up and two short windows of its loop (one
// untraced, one with the program's span tracer on), then peels the stack:
// the same input stream goes through NetServer (net::Client), then
// ReplicaPool::submit, then ForecastServer::submit, then
// CongestionForecaster::predict / predict_batch; then standalone nn modules
// of every U-Net level's shape; then ComputeBackend GEMMs on the U-Net's
// shapes against a measured FMA peak; then the EDA stages. Adjacent layers'
// medians give each layer's own time by subtraction: those metrics are
// listed in kDerived and printed as such.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <future>

#include "backend/pack_cache.h"
#include "bench/gemm_shapes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "net/client.h"
#include "net/replica_pool.h"
#include "nn/activations.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/im2col.h"
#include "nn/tensor_ops.h"
#include "obs/trace.h"
#include "perfbench/bench.h"
#include "place/sa_placer.h"
#include "route/channel_graph.h"
#include "route/router.h"
#include "serve/forecast_server.h"
#include "serve/result_cache.h"
#include "serve/tensor_key.h"

namespace perfbench {
namespace {

namespace bench = paintplace::bench;
namespace net = paintplace::net;
namespace serve = paintplace::serve;
namespace backend = paintplace::backend;
namespace obs = paintplace::obs;
namespace place = paintplace::place;
namespace route = paintplace::route;
namespace data = paintplace::data;
using paintplace::Rng;
using paintplace::Timer;

/// Metrics computed as the difference of two measured layers.
const char* const kDerived[] = {"net.self_ms", "pool.self_ms", "serve.queue_wait_ms",
                                "obs.trace_overhead_frac", "nn.closure_frac",
                                "paper.route_over_forecast"};

/// Requests per peeled layer: enough for a stable median, few enough that
/// the paper-scale model (~0.15 s per forward) stays within budget.
std::size_t peel_requests(const WorkloadSpec& spec) { return spec.paper_scale ? 8 : 200; }

/// Median wall time of `reps` calls of fn, seconds.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    fn();
    t.push_back(timer.seconds());
  }
  return median(std::move(t));
}

// ---- server window bookkeeping -------------------------------------------------

struct ServerSnap {
  net::PoolStats pool;
  std::vector<std::uint64_t> replica_requests;
  backend::PackedWeightCache::Stats pack;
  std::uint64_t accepted = 0, shed = 0;
  std::array<std::uint64_t, obs::Histogram::kBuckets> latency{};
};

ServerSnap snap(net::NetServer& server) {
  ServerSnap s;
  s.pool = server.pool().stats();
  for (int i = 0; i < server.pool().replicas(); ++i) {
    s.replica_requests.push_back(server.pool().replica(i).stats().requests);
  }
  s.pack = backend::PackedWeightCache::instance().stats();
  s.accepted = server.metrics().requests_accepted.load();
  s.shed = server.metrics().shed_total();
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    s.latency[static_cast<std::size_t>(b)] = server.metrics().latency.bucket_count(b);
  }
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of the serving stack over the window between two
/// snapshots of one server.
void report_window(MetricSink& sink, const ServerSnap& a, const ServerSnap& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  sink.set("serve.mean_batch",
           ratio(d(a.pool.serve.model_samples, b.pool.serve.model_samples),
                 d(a.pool.serve.batches, b.pool.serve.batches)),
           "count");
  sink.set("serve.cache_hit_frac",
           ratio(d(a.pool.cache_hits, b.pool.cache_hits),
                 d(a.pool.cache_requests, b.pool.cache_requests)),
           "fraction");
  sink.set("serve.coalesced_frac",
           ratio(d(a.pool.serve.coalesced, b.pool.serve.coalesced),
                 d(a.pool.serve.requests, b.pool.serve.requests)),
           "fraction");
  const double pack_hits = d(a.pack.hits, b.pack.hits);
  sink.set("backend.pack_hit_frac", ratio(pack_hits, pack_hits + d(a.pack.misses, b.pack.misses)),
           "fraction");
  sink.set("backend.pack_cache_mb", static_cast<double>(b.pack.bytes) / (1 << 20), "MB");
  double max_req = 0.0, sum_req = 0.0;
  for (std::size_t i = 0; i < b.replica_requests.size(); ++i) {
    const double r = d(a.replica_requests[i], b.replica_requests[i]);
    max_req = std::max(max_req, r);
    sum_req += r;
  }
  sink.set("pool.replica_skew",
           ratio(max_req, sum_req / static_cast<double>(b.replica_requests.size())), "ratio");
  const double shed = d(a.shed, b.shed);
  sink.set("pool.shed_frac", ratio(shed, shed + d(a.accepted, b.accepted)), "fraction");
  std::array<std::uint64_t, obs::Histogram::kBuckets> window{};
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = b.latency[i] - a.latency[i];
  sink.set("net.server_p50_ms", 1e3 * obs::Histogram::quantile_of(window, 0.50), "ms");
  sink.set("net.server_p99_ms", 1e3 * obs::Histogram::quantile_of(window, 0.99), "ms");
}

/// A factory handing out a fixed set of models in turn, so every peeled
/// layer runs the very weights the workload's server ran.
net::ModelFactory reuse(const std::vector<std::shared_ptr<core::CongestionForecaster>>& models) {
  auto next = std::make_shared<std::size_t>(0);
  return [models, next] { return models[(*next)++ % models.size()]; };
}

// ---- the serving peel --------------------------------------------------------------

struct PeelTimes {
  double net_p50 = 0, pool_p50 = 0, serve_p50 = 0, b1_p50 = 0;
};

/// Feeds `stream` through each serving layer in turn, closed loop at depth
/// 1, each layer freshly built (empty caches) on the same models.
PeelTimes peel_serving(MetricSink& sink, const WorkloadSpec& spec,
                       const std::vector<nn::Tensor>& stream,
                       const std::vector<std::shared_ptr<core::CongestionForecaster>>& models,
                       std::size_t threads_before_server) {
  PeelTimes p;
  const auto factory = reuse(models);
  {  // NetServer via net::Client
    net::NetServer server(net::NetServerConfig{}, factory);
    net::Client client("127.0.0.1", server.port());
    std::vector<double> rtt, hit_rtt;
    for (const nn::Tensor& x : stream) {
      Timer t;
      const net::ForecastResponse r = client.forecast(x, spec.want_heatmap);
      rtt.push_back(t.seconds());
      PP_CHECK_MSG(r.status == net::Status::kOk, "peel: NetServer did not answer kOk");
    }
    // The same inputs again are cache hits: everything but the model.
    for (std::size_t i = 0; i < std::min<std::size_t>(stream.size(), 64); ++i) {
      Timer t;
      const net::ForecastResponse r = client.forecast(stream[i], spec.want_heatmap);
      hit_rtt.push_back(t.seconds());
      PP_CHECK_MSG(r.from_cache, "peel: a repeated request missed the cache");
    }
    p.net_p50 = median(rtt);
    sink.set("net.hit_rtt_us", 1e6 * median(hit_rtt), "us");
    sink.set("net.server_threads",
             static_cast<double>(thread_count() - threads_before_server), "count");
    sink.set("obs.scrape_ms", 1e3 * median_time(20, [&] { (void)client.metrics_text(); }), "ms");
  }
  {  // ReplicaPool::submit
    net::ReplicaPool pool(net::ReplicaPoolConfig{}, factory);
    std::vector<double> lat, submit;
    for (const nn::Tensor& x : stream) {
      Timer t;
      net::Admission adm = pool.submit(1, x);
      submit.push_back(t.seconds());
      PP_CHECK_MSG(adm.admitted(), "peel: ReplicaPool shed a depth-1 request");
      (void)adm.future.get();
      lat.push_back(t.seconds());
    }
    p.pool_p50 = median(lat);
    sink.set("pool.submit_us", 1e6 * median(submit), "us");
  }
  {  // ForecastServer::submit
    serve::ForecastServer server(serve::ServeConfig{}, factory());
    std::vector<double> lat;
    for (const nn::Tensor& x : stream) {
      Timer t;
      (void)server.submit(x).get();
      lat.push_back(t.seconds());
    }
    p.serve_p50 = median(lat);
    sink.set("serve.latency_p50_ms", 1e3 * p.serve_p50, "ms");
  }
  // CongestionForecaster: batch 1, then the workload's observed batch mix.
  core::CongestionForecaster& model = *models.front();
  std::vector<double> b1;
  for (const nn::Tensor& x : stream) {
    Timer t;
    (void)model.predict(x);
    b1.push_back(t.seconds());
  }
  p.b1_p50 = median(b1);
  sink.set("core.predict_b1_ms", 1e3 * p.b1_p50, "ms");
  const auto batch = static_cast<std::size_t>(
      std::clamp(std::llround(sink.get("serve.mean_batch")), 1LL, 8LL));
  std::vector<double> per_batch;
  for (std::size_t i = 0; i + batch <= stream.size() && per_batch.size() < 32; i += batch) {
    std::vector<const nn::Tensor*> ptrs;
    for (std::size_t j = i; j < i + batch; ++j) ptrs.push_back(&stream[j]);
    const nn::Tensor stacked = nn::stack_batch(ptrs);
    Timer t;
    (void)model.predict_batch(stacked);
    per_batch.push_back(t.seconds());
  }
  sink.set("core.predict_batch_ms", 1e3 * median(per_batch), "ms");
  const nn::Tensor heat = model.predict(stream.front());
  volatile double score_sink = 0.0;
  sink.set("core.score_us",
           1e6 * median_time(50, [&] { score_sink = score_sink + model.congestion_score(heat); }),
           "us");

  sink.set("net.self_ms", 1e3 * (p.net_p50 - p.pool_p50), "ms");
  sink.set("pool.self_ms", 1e3 * (p.pool_p50 - p.serve_p50), "ms");
  sink.set("serve.queue_wait_ms", 1e3 * (p.serve_p50 - p.b1_p50), "ms");

  // Result cache hit path, on a standalone cache holding the stream.
  serve::ResultCache cache(1024);
  std::vector<serve::TensorKey> keys;
  for (std::size_t i = 0; i < std::min<std::size_t>(stream.size(), 64); ++i) {
    keys.push_back(serve::TensorKey::of(stream[i]));
    cache.put(keys.back(), serve::ForecastResult{heat, 0.5, 1, false});
  }
  std::vector<double> gets;
  for (int rep = 0; rep < 20; ++rep) {
    for (const serve::TensorKey& k : keys) {
      Timer t;
      PP_CHECK(cache.get(k).has_value());
      gets.push_back(t.seconds());
    }
  }
  sink.set("serve.cache_get_us", 1e6 * median(gets), "us");
  return p;
}

/// PPN1 codec cost and frame sizes for one request/response of the workload.
void peel_codec(MetricSink& sink, const WorkloadSpec& spec, const nn::Tensor& input,
                const nn::Tensor& heat) {
  net::ForecastRequest req;
  req.request_id = 7;
  req.want_heatmap = spec.want_heatmap;
  req.input = input;
  net::ForecastResponse resp;
  resp.request_id = 7;
  resp.congestion_score = 0.5;
  resp.model_version = 1;
  if (spec.want_heatmap) resp.heatmap = heat;
  const auto frame_of = [](const std::vector<std::uint8_t>& bytes) {
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    return *reader.next();
  };
  std::vector<std::uint8_t> req_bytes, resp_bytes;
  const int reps = spec.paper_scale ? 20 : 200;
  sink.set("net.encode_req_us",
           1e6 * median_time(reps, [&] { req_bytes = net::encode_forecast_request(req); }), "us");
  sink.set("net.encode_resp_us",
           1e6 * median_time(reps, [&] { resp_bytes = net::encode_forecast_response(resp); }),
           "us");
  const net::Frame req_frame = frame_of(req_bytes), resp_frame = frame_of(resp_bytes);
  sink.set("net.decode_req_us",
           1e6 * median_time(reps, [&] { (void)net::decode_forecast_request(req_frame); }), "us");
  sink.set("net.decode_resp_us",
           1e6 * median_time(reps, [&] { (void)net::decode_forecast_response(resp_frame); }),
           "us");
  sink.set("net.req_bytes", static_cast<double>(req_bytes.size()), "bytes");
  sink.set("net.resp_bytes", static_cast<double>(resp_bytes.size()), "bytes");
}

// ---- nn modules per U-Net level ----------------------------------------------------

nn::Tensor random_tensor(nn::Shape shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Standalone eval-mode modules of each U-Net level's shape at batch 1,
/// mirroring UNetGenerator's wiring; sums per module kind.
void peel_nn(MetricSink& sink, const core::GeneratorConfig& g) {
  Rng rng(99);
  const Index d = g.depth();
  const int reps = g.image_size >= 256 ? 5 : 15;
  double conv = 0, deconv = 0, norm = 0, act = 0, concat = 0, im2col = 0, col2im = 0;
  std::vector<float> col;
  for (Index i = 0; i < d; ++i) {  // encoder: LeakyReLU -> Conv2d -> norm
    const Index cin = i == 0 ? g.in_channels : g.channels_at(i - 1);
    const Index cout = g.channels_at(i);
    const Index sp = g.image_size >> i;
    const nn::Tensor x = random_tensor(nn::Shape{1, cin, sp, sp}, rng);
    nn::LeakyReLU lrelu(0.2f);
    nn::Conv2d c("peel.enc" + std::to_string(i), cin, cout, 4, 2, 1, rng);
    c.set_training(false);
    if (i > 0) act += median_time(reps, [&] { (void)lrelu.forward(x); });
    nn::Tensor y;
    conv += median_time(reps, [&] { y = c.forward(x); });
    if (i > 0 && i < d - 1) {
      nn::BatchNorm2d bn("peel.enc.bn", cout);
      bn.set_training(false);
      norm += median_time(reps, [&] { (void)bn.forward(y); });
    }
    const nn::ConvGeom geom{cin, sp, sp, 4, 2, 1};
    col.resize(static_cast<std::size_t>(geom.col_rows() * geom.col_cols()));
    im2col += median_time(reps, [&] { nn::im2col(geom, x.data(), col.data()); });
  }
  for (Index i = d - 1; i >= 0; --i) {  // decoder: [concat] -> ReLU -> deconv -> norm
    const Index skip_ch = i == d - 1 ? 0 : g.channels_at(i);
    const Index cin = i == d - 1 ? g.channels_at(d - 1) : 2 * g.channels_at(i);
    const Index cout = i == 0 ? g.out_channels : g.channels_at(i - 1);
    const Index sp = g.image_size >> (i + 1);
    nn::Tensor x = random_tensor(nn::Shape{1, cin - skip_ch, sp, sp}, rng);
    if (skip_ch > 0) {
      const nn::Tensor skip = random_tensor(nn::Shape{1, skip_ch, sp, sp}, rng);
      nn::Tensor joined;
      concat += median_time(reps, [&] { joined = nn::concat_channels(x, skip); });
      x = joined;
    }
    nn::ReLU relu;
    nn::ConvTranspose2d dc("peel.dec" + std::to_string(i), cin, cout, 4, 2, 1, rng);
    dc.set_training(false);
    // The bottleneck's input ReLU is fused into enc[d-1]'s GEMM epilogue.
    if (i < d - 1) act += median_time(reps, [&] { (void)relu.forward(x); });
    nn::Tensor y;
    deconv += median_time(reps, [&] { y = dc.forward(x); });
    if (i > 0) {
      nn::BatchNorm2d bn("peel.dec.bn", cout);
      bn.set_training(false);
      norm += median_time(reps, [&] { (void)bn.forward(y); });
    }
    // The deconv's scatter: col2im over the equivalent forward conv's geometry.
    const nn::ConvGeom geom{cout, 2 * sp, 2 * sp, 4, 2, 1};
    col.assign(static_cast<std::size_t>(geom.col_rows() * geom.col_cols()), 0.5f);
    std::vector<float> image(static_cast<std::size_t>(cout * 4 * sp * sp));
    col2im += median_time(reps, [&] {
      std::fill(image.begin(), image.end(), 0.0f);
      nn::col2im(geom, col.data(), image.data());
    });
  }
  sink.set("nn.conv_ms", 1e3 * conv, "ms");
  sink.set("nn.deconv_ms", 1e3 * deconv, "ms");
  sink.set("nn.im2col_ms", 1e3 * im2col, "ms");
  sink.set("nn.col2im_ms", 1e3 * col2im, "ms");
  sink.set("nn.norm_ms", 1e3 * norm, "ms");
  sink.set("nn.act_ms", 1e3 * act, "ms");
  sink.set("nn.concat_ms", 1e3 * concat, "ms");
  sink.set("nn.closure_frac", (conv + deconv + norm + act + concat) /
                                  (sink.get("core.predict_b1_ms") / 1e3),
           "fraction");
}

// ---- backend GEMMs -------------------------------------------------------------------

std::vector<float> random_vec(Index n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// GFLOP/s of one shape on the active backend.
double gemm_gflops(const bench::GemmShape& s, double min_seconds) {
  const auto A = random_vec(s.M * s.K, 11 + static_cast<std::uint64_t>(s.M));
  const auto B = random_vec(s.K * s.N, 23 + static_cast<std::uint64_t>(s.N));
  std::vector<float> C(static_cast<std::size_t>(s.M * s.N));
  return bench::time_gemm(backend::active_backend(), s, A.data(), B.data(), C.data(),
                          min_seconds);
}

void peel_backend(MetricSink& sink, const core::GeneratorConfig& g, Index batch) {
  const double peak = fma_peak_gflops(paintplace::parallel_workers(), 0.25);
  sink.set("backend.fma_peak_gflops", peak, "GFLOP/s");
  double flops = 0.0, secs = 0.0;
  for (const bench::GemmShape& s : bench::unet_gemm_shapes(g, batch)) {
    flops += s.flops();
    secs += s.flops() / (gemm_gflops(s, 0.03) * 1e9);
  }
  sink.set("backend.gemm_gflops", flops / secs / 1e9, "GFLOP/s");
  sink.set("backend.pct_of_peak", 100.0 * flops / secs / 1e9 / peak, "%");
  // Paper-scale, batch 1: the shapes a 256x256 forecast runs, one by one.
  const core::GeneratorConfig paper = model_config(true).generator;
  for (const bench::GemmShape& s : bench::unet_gemm_shapes(paper, 1)) {
    const std::string layer = s.label.substr(0, s.label.find(' '));
    sink.set("backend." + layer + ".pct_of_peak", 100.0 * gemm_gflops(s, 0.03) / peak, "%");
  }
}

// ---- EDA stages ----------------------------------------------------------------------

void peel_eda(MetricSink& sink, const WorkloadSpec& spec, std::uint64_t seed) {
  const std::unique_ptr<Design> design = make_design(spec.design, spec.design_scale);
  const data::DatasetConfig render{};
  const paintplace::img::PixelGeometry geom(design->arch, render.render_target_width);
  std::vector<double> anneal, moves, route_s, iters;
  double routed_ok = 0.0;
  std::vector<place::Placement> placed;
  for (std::uint64_t k = 0; k < 2; ++k) {
    place::PlacerOptions options;
    options.seed = seed * 31 + k;
    place::SaPlacer placer(design->arch, design->netlist, options);
    Timer t;
    placed.push_back(placer.place());
    anneal.push_back(t.seconds());
    moves.push_back(static_cast<double>(placer.report().moves_attempted) / anneal.back());
    route::ChannelGraph graph(design->arch);
    route::CongestionMap congestion(graph);
    route::PathFinderRouter router(graph);
    t.reset();
    const route::RouteResult rr = router.route(placed.back(), congestion);
    route_s.push_back(t.seconds());
    iters.push_back(static_cast<double>(rr.iterations));
    routed_ok += rr.success ? 1.0 : 0.0;
  }
  sink.set("place.anneal_s", median(anneal), "s");
  sink.set("place.moves_per_s", median(moves), "1/s");
  const Index width = image_width(spec);
  const double render_s = median_time(spec.paper_scale ? 5 : 20, [&] {
    (void)data::make_input(placed.front(), geom, width, render.lambda_connect);
  });
  sink.set("img.make_input_ms", 1e3 * render_s, "ms");
  sink.set("route.route_s", median(route_s), "s");
  sink.set("route.iterations", median(iters), "count");
  sink.set("route.success_frac", routed_ok / 2.0, "fraction");
}

/// Median batch-1 forecast latency of the paper-scale model, seconds.
double paper_predict_b1(const std::vector<nn::Tensor>& paper_inputs) {
  const auto model = make_model(true);
  (void)model->predict(paper_inputs.front());  // warm the pack cache
  std::vector<double> t;
  for (const nn::Tensor& x : paper_inputs) {
    Timer timer;
    (void)model->predict(x);
    t.push_back(timer.seconds());
  }
  return median(t);
}

}  // namespace

bool run_traced(const Args& args, MetricSink& sink, Tally& tally) {
  const WorkloadSpec& spec = workload_spec(args.workload);
  const double window_s = args.seconds / 2.0;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();

  // Set-up and the two end-to-end windows (untraced, then traced).
  const std::size_t threads_before_server = thread_count();
  std::vector<nn::Tensor> stream;
  std::vector<std::shared_ptr<core::CongestionForecaster>> models;
  {
    SetupTimes times;
    Served served = set_up(spec, args.seed, times);
    sink.set("setup.inputs_s", times.inputs_s, "s");
    sink.set("setup.server_s", times.server_s, "s");
    sink.set("setup.warmup_s", times.warmup_s, "s");
    const ServerSnap before = snap(*served.server);
    const ServeRun untraced = drive(spec, served, args.seed, window_s, 0);
    report_window(sink, before, snap(*served.server));
    tracer.enable();
    const ServeRun traced = drive(spec, served, args.seed + 1, window_s, 0);
    tracer.disable();
    tracer.clear();
    sink.set("obs.trace_overhead_frac",
             median(traced.latency_s) / median(untraced.latency_s) - 1.0, "fraction");
    sink.set("loadgen.lag_p99_ms", 1e3 * percentile(untraced.lag_s, 99.0), "ms");
    tally = untraced.tally;
    tally += traced.tally;
    // The peel reuses the served models and the workload's own inputs, in
    // the order the workload sent them (fresh inputs beyond the windows).
    for (int i = 0; i < served.server->pool().replicas(); ++i) {
      models.push_back(served.server->pool().replica(i).registry().current().model);
    }
    served.server->shutdown();
    served.server.reset();
    for (std::size_t i = served.next_fresh; stream.size() < peel_requests(spec); ++i) {
      stream.push_back(served.inputs[i % served.inputs.size()]);
    }
  }

  const PeelTimes p = peel_serving(sink, spec, stream, models, threads_before_server);
  peel_codec(sink, spec, stream.front(), models.front()->predict(stream.front()));
  const core::GeneratorConfig gen = model_config(spec.paper_scale).generator;
  peel_nn(sink, gen);
  const auto batch = static_cast<Index>(
      std::clamp(std::llround(sink.get("serve.mean_batch")), 1LL, 8LL));
  models.clear();
  peel_backend(sink, gen, batch);

  {
    constexpr int kSpans = 1'000'000;
    Timer t;
    for (int i = 0; i < kSpans; ++i) obs::Span span("perfbench.disabled", "bench");
    sink.set("obs.disabled_span_ns", 1e9 * t.seconds() / kSpans, "ns");
  }

  peel_eda(sink, spec, args.seed);
  const double paper_b1_s =
      spec.paper_scale ? p.b1_p50
                       : paper_predict_b1(sweep_placements(
                             *make_design(spec.design, spec.design_scale), args.seed, 3, 256));
  sink.set("paper.route_over_forecast", sink.get("route.route_s") / paper_b1_s, "ratio");

  std::fprintf(stderr, "derived by subtraction or as ratios of measured layers:");
  for (const char* name : kDerived) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return tally.failures() == 0;
}

}  // namespace perfbench
