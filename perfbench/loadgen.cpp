// Load generation against a live NetServer: workload set-up, the closed
// loop (net::Client, pipelined), the open loop (one thread multiplexing raw
// PPN1 connections with ppoll) and the wire-equivalence check.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>

#include "common/check.h"
#include "common/timer.h"
#include "core/explorer.h"
#include "net/client.h"
#include "perfbench/bench.h"

namespace perfbench {

namespace net = paintplace::net;
using paintplace::Timer;

namespace {

constexpr Index kClosedWarmup = 4;       // untimed requests before a closed loop
constexpr double kOpenWarmupS = 1.0;     // untimed open-loop seconds at the timed rate
constexpr double kControlPeriodS = 0.1;  // open loop: one scrape or health probe per period
constexpr std::size_t kRecentWindow = 64;  // open loop: re-score candidates
constexpr double kZipfExponent = 1.0;
constexpr double kDrainTimeoutS = 20.0;
constexpr std::uint64_t kArrivalSeed = 175;

Outcome outcome_of(const net::ForecastResponse& r) {
  switch (r.status) {
    case net::Status::kOk: return Outcome::kOk;
    case net::Status::kShed: return Outcome::kShed;
    case net::Status::kFailed: return Outcome::kFailed;
  }
  return Outcome::kProtocolError;
}

/// The client-side use of a returned heat map: region congestion over the
/// four half-planes, as the placement explorer ranks candidates (Sec. 5.4).
double score_regions(const nn::Tensor& heatmap) {
  double sum = 0.0;
  for (const core::Region& r : {core::Region::upper(), core::Region::lower(),
                                core::Region::left(), core::Region::right()}) {
    sum += core::region_congestion(heatmap, r);
  }
  return sum;
}

bool well_formed(const net::ForecastResponse& r, bool want_heatmap, Index width) {
  if (r.status != net::Status::kOk) return true;
  if (!std::isfinite(r.congestion_score)) return false;
  if (!want_heatmap) return r.heatmap.numel() == 0;
  return r.heatmap.shape() == nn::Shape{1, 3, width, width};
}

/// Closed loop on one connection: keeps `depth` requests in flight over
/// `inputs`, starting at `next` and advancing it, until `seconds` have
/// passed and `min_samples` latencies were recorded (or the inputs run out),
/// then drains. The first depth - 1 requests of a window find the pipeline
/// part-empty, so only requests sent with depth - 1 others ahead of them
/// record a latency.
ServeRun closed_loop(std::uint16_t port, const std::vector<nn::Tensor>& inputs, std::size_t& next,
                     int depth, bool want_heatmap, Index width, double seconds,
                     Index min_samples) {
  ServeRun run;
  net::Client client("127.0.0.1", port);
  std::deque<std::pair<std::uint64_t, double>> in_flight;  // id, send time (-1: ramp-up)
  volatile double region_sink = 0.0;
  Timer clock;
  const Index ramp = depth - 1;
  const auto sent = [&] { return static_cast<Index>(run.tally.attempted() + in_flight.size()); };
  const auto keep_sending = [&] {
    if (next >= inputs.size()) return false;
    return clock.seconds() < seconds || sent() < min_samples + ramp;
  };
  while (true) {
    while (static_cast<int>(in_flight.size()) < depth && keep_sending()) {
      const std::uint64_t id = next + 1;  // unique per connection
      in_flight.emplace_back(id, sent() < ramp ? -1.0 : clock.seconds());
      client.send_forecast(id, inputs[next++], want_heatmap);
    }
    if (in_flight.empty()) break;
    const net::ForecastResponse resp = client.read_forecast_response();
    const double now = clock.seconds();
    const auto [id, sent_at] = in_flight.front();
    in_flight.pop_front();
    Outcome o = outcome_of(resp);
    if (resp.request_id != id || !well_formed(resp, want_heatmap, width)) {
      o = Outcome::kProtocolError;
    }
    run.tally.record(o);
    if (o == Outcome::kOk) {
      if (sent_at >= 0.0) run.latency_s.push_back(now - sent_at);
      if (want_heatmap) region_sink = region_sink + score_regions(resp.heatmap);
    }
  }
  run.elapsed_s = clock.seconds();
  return run;
}

// ---- open loop ----------------------------------------------------------------

struct RawConn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  net::FrameReader reader;
  bool broken = false;
  std::vector<std::uint64_t> pending;  // forecast ids sent, in order

  RawConn() = default;
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
};

void connect_raw(RawConn& c, std::uint16_t port) {
  c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PP_CHECK_MSG(c.fd >= 0, "socket: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  PP_CHECK_MSG(::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
               "connect: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
}

void flush(RawConn& c) {
  while (!c.broken && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      c.broken = true;
    }
  }
  if (c.out_off == c.out.size()) c.out.clear(), c.out_off = 0;
}

void enqueue(RawConn& c, const std::vector<std::uint8_t>& frame) {
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  flush(c);
}

/// Reads what the socket has into the frame reader; false once the peer
/// closed or the stream broke.
bool fill(RawConn& c) {
  std::uint8_t buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.reader.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

/// Zipf(kZipfExponent) rank over the recent window: rank 0 = newest.
class ZipfPick {
 public:
  ZipfPick() {
    std::vector<double> w(kRecentWindow);
    for (std::size_t r = 0; r < kRecentWindow; ++r) {
      w[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    }
    dist_ = std::discrete_distribution<std::size_t>(w.begin(), w.end());
  }
  std::size_t operator()(std::mt19937_64& rng) { return dist_(rng); }

 private:
  std::discrete_distribution<std::size_t> dist_;
};

/// One open-loop window: Poisson arrivals at `rate_rps` for `seconds`,
/// round-robin over the forecast connections; a `fresh_frac` share of fresh
/// inputs (taken in order from `fresh`, advancing `next_fresh`), the rest
/// Zipf re-scores of the last kRecentWindow fresh inputs. A control
/// connection alternates metrics scrapes and health probes every
/// kControlPeriodS.
ServeRun open_loop(std::uint16_t port, const std::vector<nn::Tensor>& fresh,
                   std::size_t& next_fresh, const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds) {
  const int n_fc = spec.connections;
  std::vector<RawConn> conns(static_cast<std::size_t>(n_fc + 1));
  for (RawConn& c : conns) connect_raw(c, port);
  RawConn& control = conns.back();

  // The arrival instants are part of the workload, like its rate: fixed
  // across seeds, so runs differ in their inputs, not in how requests clump.
  const std::vector<double> arrivals = poisson_arrivals(spec.rate_rps, seconds, kArrivalSeed);
  std::mt19937_64 rng(seed ^ 0x5eedf00dULL);
  std::bernoulli_distribution rescore_coin(1.0 - spec.fresh_frac);
  ZipfPick zipf;
  OpenLoopLedger ledger;
  ServeRun run;

  std::uint64_t next_id = 1;
  std::uint64_t control_id = 0;
  std::size_t next_arrival = 0;
  double next_control = 0.0;
  bool sending = !arrivals.empty();
  const auto t0 = std::chrono::steady_clock::now();
  const auto now_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  std::vector<pollfd> pfds(conns.size());

  while (sending || ledger.in_flight() > 0) {
    double now = now_s();
    // Send everything that is due (charging any lateness to the request).
    while (sending && arrivals[next_arrival] <= now) {
      const double due = arrivals[next_arrival++];
      const bool rescore = next_fresh >= kRecentWindow && rescore_coin(rng);
      std::size_t idx;
      if (rescore) {
        idx = next_fresh - 1 - zipf(rng);
      } else {
        PP_CHECK_MSG(next_fresh < fresh.size(), "open loop ran out of fresh inputs");
        idx = next_fresh++;
      }
      net::ForecastRequest req;
      req.request_id = next_id++;
      req.want_heatmap = spec.want_heatmap;
      req.input = fresh[idx];
      RawConn& c = conns[static_cast<std::size_t>(req.request_id % n_fc)];
      ledger.sent(req.request_id, due, now_s());
      if (c.fd < 0) {  // the connection broke earlier: the request fails at once
        ledger.completed(req.request_id, now_s(), Outcome::kProtocolError);
      } else {
        c.pending.push_back(req.request_id);
        enqueue(c, net::encode_forecast_request(req));
      }
      sending = next_arrival < arrivals.size();
      now = now_s();
    }
    if (now >= next_control && (sending || ledger.in_flight() > 0)) {
      ++control_id;
      enqueue(control, control_id % 2 == 1 ? net::encode_metrics_request(control_id)
                                           : net::encode_health_request(control_id));
      next_control += kControlPeriodS;
    }
    if (!sending && now > seconds + kDrainTimeoutS) break;  // unanswered = failed below

    const double wake = std::min(sending ? arrivals[next_arrival] : now + 0.05, next_control);
    const double wait = std::max(0.0, wake - now_s());
    timespec ts{static_cast<time_t>(wait), static_cast<long>((wait - std::floor(wait)) * 1e9)};
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = {conns[i].fd, static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      RawConn& c = conns[i];
      if (pfds[i].revents & POLLOUT) flush(c);
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const bool open = fill(c);
      try {
        while (auto frame = c.reader.next()) {
          const double done = now_s();
          if (&c == &control) {
            if (frame->type == net::FrameType::kMetricsResponse) {
              run.scrapes += net::decode_text(*frame).empty() ? 0 : 1;
            } else if (frame->type == net::FrameType::kHealthResponse) {
              (void)net::decode_health_response(*frame);
              run.scrapes += 1;
            }
            continue;
          }
          Outcome o = Outcome::kProtocolError;
          if (frame->type == net::FrameType::kForecastResponse) {
            const net::ForecastResponse resp = net::decode_forecast_response(*frame);
            if (well_formed(resp, spec.want_heatmap, 0)) o = outcome_of(resp);
          }
          // Responses arrive in request order per connection.
          const bool in_order = !c.pending.empty() && c.pending.front() == frame->request_id;
          if (!in_order) o = Outcome::kProtocolError;
          if (!c.pending.empty()) c.pending.erase(c.pending.begin());
          ledger.completed(frame->request_id, done, o);
        }
      } catch (const net::WireError&) {
        c.broken = true;
      }
      if (!open) c.broken = true;
      if (c.broken) {
        for (const std::uint64_t id : c.pending) {
          ledger.completed(id, now_s(), Outcome::kProtocolError);
        }
        c.pending.clear();
        PP_CHECK_MSG(&c != &control && c.fd >= 0, "control connection lost");
        ::close(c.fd);
        c.fd = -1;  // ppoll ignores negative fds
      }
    }
  }
  for (RawConn& c : conns) {
    for (const std::uint64_t id : c.pending) ledger.completed(id, now_s(), Outcome::kFailed);
  }
  run.elapsed_s = now_s();
  run.tally = ledger.tally();
  run.latency_s = ledger.latencies();
  run.lag_s = ledger.lags();
  return run;
}

}  // namespace

Served set_up(const WorkloadSpec& spec, std::uint64_t seed, SetupTimes& times) {
  Served served;
  const Index width = image_width(spec);
  Timer t;
  const std::unique_ptr<Design> design = make_design(spec.design, spec.design_scale);
  if (spec.paper_scale) {
    served.inputs = sweep_placements(*design, seed * 1000, spec.max_requests + kClosedWarmup,
                                     width);
  } else if (spec.loop == "open") {
    // Fresh inputs for the warm-up (its first kRecentWindow arrivals are
    // all fresh) and the timed window (the fresh_frac share of min_samples
    // arrivals), with ample headroom: running out fails the run.
    served.inputs = anneal_snapshots(*design, seed, spec.max_requests, 3, width);
  } else {
    served.inputs =
        anneal_snapshots(*design, seed, spec.max_requests + kClosedWarmup, 2, width);
  }
  if (spec.loop == "closed") {
    served.warmup.assign(served.inputs.end() - kClosedWarmup, served.inputs.end());
    served.inputs.resize(served.inputs.size() - kClosedWarmup);
  }
  times.inputs_s = t.seconds();

  t.reset();
  served.server = std::make_unique<net::NetServer>(
      net::NetServerConfig{}, [&spec] { return make_model(spec.paper_scale); });
  times.server_s = t.seconds();

  t.reset();
  ServeRun warm;
  if (spec.loop == "open") {
    warm = open_loop(served.server->port(), served.inputs, served.next_fresh, spec, seed,
                     kOpenWarmupS);
  } else {
    std::size_t next = 0;
    warm = closed_loop(served.server->port(), served.warmup, next, 1, spec.want_heatmap, width,
                       0.0, static_cast<Index>(served.warmup.size()));
  }
  PP_CHECK_MSG(warm.tally.failures() == 0, "warm-up requests failed");
  times.warmup_s = t.seconds();
  return served;
}

ServeRun drive(const WorkloadSpec& spec, Served& served, std::uint64_t seed, double seconds,
               Index min_samples) {
  if (spec.loop == "open") {
    // Long enough for min_samples arrivals at the fixed rate.
    const double window = std::max(seconds, static_cast<double>(min_samples) / spec.rate_rps);
    return open_loop(served.server->port(), served.inputs, served.next_fresh, spec,
                     seed * 7919 + 1, window);
  }
  return closed_loop(served.server->port(), served.inputs, served.next_fresh, spec.depth,
                     spec.want_heatmap, image_width(spec), seconds, min_samples);
}

TwinForecasts twin_forecasts(const WorkloadSpec& spec, const std::vector<nn::Tensor>& inputs) {
  const auto twin = make_model(spec.paper_scale);
  TwinForecasts out;
  for (const nn::Tensor& x : inputs) {
    out.heatmaps.push_back(twin->predict(x));
    out.scores.push_back(twin->congestion_score(out.heatmaps.back()));
  }
  return out;
}

std::vector<nn::Tensor> check_subset(const WorkloadSpec& spec,
                                     const std::vector<nn::Tensor>& inputs) {
  const std::size_t want = spec.paper_scale ? 3 : 8;
  const std::size_t step = std::max<std::size_t>(1, inputs.size() / want);
  std::vector<nn::Tensor> out;
  for (std::size_t i = 0; i < inputs.size() && out.size() < want; i += step) {
    out.push_back(inputs[i]);
  }
  return out;
}

Index check_wire_equivalence(Served& served, const std::vector<nn::Tensor>& inputs,
                             const TwinForecasts& twin, std::string& detail) {
  PP_CHECK(twin.heatmaps.size() == inputs.size() && twin.scores.size() == inputs.size());
  net::Client client("127.0.0.1", served.server->port());
  Index mismatches = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const net::ForecastResponse r = client.forecast(inputs[i], true);
    const nn::Tensor& heat = twin.heatmaps[i];
    const bool same_map =
        r.status == net::Status::kOk && r.heatmap.shape() == heat.shape() &&
        std::memcmp(r.heatmap.data(), heat.data(), sizeof(float) * heat.numel()) == 0;
    const bool same_score =
        std::memcmp(&r.congestion_score, &twin.scores[i], sizeof(double)) == 0;
    if (!same_map || !same_score) {
      ++mismatches;
      detail += "input " + std::to_string(i) + (same_map ? "" : ": heat map differs") +
                (same_score ? "" : ": score differs") + "\n";
    }
  }
  return mismatches;
}

}  // namespace perfbench
