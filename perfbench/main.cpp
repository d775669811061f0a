// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload against the real serving stack (NetServer -> ReplicaPool
// -> ForecastServer -> CongestionForecaster -> cpu_opt) or the EDA pipeline
// (place -> route -> render), checks its outputs, and prints one JSON object
// as the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
// run that times each layer's public entry points from outside and reports
// the per-layer metrics. Progress and a readable table go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("--trace is 0 or 1");
      args.trace = value[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  try {
    (void)perfbench::workload_spec(args.workload);
  } catch (const std::exception&) {
    usage(("unknown workload " + args.workload).c_str());
  }
  std::fprintf(stderr, "perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  try {
    perfbench::MetricSink sink;
    perfbench::Tally tally;
    const bool correct = args.trace ? perfbench::run_traced(args, sink, tally)
                                    : perfbench::run_workload(args, sink, tally);
    std::fprintf(stderr, "%s%s\n", sink.table().c_str(), correct ? "correct" : "INCORRECT");
    std::printf("%s\n", sink.result_json(correct, tally.attempted(), tally.failures()).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
