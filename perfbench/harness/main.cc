// dispatchbench: the repository's benchmark harness.
//
//   dispatchbench --workload city_rank|storm_greedy|fig8_round --seed N
//                 --seconds S --trace 0|1 [--scale full|tiny] [--out-dir DIR]
//
// Runs untraced iterations of the workload until their timed sections add up
// to S seconds (at least one), and with --trace 1 one more traced iteration
// plus the layer probes. Every outcome is checked. Prints the run context,
// the detail report (digests, checks, span self times) and, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 on a
// usage error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "obs/build_info.h"
#include "obs/json.h"
#include "report.h"
#include "workloads.h"

using auctionride::obs::Json;
using namespace auctionride::perfbench;

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "dispatchbench: %s\nusage: dispatchbench --workload "
               "city_rank|storm_greedy|fig8_round --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--out-dir DIR]\n",
               msg);
  return 1;
}

Json Context(const RunConfig& config) {
  Json c = Json::Object();
  c["workload"] = config.workload;
  c["seed"] = static_cast<int64_t>(config.seed);
  c["seconds"] = config.seconds;
  c["trace"] = config.trace;
  c["scale"] = config.tiny ? "tiny" : "full";
  c["nproc"] = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  c["hardware_concurrency"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  c["worker_threads"] = kWorkerThreads;
  c["build_type"] = ARIDE_BUILD_TYPE;
  c["git_sha"] = ARIDE_BUILD_GIT_SHA;
  c["aride_obs"] = AR_BENCH_OBS != 0;
  c["compiler"] = __VERSION__;
  return c;
}

Json MetricsJson(const Metrics& metrics) {
  Json out = Json::Object();
  for (const auto& [name, m] : metrics) {
    Json entry = Json::Object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    out[name] = entry;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.out_dir = ".";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        return Usage("--scale takes full or tiny");
      }
      config.tiny = value == "tiny";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!IsEngineWorkload(config.workload) && !IsRoundWorkload(config.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace are required");
  }

  const Json context = Context(config);
  std::printf("context %s\n", context.Dump().c_str());
  std::fflush(stdout);

  RunOutput out = IsEngineWorkload(config.workload)
                      ? RunEngineWorkload(config)
                      : RunRoundWorkload(config);

  const double attempted = static_cast<double>(out.attempted);
  if (!config.trace) {
    out.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
    // 1 − failed_frac: the end-to-end metrics are kept non-zero.
    out.end_to_end["success_frac"] = {
        attempted > 0 ? 1.0 - static_cast<double>(out.failed) / attempted : 0,
        "ratio"};
  }
  Json problems = Json::Array();
  for (const std::string& p : out.problems) problems.push_back(p);
  out.detail["problems"] = problems;
  out.detail["context"] = context;
  out.detail["correct"] = out.correct;
  out.detail["attempted"] = out.attempted;
  out.detail["failed"] = out.failed;
  out.detail["end_to_end"] = MetricsJson(out.end_to_end);
  out.detail["per_layer"] = MetricsJson(out.per_layer);
  std::printf("detail %s\n", out.detail.Dump().c_str());
  const std::string result_path = config.out_dir + "/RESULT_perfbench_" +
                                  config.workload + "_trace" +
                                  (config.trace ? "1" : "0") + ".json";
  std::ofstream(result_path) << out.detail.DumpPretty() << "\n";
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "dispatchbench: check failed: %s\n", p.c_str());
  }

  Json result = Json::Object();
  result["correct"] = out.correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] =
      MetricsJson(config.trace ? out.per_layer : out.end_to_end);
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
