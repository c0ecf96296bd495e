// Morning-peak simulation: the paper's headline scenario (§V-A) at reduced
// scale — a Beijing-like network, hotspot-clustered commuter demand over a
// 30-minute window, round-based dispatch with the Rank mechanism and DnW
// pricing with a 20% dispatch fee (the paper's recommended charge ratio).
//
// Pass `--orders N --vehicles N --trnd S --mechanism greedy|rank` to vary.
//
// When AR_BENCH_OUT_DIR is set, also emits a schema-validated
// BENCH_morning_peak.json there. Unlike engine_load (whose producers race
// the round clock), one thread submits every order before its round: for a
// fixed seed and AR_FAULT_PROFILE the report's counters are
// bit-reproducible, which is what the CI anytime gate keys on
// (tools/check_anytime_dispatch.py).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "common/check.h"
#include "obs/bench_json.h"
#include "obs/metrics.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/generator.h"

using namespace auctionride;

int main(int argc, char** argv) {
  int num_orders = 400;
  int num_vehicles = 500;
  double trnd = 10;
  MechanismKind mechanism = MechanismKind::kRank;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--orders") num_orders = std::atoi(argv[i + 1]);
    if (flag == "--vehicles") num_vehicles = std::atoi(argv[i + 1]);
    if (flag == "--trnd") trnd = std::atof(argv[i + 1]);
    if (flag == "--mechanism") {
      mechanism = std::strcmp(argv[i + 1], "greedy") == 0
                      ? MechanismKind::kGreedy
                      : MechanismKind::kRank;
    }
  }

  std::printf("building Beijing-like road network (29.6 x 29.6 km)...\n");
  RoadNetwork network = BuildBeijingLikeNetwork(/*seed=*/7);
  DistanceOracle oracle(&network);
  NearestNodeIndex nearest(&network, 400);

  WorkloadOptions wl;
  wl.seed = 42;
  wl.num_orders = num_orders;
  wl.num_vehicles = num_vehicles;
  wl.duration_s = Seconds(1800);
  wl.gamma = 1.5;
  std::printf("generating %d orders / %d vehicles over %.0f s...\n",
              wl.num_orders, wl.num_vehicles, wl.duration_s.value());
  const Workload workload = GenerateWorkload(wl, oracle, nearest);

  EngineOptions sim_options;
  sim_options.mechanism = mechanism;
  sim_options.round_duration_s = Seconds(trnd);
  sim_options.run_pricing = true;
  sim_options.auction.alpha_d_per_km = 3.0;
  sim_options.auction.charge_ratio = 0.2;  // the paper's best setting
  sim_options.faults = FaultOptionsFromEnv(sim_options.seed);
  // Fault runs double as CI smoke coverage for the recovery invariants, so
  // re-verify every round's dispatch and payments when faults are active.
  sim_options.verify_dispatch = sim_options.faults.any();

  std::printf("simulating with %s, t_rnd = %.0f s, CR = %.1f, faults = %s...\n",
              std::string(MechanismName(mechanism)).c_str(), trnd,
              sim_options.auction.charge_ratio,
              std::string(FaultProfileName(sim_options.faults.profile))
                  .c_str());
  const SimResult result = RunSimulation(&oracle, workload, sim_options);

  std::printf("\n--- results ---\n%s", FormatSummary(result).c_str());
  const Status rounds_csv = WriteRoundsCsv(result, "/tmp/morning_peak_rounds.csv");
  const Status summary_csv =
      WriteSummaryCsv(result, "/tmp/morning_peak_summary.csv");
  if (rounds_csv.ok() && summary_csv.ok()) {
    std::printf("wrote /tmp/morning_peak_rounds.csv and "
                "/tmp/morning_peak_summary.csv\n");
  }
  std::printf("max wt+dt-theta over riders = %.6f s (must be <= 0)\n",
              result.max_wasted_time_violation_s.value());

  if (const char* env = std::getenv("AR_BENCH_OUT_DIR");
      env != nullptr && env[0] != '\0') {
    obs::BenchRunInfo info;
    info.name = "morning_peak";
    info.timestamp_unix_s = static_cast<int64_t>(std::time(nullptr));
    info.scale["orders"] = num_orders;
    info.scale["vehicles"] = num_vehicles;
    info.config["mechanism"] = std::string(MechanismName(mechanism));
    info.config["trnd_s"] = trnd;
    info.config["charge_ratio"] = sim_options.auction.charge_ratio;
    info.config["seed"] = static_cast<int64_t>(sim_options.seed);
    info.config["orders_dispatched"] = result.orders_dispatched;
    info.config["truncated_rounds"] = result.truncated_rounds;
    info.config["degraded_rounds"] = result.degraded_rounds;
    if (sim_options.faults.profile != FaultProfile::kNone) {
      info.fault_profile =
          std::string(FaultProfileName(sim_options.faults.profile));
    }
    const obs::Json report = obs::BuildBenchReport(
        info, obs::MetricRegistry::Global().Snapshot());
    const Status valid = obs::ValidateBenchReport(report);
    ARIDE_ACHECK(valid.ok()) << valid.ToString();
    const std::string path =
        std::string(env) + "/BENCH_morning_peak.json";
    const Status written = obs::WriteBenchReport(report, path);
    ARIDE_ACHECK(written.ok()) << written.ToString();
    std::printf("telemetry: %s\n", path.c_str());
  }
  return 0;
}
