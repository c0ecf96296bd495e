// engine_load: replay/load-generator client of the sharded dispatch engine.
//
// Generates a hotspot-clustered workload on the Beijing-like network, then
// replays it through engine::Engine with N producer threads submitting
// orders concurrently with the round loop — producers pace themselves
// against the engine's virtual clock (now_s), so the run is a faithful
// replay at any producer count and its results are bit-identical to the
// single-threaded RunSimulation (sim/simulator.h) for one shard.
//
// Emits BENCH_engine_load.json (schema-validated, with the additive
// "engine" object: per-shard round latency quantiles, queue depths,
// migration counts, degradation-tier histogram) into AR_BENCH_OUT_DIR.
// Honors AR_FAULT_PROFILE (none|breakdowns|cancellations|storm).
//
// Flags: --orders N --vehicles N --shards N --threads N --producers N
//        --trnd S --duration S --mechanism greedy|rank --seed N
//        --round-budget-ms MS (service mode: wall-clock anytime budget per
//        auction round, i.e. faults.round_budget_s with wall_clock_budget;
//        also settable via AR_ROUND_BUDGET_MS, flag wins; a fault profile's
//        own budget wins over both)
// --threads sizes the engine's one pool, which runs the shard round tasks
// and, nested inside them, each shard's dispatch and pricing (0 = hardware
// concurrency, negative = all serial).
//
// A load validation run at paper-plus scale (sustains >= 50k concurrent
// pending orders across 8 shards, no FCFS fallback on fault-free rounds):
//   engine_load --orders 60000 --vehicles 2000 --shards 8 --duration 240

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "engine/engine.h"
#include "engine/stats_json.h"
#include "obs/bench_json.h"
#include "obs/metrics.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/report.h"
#include "workload/generator.h"

using namespace auctionride;

int main(int argc, char** argv) {
  int num_orders = 5000;
  int num_vehicles = 1500;
  int num_shards = 8;
  int engine_threads = 0;
  int num_producers = 4;
  double trnd = 10;
  double duration_s = 600;
  uint64_t seed = 42;
  MechanismKind mechanism = MechanismKind::kRank;
  double round_budget_ms = 0;
  if (const char* env = std::getenv("AR_ROUND_BUDGET_MS");
      env != nullptr && env[0] != '\0') {
    round_budget_ms = std::atof(env);
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--orders") num_orders = std::atoi(argv[i + 1]);
    if (flag == "--vehicles") num_vehicles = std::atoi(argv[i + 1]);
    if (flag == "--shards") num_shards = std::atoi(argv[i + 1]);
    if (flag == "--threads") engine_threads = std::atoi(argv[i + 1]);
    if (flag == "--producers") {
      num_producers = std::max(1, std::atoi(argv[i + 1]));
    }
    if (flag == "--trnd") trnd = std::atof(argv[i + 1]);
    if (flag == "--duration") duration_s = std::atof(argv[i + 1]);
    if (flag == "--seed") {
      seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    }
    if (flag == "--mechanism") {
      mechanism = std::strcmp(argv[i + 1], "greedy") == 0
                      ? MechanismKind::kGreedy
                      : MechanismKind::kRank;
    }
    if (flag == "--round-budget-ms") round_budget_ms = std::atof(argv[i + 1]);
  }

  std::printf("building Beijing-like road network (29.6 x 29.6 km)...\n");
  RoadNetwork network = BuildBeijingLikeNetwork(/*seed=*/7);
  DistanceOracle oracle(&network);
  NearestNodeIndex nearest(&network, 400);

  WorkloadOptions wl;
  wl.seed = seed;
  wl.num_orders = num_orders;
  wl.num_vehicles = num_vehicles;
  wl.duration_s = Seconds(duration_s);
  wl.gamma = 1.5;
  std::printf("generating %d orders / %d vehicles over %.0f s...\n",
              wl.num_orders, wl.num_vehicles, wl.duration_s.value());
  Workload workload = GenerateWorkload(wl, oracle, nearest);

  EngineOptions options;
  options.mechanism = mechanism;
  options.auction.alpha_d_per_km = 3.0;
  options.auction.charge_ratio = 0.2;
  options.round_duration_s = Seconds(trnd);
  options.seed = seed;
  options.num_shards = num_shards;
  options.engine_threads = engine_threads;
  options.faults = FaultOptionsFromEnv(seed);
  options.verify_dispatch = options.faults.any();
  if (round_budget_ms > 0 && options.faults.round_budget_s <= 0) {
    // Service mode: a real wall-clock budget, best-so-far at the deadline.
    // Wall-clock rounds are not bit-reproducible, so verification stays
    // keyed to the injected-fault profile.
    options.faults.round_budget_s = round_budget_ms / 1e3;
    options.faults.wall_clock_budget = true;
  }

  Engine engine(&oracle, &workload.orders, workload.vehicles, options);
  std::printf(
      "replaying through %d shards (%s, t_rnd = %.0f s, %d producers, "
      "faults = %s)...\n",
      num_shards, std::string(MechanismName(mechanism)).c_str(), trnd,
      num_producers,
      std::string(FaultProfileName(options.faults.profile)).c_str());

  // Producers stripe the order catalog by index (orders are sorted by issue
  // time, so each producer walks its slice in issue order) and pace
  // themselves against the engine's virtual clock: an order is submitted as
  // soon as the round clock reaches its issue time. Submission is
  // concurrent with StepRound() below — the ingestion queues are the
  // synchronization point.
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(num_producers));
  for (int p = 0; p < num_producers; ++p) {
    producers.emplace_back([&engine, &workload, p, num_producers] {
      for (std::size_t i = static_cast<std::size_t>(p);
           i < workload.orders.size();
           i += static_cast<std::size_t>(num_producers)) {
        const Order& order = workload.orders[i];
        while (engine.now_s() < order.issue_time_s) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        engine.SubmitOrder(order);
      }
    });
  }

  Seconds horizon;
  for (const Order& o : workload.orders) {
    horizon = std::max(horizon, o.issue_time_s);
  }
  horizon += options.max_pending_s + options.round_duration_s;
  while (engine.now_s() < horizon) {
    engine.StepRound();
  }
  for (std::thread& t : producers) t.join();
  // One extra round flushes any orders enqueued between the final
  // pre-horizon drain and the producer joins; by now they are all past
  // max_pending, so this round expires rather than dispatches them.
  engine.StepRound();
  engine.DrainDeliveries();

  const SimResult result = engine.Finish();
  const EngineStats& stats = engine.stats();

  std::printf("\n--- results ---\n%s", FormatSummary(result).c_str());
  std::printf("\n--- engine ---\n");
  std::printf("rounds = %llu, migrations = %llu, peak concurrent orders = "
              "%zu\n",
              static_cast<unsigned long long>(stats.rounds),
              static_cast<unsigned long long>(stats.migrations),
              stats.peak_concurrent_orders);
  std::printf("tiers: primary = %llu, greedy_fallback = %llu, "
              "fcfs_fallback = %llu | truncated rounds = %llu\n",
              static_cast<unsigned long long>(stats.tier_counts[0]),
              static_cast<unsigned long long>(stats.tier_counts[1]),
              static_cast<unsigned long long>(stats.tier_counts[2]),
              static_cast<unsigned long long>(stats.truncated_rounds));
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    const ShardStats& sh = stats.shards[s];
    std::printf("shard %zu: rounds = %llu, ingested = %llu, peak pending = "
                "%zu, peak queue = %zu, migrations in/out = %llu/%llu, "
                "tiers = %llu/%llu/%llu, truncated = %llu, "
                "round p50/p99 = %.4f/%.4f s\n",
                s, static_cast<unsigned long long>(sh.auction_rounds),
                static_cast<unsigned long long>(sh.ingested),
                sh.peak_pending, sh.peak_queue_depth,
                static_cast<unsigned long long>(sh.migrations_in),
                static_cast<unsigned long long>(sh.migrations_out),
                static_cast<unsigned long long>(sh.tier_counts[0]),
                static_cast<unsigned long long>(sh.tier_counts[1]),
                static_cast<unsigned long long>(sh.tier_counts[2]),
                static_cast<unsigned long long>(sh.truncated_rounds),
                sh.round_s.count() > 0 ? sh.round_s.p50() : 0.0,
                sh.round_s.count() > 0 ? sh.round_s.p99() : 0.0);
  }
  // FCFS is the last rung of the degradation ladder; it only engages under
  // round budgets (synthetic spike budgets or the service-mode wall clock),
  // so a fault-free, budget-free replay must never touch it (the CI soak
  // job greps for this line).
  if (!options.faults.any()) {
    ARIDE_ACHECK(stats.tier_counts[2] == 0)
        << "FCFS fallback engaged on a fault-free run";
    std::printf("fault-free run: no FCFS collapse (0 fcfs rounds)\n");
  }

  const char* env = std::getenv("AR_BENCH_OUT_DIR");
  const std::string dir = env != nullptr && env[0] != '\0' ? env : ".";
  obs::BenchRunInfo info;
  info.name = "engine_load";
  info.timestamp_unix_s = static_cast<int64_t>(std::time(nullptr));
  info.scale["orders"] = num_orders;
  info.scale["vehicles"] = num_vehicles;
  info.scale["shards"] = num_shards;
  info.scale["producers"] = num_producers;
  info.scale["engine_threads"] = engine_threads;
  info.config["mechanism"] = std::string(MechanismName(mechanism));
  info.config["trnd_s"] = trnd;
  info.config["duration_s"] = duration_s;
  info.config["gamma"] = wl.gamma;
  info.config["charge_ratio"] = options.auction.charge_ratio;
  info.config["seed"] = static_cast<int64_t>(seed);
  info.config["round_budget_ms"] = round_budget_ms;
  if (options.faults.profile != FaultProfile::kNone) {
    info.fault_profile = std::string(FaultProfileName(options.faults.profile));
  }
  info.engine = EngineStatsToJson(stats);

  const obs::Json report =
      obs::BuildBenchReport(info, obs::MetricRegistry::Global().Snapshot());
  const Status valid = obs::ValidateBenchReport(report);
  ARIDE_ACHECK(valid.ok()) << valid.ToString();
  const std::string path = dir + "/BENCH_engine_load.json";
  const Status written = obs::WriteBenchReport(report, path);
  ARIDE_ACHECK(written.ok()) << written.ToString();
  std::printf("telemetry: %s\n", path.c_str());
  return 0;
}
