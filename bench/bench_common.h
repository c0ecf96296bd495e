// Shared infrastructure for the per-figure benchmark harnesses.
//
// Every binary reproduces one figure of the paper's evaluation (§V) and
// prints the same series the figure reports. The paper ran at 5000 orders /
// 7000 vehicles (Didi Beijing, 7:00-7:30am); the default bench scale is 0.2x
// (1000 orders / 1400 vehicles) so the whole suite completes in minutes on a
// laptop. Set AR_BENCH_SCALE=1.0 to run at full paper scale.

#ifndef AUCTIONRIDE_BENCH_BENCH_COMMON_H_
#define AUCTIONRIDE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/bench_json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace auctionride {
namespace bench {

inline double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("AR_BENCH_SCALE");
    const double s = env != nullptr ? std::atof(env) : 0.2;
    return s > 0 ? s : 0.2;
  }();
  return scale;
}

inline int ScaledOrders(int paper_count = 5000) {
  return std::max(50, static_cast<int>(paper_count * BenchScale()));
}

inline int ScaledVehicles(int paper_count = 7000) {
  return std::max(50, static_cast<int>(paper_count * BenchScale()));
}

/// Dispatch-parallelism knob: AR_DISPATCH_THREADS. Unset or 0 = hardware
/// concurrency, negative = serial dispatch, positive = that many workers.
/// Simulations pass it as the engine's thread count, which sizes the one
/// pool dispatch and pricing run on. Results are bit-identical across all
/// settings; only wall time changes.
inline int DispatchThreadsEnv() {
  static const int threads = [] {
    const char* env = std::getenv("AR_DISPATCH_THREADS");
    return env != nullptr && env[0] != '\0' ? std::atoi(env) : 0;
  }();
  return threads;
}

/// Process-wide dispatch pool honoring AR_DISPATCH_THREADS (nullptr when
/// dispatch is forced serial).
inline ThreadPool* DispatchPool() {
  static ThreadPool* pool = []() -> ThreadPool* {
    const int threads = DispatchThreadsEnv();
    if (threads < 0) return nullptr;
    const std::size_t n =
        threads > 0 ? static_cast<std::size_t>(threads)
                    : std::max<std::size_t>(
                          1, std::thread::hardware_concurrency());
    return new ThreadPool(n);
  }();
  return pool;
}

/// Shared Beijing-like world: network + CH oracle + nearest-node index,
/// built once per binary.
struct World {
  RoadNetwork network;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<NearestNodeIndex> nearest;
};

inline World& SharedWorld() {
  static World* world = [] {
    auto* w = new World();
    w->network = BuildBeijingLikeNetwork(/*seed=*/7);
    w->oracle = std::make_unique<DistanceOracle>(&w->network);
    w->nearest = std::make_unique<NearestNodeIndex>(&w->network, 400);
    return w;
  }();
  return *world;
}

/// Paper workload defaults (Table II bold values) at bench scale.
inline WorkloadOptions PaperWorkload(uint64_t seed = 42) {
  WorkloadOptions wl;
  wl.seed = seed;
  wl.num_orders = ScaledOrders();
  wl.num_vehicles = ScaledVehicles();
  wl.duration_s = Seconds(1800);
  wl.gamma = 1.5;
  return wl;
}

/// Paper auction defaults (Table II bold values).
inline AuctionConfig PaperAuction() {
  AuctionConfig config;
  config.alpha_d_per_km = 3.0;
  return config;
}

/// Runs one full simulation and reports the figure metrics as counters.
/// Fault injection follows AR_FAULT_PROFILE (default "none", which is
/// bit-identical to running without fault support at all).
inline SimResult RunSim(MechanismKind mechanism, const WorkloadOptions& wl,
                        const EngineOptions& sim_options) {
  World& world = SharedWorld();
  const Workload workload =
      GenerateWorkload(wl, *world.oracle, *world.nearest);
  EngineOptions options = sim_options;
  options.mechanism = mechanism;
  options.engine_threads = DispatchThreadsEnv();
  options.faults = FaultOptionsFromEnv(options.seed);
  return RunSimulation(world.oracle.get(), workload, options);
}

inline void ReportSim(benchmark::State& state, const SimResult& result) {
  state.counters["utility"] = result.total_utility.value();
  state.counters["dispatch_rate"] = result.dispatch_rate();
  state.counters["round_time_mean_s"] = result.mean_dispatch_seconds.value();
  state.counters["round_time_max_s"] = result.max_dispatch_seconds.value();
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("\n=== %s ===\n%s\nscale=%.2fx of the paper's 5000 orders / "
              "7000 vehicles (set AR_BENCH_SCALE to change)\n\n",
              figure, description, BenchScale());
}

/// Turns span tracing on unless AR_TRACE=0 (metrics are always collected).
inline void InitTelemetry() {
  const char* env = std::getenv("AR_TRACE");
  obs::Tracer::SetEnabled(env == nullptr || std::strcmp(env, "0") != 0);
}

/// Emits BENCH_<name>.json (schema-validated) and, when tracing is on,
/// TRACE_<name>.json into AR_BENCH_OUT_DIR (default: current directory).
inline void FinishBench(const std::string& name) {
  const char* env = std::getenv("AR_BENCH_OUT_DIR");
  const std::string dir = env != nullptr && env[0] != '\0' ? env : ".";

  obs::BenchRunInfo info;
  info.name = name;
  info.timestamp_unix_s = static_cast<int64_t>(std::time(nullptr));
  info.scale["bench_scale"] = BenchScale();
  info.scale["orders"] = ScaledOrders();
  info.scale["vehicles"] = ScaledVehicles();
  const WorkloadOptions wl = PaperWorkload();
  const AuctionConfig auction = PaperAuction();
  info.config["gamma"] = wl.gamma;
  info.config["duration_s"] = wl.duration_s.value();
  info.config["alpha_d_per_km"] = auction.alpha_d_per_km;
  info.config["beta_d_per_km"] = auction.beta_d_per_km;
  info.config["charge_ratio"] = auction.charge_ratio;
  info.config["pack_candidate_limit"] = auction.pack_candidate_limit;
  info.config["dispatch_threads"] = DispatchThreadsEnv();
  // Surface the active fault profile in the report (the "faults" object is
  // omitted entirely for fault-free runs; see bench_json.h).
  const FaultOptions faults = FaultOptionsFromEnv(/*seed=*/0);
  if (faults.profile != FaultProfile::kNone) {
    info.fault_profile = std::string(FaultProfileName(faults.profile));
  }

  const obs::MetricsSnapshot snap =
      obs::MetricRegistry::Global().Snapshot();
  const obs::Json report = obs::BuildBenchReport(info, snap);
  const Status valid = obs::ValidateBenchReport(report);
  ARIDE_ACHECK(valid.ok()) << valid.ToString();

  const std::string bench_path = dir + "/BENCH_" + name + ".json";
  const Status written = obs::WriteBenchReport(report, bench_path);
  ARIDE_ACHECK(written.ok()) << written.ToString();
  std::printf("\ntelemetry: %s\n", bench_path.c_str());

  if (obs::Tracer::enabled()) {
    const std::string trace_path = dir + "/TRACE_" + name + ".json";
    const Status traced = obs::Tracer::WriteChromeTrace(trace_path);
    ARIDE_ACHECK(traced.ok()) << traced.ToString();
    std::printf("trace:     %s (load in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
}

/// Standard bench main: header, telemetry init, benchmark loop, telemetry
/// emission. Every bench binary funnels through this.
inline int BenchMain(const std::string& name, const char* figure,
                     const char* description, int argc, char** argv) {
  PrintHeader(figure, description);
  InitTelemetry();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  FinishBench(name);
  return 0;
}

}  // namespace bench
}  // namespace auctionride

#endif  // AUCTIONRIDE_BENCH_BENCH_COMMON_H_
