#include <algorithm>
#include <numeric>
#include <string>

#include "common/rng.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "roadnet/builder.h"
#include "workloads.h"

namespace auctionride {
namespace perfbench {

std::unique_ptr<World> BuildWorld(SpanRecorder* spans, SetupTimes* times) {
  auto world = std::make_unique<World>();
  double t0 = NowSeconds();
  {
    ScopedSpan span(spans, "setup.network");
    world->network = BuildBeijingLikeNetwork(/*seed=*/7);
  }
  times->network_s = NowSeconds() - t0;
  t0 = NowSeconds();
  {
    ScopedSpan span(spans, "setup.ch");
    world->oracle = std::make_unique<DistanceOracle>(
        &world->network, DistanceOracle::Backend::kContractionHierarchy);
  }
  times->ch_s = NowSeconds() - t0;
  t0 = NowSeconds();
  {
    ScopedSpan span(spans, "setup.nearest_index");
    world->nearest = std::make_unique<NearestNodeIndex>(&world->network, 400);
  }
  times->nearest_s = NowSeconds() - t0;
  return world;
}

WorkloadOptions PaperWorkloadOptions(uint64_t seed, int orders, int vehicles,
                                     Seconds duration) {
  WorkloadOptions wl;
  wl.seed = seed;
  wl.num_orders = orders;
  wl.num_vehicles = vehicles;
  wl.duration_s = duration;
  wl.gamma = 1.5;
  return wl;
}

namespace {

// Ascending indices of a uniform `k`-subset of [0, n).
std::vector<std::size_t> SampleIndices(std::size_t n, std::size_t k,
                                       Rng* rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + rng->UniformInt(n - i)]);
  }
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace

Workload SampleWorkload(const Workload& pool, int orders, int vehicles,
                        uint64_t seed) {
  Rng rng(seed ^ 0x5a3b1e0fULL);
  Workload out;
  for (const std::size_t i :
       SampleIndices(pool.orders.size(), static_cast<std::size_t>(orders),
                     &rng)) {
    Order o = pool.orders[i];
    o.id = static_cast<OrderId>(out.orders.size());
    out.orders.push_back(o);
  }
  for (const std::size_t i :
       SampleIndices(pool.vehicles.size(), static_cast<std::size_t>(vehicles),
                     &rng)) {
    VehicleSpawn v = pool.vehicles[i];
    v.vehicle.id = static_cast<VehicleId>(out.vehicles.size());
    out.vehicles.push_back(v);
  }
  return out;
}

AuctionConfig PaperAuctionConfig() {
  AuctionConfig config;
  config.alpha_d_per_km = 3.0;
  return config;
}

bool IsEngineWorkload(const std::string& name) {
  return name == "city_rank" || name == "storm_greedy";
}

bool IsRoundWorkload(const std::string& name) { return name == "fig8_round"; }

void AddLayerCounters(Metrics* m) {
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Global().Snapshot();
  const auto counter = [&snap](const char* name) -> double {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double memo_hits = counter("auction.rank.packmemo.hits");
  (*m)["auction.rank.packmemo.hit_rate"] = {
      ratio(memo_hits, memo_hits + counter("auction.rank.packmemo.misses")),
      "ratio"};
  (*m)["auction.greedy.stale_pop_frac"] = {
      ratio(counter("auction.greedy.stale_pops"),
            counter("auction.greedy.heap_pops")),
      "ratio"};
  for (const char* name : {"auction.rank.packs_generated",
                           "auction.gpri.priced_orders",
                           "auction.dnw.priced_orders",
                           "auction.dispatch.anytime.truncated_rounds",
                           "auction.dispatch.anytime.partial_winners",
                           "auction.dispatch.anytime.residual_orders",
                           "planner.insertion.calls", "roadnet.ch.queries",
                           "roadnet.ch.settled_nodes"}) {
    (*m)[name] = {counter(name), "count"};
  }
  (*m)["planner.insertion.pruned_frac"] = {
      ratio(counter("planner.insertion.pruned.candidates"),
            counter("planner.insertion.attempts")),
      "ratio"};
  (*m)["planner.insertion.feasible_frac"] = {
      ratio(counter("planner.insertion.feasible"),
            counter("planner.insertion.calls")),
      "ratio"};
  (*m)["exec.threadpool.tasks_submitted"] = {
      counter("threadpool.tasks_submitted"), "count"};
  const auto peak = snap.gauges.find("threadpool.queue_depth.peak");
  (*m)["exec.threadpool.queue_depth_peak"] = {
      peak == snap.gauges.end() ? 0.0 : peak->second, "count"};
}

void AddSetupMetrics(const std::vector<SetupTimes>& setups, Metrics* m) {
  const auto median = [&setups](double SetupTimes::*phase) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*phase);
    return Median(std::move(v));
  };
  (*m)["roadnet.network_build_s"] = {median(&SetupTimes::network_s), "s"};
  (*m)["roadnet.ch_build_s"] = {median(&SetupTimes::ch_s), "s"};
  (*m)["spatial.nearest_index_s"] = {median(&SetupTimes::nearest_s), "s"};
  (*m)["workload.generate_s"] = {median(&SetupTimes::generate_s), "s"};
  (*m)["engine.construct_s"] = {median(&SetupTimes::construct_s), "s"};
}

void AddOracleMetrics(int64_t queries, int64_t hits, int64_t trivial,
                      double rounds, Metrics* m) {
  const auto q = static_cast<double>(queries);
  const auto t = static_cast<double>(trivial);
  (*m)["roadnet.sp.queries_per_round"] = {rounds > 0 ? q / rounds : 0,
                                          "count"};
  (*m)["roadnet.sp.cache_hit_rate"] = {
      q > 0 ? static_cast<double>(hits) / q : 0, "ratio"};
  (*m)["roadnet.sp.trivial_frac"] = {q + t > 0 ? t / (q + t) : 0, "ratio"};
}

void WriteTrace(const RunConfig& config, RunOutput* out) {
  const std::string path =
      config.out_dir + "/TRACE_perfbench_" + config.workload + ".json";
  const Status written = obs::Tracer::WriteChromeTrace(path);
  if (written.ok()) {
    out->detail["trace_file"] = path;
  } else {
    out->detail["trace_file_error"] = written.ToString();
  }
}

}  // namespace perfbench
}  // namespace auctionride
