// Small-scale comparison with the exhaustive optimum (the paper's
// technical-report experiment): Greedy and Rank utilities as a fraction of
// the optimal dispatch on random instances small enough to enumerate.
//
// Expected shape: both heuristics land well above their worst-case
// approximation factors (Theorems III.1 and IV.1), with Rank >= Greedy on
// average.

#include <vector>

#include "auction/greedy.h"
#include "auction/optimal.h"
#include "auction/rank.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace auctionride {
namespace bench {
namespace {

struct RatioStats {
  RunningStats greedy_ratio;
  RunningStats rank_ratio;
  int instances = 0;
};

RatioStats RunComparison(int num_instances) {
  World& world = SharedWorld();
  RatioStats stats;
  Rng rng(5);
  for (int trial = 0; trial < num_instances; ++trial) {
    WorkloadOptions wl = PaperWorkload(/*seed=*/100 + trial);
    wl.num_orders = 6;
    wl.num_vehicles = 2;
    wl.gamma = 2.0;
    Workload workload =
        GenerateSingleRound(wl, *world.oracle, *world.nearest);
    std::vector<Vehicle> vehicles;
    for (const VehicleSpawn& spawn : workload.vehicles) {
      vehicles.push_back(spawn.vehicle);
    }
    // Two-seat vehicles keep the exhaustive search tractable.
    for (Vehicle& v : vehicles) v.capacity = 2;

    AuctionInstance instance;
    instance.orders = &workload.orders;
    instance.vehicles = &vehicles;
    instance.oracle = world.oracle.get();
    instance.config = PaperAuction();

    const OptimalResult optimal = OptimalDispatch(instance);
    if (optimal.total_utility <= Money(1e-9)) continue;  // nothing dispatchable
    const DispatchResult greedy = GreedyDispatch(instance).result;
    const DispatchResult rank = RankDispatch(instance).result;
    stats.greedy_ratio.Add(greedy.total_utility / optimal.total_utility);
    stats.rank_ratio.Add(rank.total_utility / optimal.total_utility);
    ++stats.instances;
  }
  return stats;
}

void BM_OptimalComparison(benchmark::State& state) {
  RatioStats stats;
  for (auto _ : state) {
    stats = RunComparison(static_cast<int>(state.range(0)));
  }
  state.counters["instances"] = stats.instances;
  state.counters["greedy_over_opt_mean"] = stats.greedy_ratio.mean();
  state.counters["greedy_over_opt_min"] = stats.greedy_ratio.min();
  state.counters["rank_over_opt_mean"] = stats.rank_ratio.mean();
  state.counters["rank_over_opt_min"] = stats.rank_ratio.min();

  TablePrinter table({"method", "mean U/U*", "min U/U*"});
  table.AddRow({"Greedy", FormatDouble(stats.greedy_ratio.mean(), 3),
                FormatDouble(stats.greedy_ratio.min(), 3)});
  table.AddRow({"Rank", FormatDouble(stats.rank_ratio.mean(), 3),
                FormatDouble(stats.rank_ratio.min(), 3)});
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

BENCHMARK(auctionride::bench::BM_OptimalComparison)
    ->Arg(25)
    ->ArgNames({"instances"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "optimal_smallscale",
      "Small-scale optimal comparison (technical report)",
      "utility ratio of Greedy / Rank against the exhaustive optimum on "
      "6-order, 2-vehicle instances", argc, argv);
}
