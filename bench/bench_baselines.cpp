// Baseline comparison (the paper's technical-report "non-auction setting"
// plus the related-work one-rider-per-vehicle matching of [7]):
//   FCFS      — first-come-first-served, min-insertion, serves everyone
//   Matching  — exact max-weight bipartite matching, one rider per vehicle
//   Greedy    — Algorithm 1
//   Rank      — Algorithm 3
// on identical single-round instances.
//
// Expected shape: Rank > Greedy >= Matching on utility (packs > pairs),
// with FCFS far below (it ignores utility); FCFS/Matching dispatch counts
// can exceed Greedy's because they do not require non-negative utility /
// can balance assignments.

#include "auction/baselines.h"
#include "auction/greedy.h"
#include "auction/matching.h"
#include "auction/rank.h"
#include "bench_common.h"

namespace auctionride {
namespace bench {
namespace {

enum class Method { kFcfs = 0, kMatching, kGreedy, kRank };

const char* MethodName(Method m) {
  switch (m) {
    case Method::kFcfs:
      return "FCFS";
    case Method::kMatching:
      return "Matching";
    case Method::kGreedy:
      return "Greedy";
    case Method::kRank:
      return "Rank";
  }
  return "?";
}

void BM_Baselines(benchmark::State& state) {
  const auto method = static_cast<Method>(state.range(0));
  World& world = SharedWorld();
  WorkloadOptions wl = PaperWorkload(/*seed=*/77);
  wl.num_orders = ScaledOrders() / 2;
  wl.num_vehicles = ScaledVehicles() / 2;
  Workload workload = GenerateSingleRound(wl, *world.oracle, *world.nearest);
  std::vector<Vehicle> vehicles;
  for (const VehicleSpawn& spawn : workload.vehicles) {
    vehicles.push_back(spawn.vehicle);
  }
  AuctionInstance instance;
  instance.orders = &workload.orders;
  instance.vehicles = &vehicles;
  instance.oracle = world.oracle.get();
  instance.config = PaperAuction();

  DispatchResult result;
  for (auto _ : state) {
    switch (method) {
      case Method::kFcfs:
        result = FcfsDispatch(instance, /*serve_all=*/true);
        break;
      case Method::kMatching:
        result = MatchingDispatch(instance);
        break;
      case Method::kGreedy:
        result = GreedyDispatch(instance).result;
        break;
      case Method::kRank:
        result = RankDispatch(instance).result;
        break;
    }
  }
  state.SetLabel(MethodName(method));
  state.counters["utility"] = result.total_utility.value();
  state.counters["dispatched"] =
      static_cast<double>(result.assignments.size());
  state.counters["delta_delivery_km"] =
      result.total_delta_delivery_m.value() / 1000.0;
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

BENCHMARK(auctionride::bench::BM_Baselines)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->ArgNames({"method"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "baselines",
      "Baselines: FCFS / Matching / Greedy / Rank",
      "identical single-round instances; utility-aware methods dominate "
      "FCFS, packs dominate one-rider matching", argc, argv);
}
