// Ablation of a design choice (DESIGN.md §4): the pack-candidate
// restriction K in Rank's pack generation, which trades utility for time
// and saturates quickly. Greedy's spatial pruning has no switch to ablate:
// PickupCandidateIndexTest pins that it is exact.

#include <vector>

#include "auction/rank.h"
#include "bench_common.h"

namespace auctionride {
namespace bench {
namespace {

struct SingleRoundInput {
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
};

SingleRoundInput MakeInput(int orders, int vehicles) {
  World& world = SharedWorld();
  WorkloadOptions wl = PaperWorkload(/*seed=*/57);
  wl.num_orders = orders;
  wl.num_vehicles = vehicles;
  Workload workload = GenerateSingleRound(wl, *world.oracle, *world.nearest);
  SingleRoundInput input;
  input.orders = std::move(workload.orders);
  for (const VehicleSpawn& spawn : workload.vehicles) {
    input.vehicles.push_back(spawn.vehicle);
  }
  return input;
}

void BM_PackCandidateLimit(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const SingleRoundInput input = MakeInput(ScaledOrders() / 4,
                                           ScaledVehicles() / 4);
  AuctionInstance instance;
  instance.orders = &input.orders;
  instance.vehicles = &input.vehicles;
  instance.oracle = SharedWorld().oracle.get();
  instance.config = PaperAuction();
  instance.config.pack_candidate_limit = k;
  DispatchResult result;
  for (auto _ : state) {
    result = RankDispatch(instance).result;
  }
  state.counters["utility"] = result.total_utility.value();
  state.counters["dispatched"] =
      static_cast<double>(result.assignments.size());
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

BENCHMARK(auctionride::bench::BM_PackCandidateLimit)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(20)
    ->ArgNames({"K"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "ablation",
      "Ablations",
      "pack-candidate K trades Rank utility for time", argc, argv);
}
