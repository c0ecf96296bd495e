// Pricing running times (paper §V-C / technical report): "They keep smaller
// than 0.25 s ... we use multiple threads where each one prices one
// requester. With this speed-up, the pricing process is quite fast."
//
// Measures GPri and DnW end-to-end pricing time for one round's dispatched
// orders, serial vs pooled, plus the per-order average. Both price from
// what their dispatch hands over (Greedy's seed table, Rank's artifacts),
// so the timed loop holds no seed sweep or pack search. Expected shape:
// DnW is much cheaper than GPri (GPri runs Greedy's dispatch loop once per
// priced order); pooling helps in proportion to available cores.

#include <thread>

#include "auction/dnw.h"
#include "auction/gpri.h"
#include "auction/greedy.h"
#include "auction/rank.h"
#include "bench_common.h"
#include "exec/thread_pool.h"

namespace auctionride {
namespace bench {
namespace {

struct RoundInput {
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
};

RoundInput MakeRound() {
  World& world = SharedWorld();
  WorkloadOptions wl = PaperWorkload(/*seed=*/91);
  wl.num_orders = std::max(40, ScaledOrders() / 8);
  wl.num_vehicles = std::max(40, ScaledVehicles() / 8);
  Workload workload = GenerateSingleRound(wl, *world.oracle, *world.nearest);
  RoundInput input;
  input.orders = std::move(workload.orders);
  for (const VehicleSpawn& spawn : workload.vehicles) {
    input.vehicles.push_back(spawn.vehicle);
  }
  return input;
}

void BM_Pricing(benchmark::State& state) {
  const bool use_rank = state.range(0) != 0;
  const bool parallel = state.range(1) != 0;
  const RoundInput input = MakeRound();
  AuctionInstance instance;
  instance.orders = &input.orders;
  instance.vehicles = &input.vehicles;
  instance.oracle = SharedWorld().oracle.get();
  instance.config = PaperAuction();

  DispatchResult dispatch;
  RankArtifacts artifacts;
  GreedySeedTable seeds;
  if (use_rank) {
    RankRunResult run = RankDispatch(instance);
    dispatch = std::move(run.result);
    artifacts = std::move(run.artifacts);
  } else {
    GreedyRunResult run = GreedyDispatch(instance);
    dispatch = std::move(run.result);
    seeds = std::move(run.seeds);
  }

  std::unique_ptr<ThreadPool> pool;
  if (parallel) {
    pool = std::make_unique<ThreadPool>(
        std::max(2u, std::thread::hardware_concurrency()));
  }
  std::size_t priced = 0;
  for (auto _ : state) {
    std::vector<Payment> payments =
        use_rank ? DnWPriceAll(instance, artifacts, dispatch, pool.get())
                 : GPriPriceAll(instance, seeds, dispatch, pool.get());
    priced = payments.size();
    benchmark::DoNotOptimize(payments);
  }
  state.SetLabel(std::string(use_rank ? "DnW" : "GPri") +
                 (parallel ? "/pooled" : "/serial"));
  state.counters["orders_priced"] = static_cast<double>(priced);
  if (priced > 0) {
    // Orders priced per second of wall time.
    state.counters["orders_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * static_cast<double>(priced),
        benchmark::Counter::kIsRate);
  }
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

BENCHMARK(auctionride::bench::BM_Pricing)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"rank", "pooled"})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "pricing",
      "Pricing running time (GPri vs DnW, §V-C)",
      "time to price one round's dispatched orders; the paper reports "
      "< 0.25 s with per-requester threads", argc, argv);
}
