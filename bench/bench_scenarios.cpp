// Scenario sweep (ours): Greedy vs Rank across the named demand regimes of
// workload/scenarios.h. Expected shape: the mechanisms converge off-peak
// (plentiful supply, solo rides fine) and diverge hardest under the
// downtown shortage — the bonus/auction regime the paper motivates.

#include "auction/greedy.h"
#include "auction/rank.h"
#include "bench_common.h"
#include "common/check.h"
#include "workload/scenarios.h"

namespace auctionride {
namespace bench {
namespace {

void BM_Scenarios(benchmark::State& state) {
  const auto mechanism = static_cast<MechanismKind>(state.range(0));
  const std::vector<std::string_view> names = ScenarioNames();
  const std::string_view name =
      names[static_cast<std::size_t>(state.range(1))];

  World& world = SharedWorld();
  StatusOr<WorkloadOptions> wl =
      ScenarioByName(name, BenchScale() * 0.5, /*seed=*/42);
  ARIDE_ACHECK(wl.ok());
  SimResult result;
  for (auto _ : state) {
    EngineOptions options;
    options.auction = PaperAuction();
    options.mechanism = mechanism;
    const Workload workload =
        GenerateWorkload(*wl, *world.oracle, *world.nearest);
    result = RunSimulation(world.oracle.get(), workload, options);
  }
  state.SetLabel(std::string(name));
  ReportSim(state, result);
  state.counters["shared_fraction"] = result.shared_ride_fraction;
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

using auctionride::MechanismKind;

BENCHMARK(auctionride::bench::BM_Scenarios)
    ->ArgsProduct({{static_cast<long>(MechanismKind::kGreedy),
                    static_cast<long>(MechanismKind::kRank)},
                   {0, 1, 2, 3, 4}})
    ->ArgNames({"mech", "scenario"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "scenarios",
      "Scenario sweep",
      "mech 0 = Greedy, mech 1 = Rank; scenarios: 0 morning_peak, "
      "1 evening_peak, 2 off_peak, 3 downtown_shortage, 4 suburban", argc, argv);
}
