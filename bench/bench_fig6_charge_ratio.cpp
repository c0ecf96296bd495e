// Figure 6 — effect of the charge ratio CR ∈ {0, 0.1, 0.2, 0.3, 0.4} on the
// overall utility U_auc and the platform utility U_plf, for Greedy+GPri (6a)
// and Rank+DnW (6b). Pricing is enabled, so this bench runs at half the
// scale of Figs 3-5 (GPri re-runs Greedy once per priced order).
//
// Paper shape: GPri's platform utility is negative for CR <= 0.3 and only
// barely positive at CR = 0.4 where both utilities are small; DnW's platform
// utility is negative only at CR = 0 and peaks in usefulness around
// CR = 0.2, where U_plf is roughly half of U_auc.

#include "bench_common.h"

namespace auctionride {
namespace bench {
namespace {

void BM_Fig6(benchmark::State& state) {
  const auto mechanism = static_cast<MechanismKind>(state.range(0));
  const double cr = static_cast<double>(state.range(1)) / 10.0;
  SimResult result;
  for (auto _ : state) {
    WorkloadOptions wl = PaperWorkload();
    wl.num_orders = std::max(50, wl.num_orders / 2);
    wl.num_vehicles = std::max(50, wl.num_vehicles / 2);
    EngineOptions options;
    options.auction = PaperAuction();
    options.auction.charge_ratio = cr;
    options.run_pricing = true;
    result = RunSim(mechanism, wl, options);
  }
  state.counters["U_auc"] = result.total_utility.value();
  state.counters["U_plf"] = result.platform_utility.value();
  state.counters["payments"] = result.total_payments.value();
  state.counters["dispatch_rate"] = result.dispatch_rate();
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

using auctionride::MechanismKind;
using auctionride::bench::BM_Fig6;

BENCHMARK(BM_Fig6)
    ->ArgsProduct({{static_cast<long>(MechanismKind::kGreedy),
                    static_cast<long>(MechanismKind::kRank)},
                   {0, 1, 2, 3, 4}})  // CR x 10
    ->ArgNames({"mech", "cr_x10"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "fig6_charge_ratio",
      "Figure 6: effect of the charge ratio",
      "mech 0 = Greedy+GPri, mech 1 = Rank+DnW; CR = cr_x10 / 10; counters "
      "U_auc and U_plf (yuan)", argc, argv);
}
