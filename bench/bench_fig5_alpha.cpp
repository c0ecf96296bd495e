// Figure 5 — effect of the per-km travel cost α_d ∈ {2.5, 3.0, 3.5, 4.0}
// yuan/km on utility (5a) and running time (5b).
//
// Paper shape: Rank is superior to Greedy except at α_d = 2.5 where the two
// are close; Rank stays robust as α_d grows while Greedy collapses (few
// solo rides stay profitable). Running times of both methods grow with α_d
// because fewer dispatches leave more pended orders per round.

#include "bench_common.h"

namespace auctionride {
namespace bench {
namespace {

void BM_Fig5(benchmark::State& state) {
  const auto mechanism = static_cast<MechanismKind>(state.range(0));
  const double alpha = static_cast<double>(state.range(1)) / 10.0;
  SimResult result;
  for (auto _ : state) {
    EngineOptions options;
    options.auction = PaperAuction();
    options.auction.alpha_d_per_km = alpha;
    options.auction.beta_d_per_km = alpha;
    result = RunSim(mechanism, PaperWorkload(), options);
  }
  ReportSim(state, result);
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

using auctionride::MechanismKind;
using auctionride::bench::BM_Fig5;

BENCHMARK(BM_Fig5)
    ->ArgsProduct({{static_cast<long>(MechanismKind::kGreedy),
                    static_cast<long>(MechanismKind::kRank)},
                   {25, 30, 35, 40}})  // α_d x 10
    ->ArgNames({"mech", "alpha_x10"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "fig5_alpha",
      "Figure 5: effect of alpha_d",
      "mech 0 = Greedy, mech 1 = Rank; alpha_d = alpha_x10 / 10 yuan/km", argc, argv);
}
