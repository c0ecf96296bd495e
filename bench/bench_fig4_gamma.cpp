// Figure 4 — effect of the wasted-time ratio γ ∈ {1.2, 1.5, 1.8, 2.0}
// (θ_j = (γ−1)·t(s_j, e_j)) on utility (4a) and running time (4b).
//
// Paper shape: both methods' utilities rise with γ (looser wasted-time
// budgets admit more and cheaper dispatches); the Rank-over-Greedy gap
// persists across γ; Rank gets costlier with larger γ but stays within the
// round budget.

#include "bench_common.h"

namespace auctionride {
namespace bench {
namespace {

void BM_Fig4(benchmark::State& state) {
  const auto mechanism = static_cast<MechanismKind>(state.range(0));
  const double gamma = static_cast<double>(state.range(1)) / 10.0;
  SimResult result;
  for (auto _ : state) {
    WorkloadOptions wl = PaperWorkload();
    wl.gamma = gamma;
    EngineOptions options;
    options.auction = PaperAuction();
    result = RunSim(mechanism, wl, options);
  }
  ReportSim(state, result);
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

using auctionride::MechanismKind;
using auctionride::bench::BM_Fig4;

BENCHMARK(BM_Fig4)
    ->ArgsProduct({{static_cast<long>(MechanismKind::kGreedy),
                    static_cast<long>(MechanismKind::kRank)},
                   {12, 15, 18, 20}})  // γ x 10
    ->ArgNames({"mech", "gamma_x10"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "fig4_gamma",
      "Figure 4: effect of gamma",
      "mech 0 = Greedy, mech 1 = Rank; gamma = gamma_x10 / 10", argc, argv);
}
