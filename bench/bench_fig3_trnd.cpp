// Figure 3 — effect of the round duration t_rnd ∈ {5, 10, 15, 20} s on the
// overall utility (3a) and per-round dispatch running time (3b) of Greedy
// and Rank.
//
// Paper shape: Rank's utility roughly doubles Greedy's at every t_rnd, and
// Rank's per-round running time stays below Greedy's.

#include "bench_common.h"

namespace auctionride {
namespace bench {
namespace {

void BM_Fig3(benchmark::State& state) {
  const auto mechanism = static_cast<MechanismKind>(state.range(0));
  const double trnd = static_cast<double>(state.range(1));
  SimResult result;
  for (auto _ : state) {
    EngineOptions options;
    options.round_duration_s = Seconds(trnd);
    options.auction = PaperAuction();
    result = RunSim(mechanism, PaperWorkload(), options);
  }
  ReportSim(state, result);
}

}  // namespace
}  // namespace bench
}  // namespace auctionride

using auctionride::MechanismKind;
using auctionride::bench::BM_Fig3;

BENCHMARK(BM_Fig3)
    ->ArgsProduct({{static_cast<long>(MechanismKind::kGreedy),
                    static_cast<long>(MechanismKind::kRank)},
                   {5, 10, 15, 20}})
    ->ArgNames({"mech", "trnd"})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

int main(int argc, char** argv) {
  return auctionride::bench::BenchMain(
      "fig3_trnd",
      "Figure 3: effect of t_rnd",
      "mech 0 = Greedy, mech 1 = Rank; counters: utility (U_auc, yuan), "
      "dispatch_rate, per-round dispatch time (s)", argc, argv);
}
