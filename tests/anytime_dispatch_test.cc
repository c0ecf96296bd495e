// Anytime dispatch contract tests (docs/ROBUSTNESS.md "quality curve"):
// budget expiry must finalize best-so-far winners at deterministic cut
// points (bit-identical at any thread count), the quality curve must cut
// rounds under a tight budget and none without one, and the verifier/
// conservation contracts must hold on truncated rounds. Plus WarmStartCache
// and RunAnytimeSweep unit behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "auction/anytime.h"
#include "auction/warm_start.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/simulator.h"
#include "testutil.h"
#include "workload/generator.h"

namespace auctionride {
namespace {

class AnytimeDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridNetworkOptions options;
    options.columns = 15;
    options.rows = 15;
    options.spacing_m = 600;
    options.seed = 4;
    net_ = BuildGridNetwork(options);
    oracle_ = std::make_unique<DistanceOracle>(&net_);
    nearest_ = std::make_unique<NearestNodeIndex>(&net_, 600);
  }

  Workload SmallWorkload(int orders, int vehicles, uint64_t seed = 11) {
    WorkloadOptions options;
    options.seed = seed;
    options.num_orders = orders;
    options.num_vehicles = vehicles;
    options.duration_s = Seconds(300);
    options.gamma = 1.8;
    return GenerateWorkload(options, *oracle_, *nearest_);
  }

  SimResult RunOnce(const EngineOptions& options, int orders = 60,
                    int vehicles = 25, uint64_t wl_seed = 11) {
    return RunSimulation(oracle_.get(),
                         SmallWorkload(orders, vehicles, wl_seed), options);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<NearestNodeIndex> nearest_;
};

EngineOptions BaseOptions(MechanismKind mechanism) {
  EngineOptions options;
  options.mechanism = mechanism;
  options.run_pricing = true;
  options.verify_dispatch = true;  // verifier contracts on every round
  options.seed = 7;
  return options;
}

// A storm tuned so the synthetic budget expires mid-sweep on spike rounds:
// the per-query penalty is small enough that the first few batches complete
// (keeping partial winners) but large enough that a full round does not fit.
EngineOptions TruncatingStorm(MechanismKind mechanism) {
  EngineOptions options = BaseOptions(mechanism);
  options.faults = FaultOptionsForProfile(FaultProfile::kStorm, options.seed);
  options.faults.spike_prob_per_round = 1.0;
  options.faults.spike_query_penalty_s = 2e-3;
  options.faults.round_budget_s = 0.5;
  return options;
}

TEST_F(AnytimeDispatchTest, WarmStartCacheNotesAndInvalidates) {
  WarmStartCache cache;
  EXPECT_EQ(cache.order_count(), 0u);
  EXPECT_FALSE(cache.HasHints(1));

  // First writers win; distinct vehicles only, capped at kMaxHintsPerOrder.
  for (VehicleId v = 10; v < 20; ++v) cache.Note(1, v);
  cache.Note(1, 10);  // duplicate
  EXPECT_TRUE(cache.HasHints(1));
  EXPECT_EQ(cache.hint_count(1), WarmStartCache::kMaxHintsPerOrder);

  cache.Note(2, 10);
  cache.Note(2, 11);
  EXPECT_EQ(cache.order_count(), 2u);

  // Invalidating a vehicle removes it from every order's list and drops
  // orders whose lists empty out.
  cache.InvalidateVehicle(10);
  EXPECT_EQ(cache.hint_count(1), WarmStartCache::kMaxHintsPerOrder - 1);
  EXPECT_EQ(cache.hint_count(2), 1u);
  cache.InvalidateVehicle(11);
  EXPECT_FALSE(cache.HasHints(2));
  EXPECT_EQ(cache.order_count(), 1u);

  cache.InvalidateOrder(1);
  EXPECT_FALSE(cache.HasHints(1));
  EXPECT_EQ(cache.order_count(), 0u);

  cache.Note(3, 5);
  cache.Clear();
  EXPECT_EQ(cache.order_count(), 0u);
}

TEST_F(AnytimeDispatchTest, ForcedTruncationKeepsPartialWinners) {
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    SCOPED_TRACE(std::string(MechanismName(mechanism)));
    const SimResult result = RunOnce(TruncatingStorm(mechanism));
    // Budgets actually bit: some rounds were cut mid-dispatch...
    EXPECT_GT(result.truncated_rounds, 0);
    // ...and the cut rounds still kept winners from the budgeted (priced)
    // tiers — the anytime contract.
    int partial_winners = 0;
    for (const RoundRecord& r : result.rounds) {
      if (r.truncated) {
        partial_winners += r.dispatched_by_tier[0] + r.dispatched_by_tier[1];
      }
    }
    EXPECT_GT(partial_winners, 0);
    // Lifecycle accounting still closes (verify_dispatch + the always-on
    // conservation contract already aborted on any violation).
    EXPECT_EQ(result.orders_dispatched + result.orders_expired,
              result.orders_total);
    EXPECT_GE(result.refunded_payments, Money(0));
  }
}

TEST_F(AnytimeDispatchTest, TruncationIsBitIdenticalAcrossThreadCounts) {
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    SCOPED_TRACE(std::string(MechanismName(mechanism)));
    EngineOptions serial = TruncatingStorm(mechanism);
    serial.engine_threads = -1;
    EngineOptions threaded = serial;
    threaded.engine_threads = 8;
    const SimResult a = RunOnce(serial);
    const SimResult b = RunOnce(threaded);
    EXPECT_GT(a.truncated_rounds, 0);
    testutil::ExpectSameResult(a, b);
  }
}

// RunAnytimeSweep contract: without a deadline every slot runs exactly
// once; with one, the cut lands on a batch boundary, warm-hinted slots run
// first, and the charged total does not depend on the thread count.
TEST(RunAnytimeSweepTest, NullDeadlineRunsEverySlotOnce) {
  constexpr std::size_t kSlots = 37;
  ThreadPool pool(8);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::atomic<int>> runs(kSlots);
    const bool truncated = RunAnytimeSweep(
        p, kSlots, /*deadline=*/nullptr, /*warm=*/nullptr,
        /*order_of=*/nullptr, [&](std::size_t i) -> int64_t {
          runs[i].fetch_add(1);
          return 1;
        });
    EXPECT_FALSE(truncated);
    for (std::size_t i = 0; i < kSlots; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "slot " << i;
    }
  }
}

TEST(RunAnytimeSweepTest, CutsOnBatchBoundaryWarmSlotsFirst) {
  constexpr std::size_t kSlots = 40;
  // One 1 ms query per slot against a 20 ms budget: 16 ms after two
  // batches, 24 ms after three, so the poll before the fourth batch cuts.
  Deadline dl = Deadline::Synthetic(/*budget_s=*/0.02,
                                    /*query_penalty_s=*/1e-3);
  WarmStartCache warm;
  for (const OrderId hinted : {5, 17, 30, 39}) warm.Note(hinted, 1);
  std::vector<std::size_t> ran;
  const bool truncated = RunAnytimeSweep(
      /*pool=*/nullptr, kSlots, &dl, &warm,
      [](std::size_t i) { return static_cast<OrderId>(i); },
      [&](std::size_t i) -> int64_t {
        ran.push_back(i);
        return 1;
      });
  EXPECT_TRUE(truncated);
  ASSERT_EQ(ran.size(), 3 * kAnytimeBatchSize);
  EXPECT_EQ(dl.charged_ns(), 24'000'000);
  std::vector<std::size_t> expected = {5, 17, 30, 39};
  for (std::size_t i = 0; expected.size() < ran.size(); ++i) {
    if (i != 5 && i != 17) expected.push_back(i);
  }
  EXPECT_EQ(ran, expected);
}

TEST(RunAnytimeSweepTest, ChargedTotalIsThreadCountIndependent) {
  constexpr std::size_t kSlots = 200;
  auto run = [&](ThreadPool* pool) {
    Deadline dl = Deadline::Synthetic(/*budget_s=*/0.05,
                                      /*query_penalty_s=*/1e-4);
    std::vector<char> ran(kSlots, 0);
    const bool truncated = RunAnytimeSweep(
        pool, kSlots, &dl, /*warm=*/nullptr, /*order_of=*/nullptr,
        [&](std::size_t i) -> int64_t {
          ran[i] = 1;
          return static_cast<int64_t>((i * 7) % 5 + 1);
        });
    EXPECT_TRUE(truncated);
    return std::make_pair(dl.charged_ns(), ran);
  };
  ThreadPool pool(8);
  const auto serial = run(nullptr);
  const auto threaded = run(&pool);
  EXPECT_EQ(serial.first, threaded.first);
  EXPECT_EQ(serial.second, threaded.second);
}

TEST_F(AnytimeDispatchTest, QualityCurveOverBudget) {
  // The storm's round budget scaled from a quarter to unlimited. Every
  // finite budget cuts rounds and keeps serving; without a budget nothing
  // is cut. Priced tiers keep partial winners from half the budget up; at a
  // quarter, Rank spends its budget before it finalizes a pack and hands the
  // Greedy tier an expired deadline, so only Greedy as the primary mechanism
  // still keeps priced winners there. Dispatched orders and U_auc per point
  // are the quality curve (EXPERIMENTS.md records them).
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    SCOPED_TRACE(std::string(MechanismName(mechanism)));
    const EngineOptions storm = TruncatingStorm(mechanism);
    // 0 stands for an unlimited budget: round budgets off.
    for (const double scale : {0.25, 0.5, 1.0, 2.0, 0.0}) {
      SCOPED_TRACE(::testing::Message() << "budget x" << scale);
      EngineOptions options = storm;
      options.faults.round_budget_s = scale * storm.faults.round_budget_s;
      const SimResult result = RunOnce(options);
      int partial_winners = 0;
      for (const RoundRecord& r : result.rounds) {
        if (r.truncated) {
          partial_winners +=
              r.dispatched_by_tier[0] + r.dispatched_by_tier[1];
        }
      }
      char budget[16] = "unlimited";
      if (scale > 0) std::snprintf(budget, sizeof budget, "x%.2f", scale);
      std::printf("%s budget=%s dispatched=%d U_auc=%.4f truncated=%d "
                  "partial_winners=%d\n",
                  std::string(MechanismName(mechanism)).c_str(),
                  budget, result.orders_dispatched,
                  result.total_utility.value(), result.truncated_rounds,
                  partial_winners);
      EXPECT_GT(result.orders_dispatched, 0);
      if (scale == 0.0) {
        EXPECT_EQ(result.truncated_rounds, 0);
        continue;
      }
      EXPECT_GT(result.truncated_rounds, 0);
      if (scale >= 0.5 || mechanism == MechanismKind::kGreedy) {
        EXPECT_GT(partial_winners, 0);
      }
    }
  }
}

TEST_F(AnytimeDispatchTest, WarmStartSurvivesFaultChurn) {
  // Breakdowns + cancellations churn the warm cache (stranded vehicles and
  // withdrawn orders invalidate hints); determinism must hold regardless.
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    SCOPED_TRACE(std::string(MechanismName(mechanism)));
    EngineOptions serial = TruncatingStorm(mechanism);
    serial.faults.breakdown_prob_per_round = 0.05;
    serial.faults.cancel_prob_per_round = 0.3;
    serial.engine_threads = -1;
    EngineOptions threaded = serial;
    threaded.engine_threads = 8;
    const SimResult a = RunOnce(serial);
    const SimResult b = RunOnce(threaded);
    EXPECT_GT(a.orders_stranded + a.orders_cancelled, 0);
    testutil::ExpectSameResult(a, b);
  }
}

}  // namespace
}  // namespace auctionride
