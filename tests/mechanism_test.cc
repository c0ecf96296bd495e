// Tests of the end-to-end mechanism wrapper: charge-ratio fee handling
// (§V-C), platform utility accounting, and the paper's CR >= 0.5
// profitability argument.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "auction/greedy.h"
#include "auction/mechanism.h"
#include "common/rng.h"
#include "common/timer.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"
#include "gpri_reference.h"
#include "roadnet/builder.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

struct Scenario {
  RoadNetwork net;
  std::unique_ptr<DistanceOracle> oracle;
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;

  AuctionInstance Instance() const {
    AuctionInstance in;
    in.orders = &orders;
    in.vehicles = &vehicles;
    in.oracle = oracle.get();
    return in;
  }
};

Scenario RandomScenario(uint64_t seed, int m, int n) {
  Scenario sc;
  GridNetworkOptions options;
  options.columns = 9;
  options.rows = 9;
  options.spacing_m = 500;
  options.seed = seed + 7;
  sc.net = BuildGridNetwork(options);
  sc.oracle = std::make_unique<DistanceOracle>(&sc.net);
  Rng rng(seed);
  for (int j = 0; j < m; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(sc.net.num_nodes())));
      e = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(sc.net.num_nodes())));
    }
    sc.orders.push_back(
        MakeOrder(j, s, e, rng.Uniform(10, 45), *sc.oracle, 2.0));
  }
  for (int i = 0; i < n; ++i) {
    sc.vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(
               rng.UniformInt(static_cast<uint64_t>(sc.net.num_nodes())))));
  }
  return sc;
}

TEST(MechanismTest, NamesAreStable) {
  EXPECT_EQ(MechanismName(MechanismKind::kGreedy), "Greedy+GPri");
  EXPECT_EQ(MechanismName(MechanismKind::kRank), "Rank+DnW");
}

TEST(MechanismTest, ZeroChargeRatioMatchesRawDispatch) {
  const Scenario sc = RandomScenario(3, 8, 3);
  AuctionInstance in = sc.Instance();
  const MechanismOutcome outcome = RunMechanism(MechanismKind::kRank, in);
  ASSERT_FALSE(outcome.dispatch.assignments.empty());
  EXPECT_EQ(outcome.payments.size(), outcome.dispatch.assignments.size());
  for (std::size_t i = 0; i < outcome.payments.size(); ++i) {
    EXPECT_EQ(outcome.payments[i].order,
              outcome.dispatch.assignments[i].order);
    const Order& order =
        sc.orders[static_cast<std::size_t>(outcome.payments[i].order)];
    EXPECT_LE(outcome.payments[i].payment, order.bid + Money(1e-9));
  }
}

TEST(MechanismTest, ChargeRatioDeductsBidsBeforeDispatch) {
  const Scenario sc = RandomScenario(4, 8, 3);
  AuctionInstance in = sc.Instance();
  in.config.charge_ratio = 0.3;
  const MechanismOutcome outcome = RunMechanism(MechanismKind::kGreedy, in);
  // Every dispatched pair must be utility-positive on *deducted* bids.
  for (const Assignment& a : outcome.dispatch.assignments) {
    const Order& order = sc.orders[static_cast<std::size_t>(a.order)];
    EXPECT_GE(0.7 * order.bid - a.cost, Money(-1e-6));
  }
}

TEST(MechanismTest, DispatchCountWeaklyDecreasesWithCharge) {
  const Scenario sc = RandomScenario(5, 10, 3);
  AuctionInstance in = sc.Instance();
  MechanismOptions no_pricing;
  no_pricing.run_pricing = false;
  std::size_t prev = 1000;
  for (double cr : {0.0, 0.2, 0.4, 0.6}) {
    in.config.charge_ratio = cr;
    const MechanismOutcome outcome =
        RunMechanism(MechanismKind::kGreedy, in, no_pricing);
    EXPECT_LE(outcome.dispatch.assignments.size(), prev);
    prev = outcome.dispatch.assignments.size();
  }
}

// The paper's profitability argument: with CR >= 0.5 the platform cannot
// lose money because each dispatch cost is at most the deducted bid
// (1−CR)·bid <= CR·bid = the fee collected (β_d = α_d).
class ChargeProfitabilityTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ChargeProfitabilityTest, CrOfHalfGuaranteesNonNegativePlatform) {
  const auto [seed, kind_int] = GetParam();
  const auto kind = static_cast<MechanismKind>(kind_int);
  const Scenario sc = RandomScenario(seed, 9, 3);
  AuctionInstance in = sc.Instance();
  in.config.charge_ratio = 0.5;
  const MechanismOutcome outcome = RunMechanism(kind, in);
  EXPECT_GE(outcome.platform_utility, Money(-1e-6))
      << "seed " << seed << " kind " << kind_int;
}

TEST_P(ChargeProfitabilityTest, RequesterUtilityStaysNonNegative) {
  const auto [seed, kind_int] = GetParam();
  const auto kind = static_cast<MechanismKind>(kind_int);
  const Scenario sc = RandomScenario(seed, 9, 3);
  AuctionInstance in = sc.Instance();
  in.config.charge_ratio = 0.2;
  const MechanismOutcome outcome = RunMechanism(kind, in);
  // val − pay − fee >= 0 per dispatched requester in aggregate: pay is IR on
  // the deducted bid (pay <= (1−CR)·val) and fee = CR·val.
  EXPECT_GE(outcome.requester_utility, Money(-1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChargeProfitabilityTest,
    ::testing::Combine(::testing::Range(uint64_t{1}, uint64_t{7}),
                       ::testing::Values(0, 1)));

TEST(MechanismTest, ParallelPricingMatchesSerial) {
  const Scenario sc = RandomScenario(11, 10, 4);
  AuctionInstance in = sc.Instance();
  const MechanismOutcome serial = RunMechanism(MechanismKind::kRank, in);
  ThreadPool pool(3);
  const MechanismOutcome parallel =
      RunMechanism(MechanismKind::kRank, in, {}, &pool);
  ASSERT_EQ(serial.payments.size(), parallel.payments.size());
  for (std::size_t i = 0; i < serial.payments.size(); ++i) {
    EXPECT_EQ(serial.payments[i].order, parallel.payments[i].order);
    EXPECT_NEAR(serial.payments[i].payment.value(),
                parallel.payments[i].payment.value(), 1e-9);
  }
}

TEST(MechanismTest, PlatformUtilityAccountingIdentity) {
  const Scenario sc = RandomScenario(13, 8, 3);
  AuctionInstance in = sc.Instance();
  in.config.charge_ratio = 0.25;
  const MechanismOutcome outcome = RunMechanism(MechanismKind::kGreedy, in);
  Money pay_sum;
  Money fee_sum;
  for (const Payment& p : outcome.payments) {
    pay_sum += p.payment;
    fee_sum +=
        0.25 * sc.orders[static_cast<std::size_t>(p.order)].bid;
  }
  const Money payout = MoneyPerMeter(in.config.beta_d_per_km / 1000.0) *
                       outcome.dispatch.total_delta_delivery_m;
  EXPECT_NEAR(outcome.platform_utility.value(),
              (pay_sum + fee_sum - payout).value(), 1e-9);
}

// Timing fields keep their meaning: the dispatch reports its own time, also
// when a budget runs it through the tier loop, and an unbudgeted round
// splits its wall time into dispatch and pricing without counting pricing
// twice.
TEST(MechanismTest, TimingFieldsPartitionTheCall) {
  const testutil::FuzzScenario sc = testutil::BuildFuzzScenario(3);
  const AuctionInstance in = sc.Instance();
  for (const MechanismKind kind :
       {MechanismKind::kGreedy, MechanismKind::kRank}) {
    SCOPED_TRACE(std::string(MechanismName(kind)));
    MechanismOptions options;
    options.run_pricing = true;
    const WallTimer timer;
    const MechanismOutcome outcome = RunMechanism(kind, in, options);
    const Seconds wall(timer.ElapsedSeconds());
    ASSERT_FALSE(outcome.payments.empty());
    EXPECT_GT(outcome.dispatch.elapsed_seconds, Seconds(0));
    EXPECT_GT(outcome.pricing_seconds, Seconds(0));
    EXPECT_LE(outcome.dispatch_seconds + outcome.pricing_seconds, wall);

    options.budget.budget_s = 1e6;  // never expires
    const MechanismOutcome budgeted = RunMechanism(kind, in, options);
    EXPECT_FALSE(budgeted.truncated);
    EXPECT_GT(budgeted.dispatch.elapsed_seconds, Seconds(0));
  }
}

// The payments of the outcome's winners in `tier`, in assignment order.
// Priced tiers come first in both lists, so payments[i] prices
// assignments[i].
std::vector<Payment> TierPayments(const MechanismOutcome& outcome,
                                  DispatchTier tier) {
  std::vector<Payment> payments;
  for (std::size_t i = 0; i < outcome.payments.size(); ++i) {
    EXPECT_EQ(outcome.payments[i].order,
              outcome.dispatch.assignments[i].order);
    if (outcome.dispatch.assignments[i].tier == tier) {
      payments.push_back(outcome.payments[i]);
    }
  }
  return payments;
}

void ExpectSameAssignments(const MechanismOutcome& outcome, DispatchTier tier,
                           const DispatchResult& want) {
  std::vector<OrderId> got;
  for (const Assignment& a : outcome.dispatch.assignments) {
    if (a.tier == tier) got.push_back(a.order);
  }
  ASSERT_EQ(got.size(), want.assignments.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want.assignments[i].order);
  }
}

constexpr double kCutQueryPenaltyS = 1e-3;

// Budgets from a few seed-sweep batches up to about a full Greedy sweep of
// RandomScenario(11, 40, 10), so some cut the sweep part way.
std::vector<double> CutBudgets() {
  std::vector<double> budgets;
  for (double b = 0.02; b < 3.0; b *= 1.5) budgets.push_back(b);
  return budgets;
}

// A budget that cuts Greedy's seed sweep leaves slots of the table
// unreached. Pricing is unbudgeted, so GPri must complete them before the
// winners' runs: the primary tier's payments equal the full re-run
// reference, serial and pooled.
TEST(MechanismTest, GreedyPricesACutSweepLikeTheFullRerun) {
  const Scenario sc = RandomScenario(11, /*m=*/40, /*n=*/10);
  const AuctionInstance in = sc.Instance();
  ThreadPool pool(3);
  int cut_sweeps = 0;
  for (const double budget_s : CutBudgets()) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget_s);
    // The same synthetic deadline replays the primary tier's cut exactly.
    Deadline dl = Deadline::Synthetic(budget_s, kCutQueryPenaltyS);
    AuctionInstance budgeted = in;
    budgeted.deadline = &dl;
    const GreedyRunResult primary = GreedyDispatch(budgeted);
    if (primary.seeds.complete() || primary.result.assignments.empty()) {
      continue;
    }
    ++cut_sweeps;
    const std::vector<Payment> reference =
        gpri_reference::ReferenceGPriPriceAll(in, primary.result);
    MechanismOptions options;
    options.budget.budget_s = budget_s;
    options.budget.query_penalty_s = kCutQueryPenaltyS;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const MechanismOutcome outcome =
          RunMechanism(MechanismKind::kGreedy, in, options, p);
      ASSERT_TRUE(outcome.truncated);
      ExpectSameAssignments(outcome, DispatchTier::kPrimary, primary.result);
      testutil::ExpectBitIdenticalPayments(
          TierPayments(outcome, DispatchTier::kPrimary), reference);
    }
  }
  EXPECT_GT(cut_sweeps, 0) << "no budget cut the seed sweep";
}

// Rank's Greedy-fallback tier starts on the deadline that cut Rank. Expiry
// is monotone and Greedy's sweep polls it before its first batch, so the
// fallback reaches no seed slot and has no winner for GPri to price; the
// residual goes on to FCFS. This pins that: a fallback tier that could win
// needs its payments checked against gpri_reference like the primary's.
TEST(MechanismTest, RankCutLeavesTheGreedyFallbackNothingToPrice) {
  const Scenario sc = RandomScenario(11, /*m=*/40, /*n=*/10);
  const AuctionInstance in = sc.Instance();
  int cut_rounds = 0;
  for (const double budget_s : CutBudgets()) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget_s);
    MechanismOptions options;
    options.budget.budget_s = budget_s;
    options.budget.query_penalty_s = kCutQueryPenaltyS;
    const MechanismOutcome outcome =
        RunMechanism(MechanismKind::kRank, in, options);
    if (!outcome.truncated) continue;
    ++cut_rounds;
    EXPECT_EQ(outcome.dispatched_by_tier[static_cast<int>(
                  DispatchTier::kGreedyFallback)],
              0);
    EXPECT_TRUE(TierPayments(outcome, DispatchTier::kGreedyFallback).empty());
  }
  EXPECT_GT(cut_rounds, 0) << "no budget cut the Rank tier";
}

}  // namespace
}  // namespace auctionride
