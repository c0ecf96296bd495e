#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "auction/baselines.h"
#include "auction/greedy.h"
#include "auction/matching.h"
#include "auction/mechanism.h"
#include "auction/rank.h"
#include "auction/verifier.h"
#include "common/rng.h"
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

Scenario RandomScenario(uint64_t seed) {
  Scenario sc;
  GridNetworkOptions options;
  options.columns = 9;
  options.rows = 9;
  options.spacing_m = 500;
  options.seed = seed + 17;
  sc.net = BuildGridNetwork(options);
  sc.oracle = std::make_unique<DistanceOracle>(&sc.net);
  Rng rng(seed);
  const int m = 6 + static_cast<int>(rng.UniformInt(uint64_t{8}));
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
        MakeOrder(j, s, e, rng.Uniform(8, 45), *sc.oracle, 2.0));
  }
  for (int i = 0; i < 4; ++i) {
    sc.vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(
               rng.UniformInt(static_cast<uint64_t>(sc.net.num_nodes())))));
  }
  return sc;
}

// Every dispatcher's output must verify on randomized instances.
class VerifierSweepTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(VerifierSweepTest, DispatcherOutputsVerify) {
  const auto [seed, which] = GetParam();
  const Scenario sc = RandomScenario(seed);
  const AuctionInstance in = sc.Instance();
  DispatchResult result;
  VerifyOptions options;
  switch (which) {
    case 0:
      result = GreedyDispatch(in).result;
      options.require_nonnegative_pair_utility = true;
      break;
    case 1:
      result = RankDispatch(in).result;
      break;
    case 2:
      result = MatchingDispatch(in);
      options.require_nonnegative_pair_utility = true;
      break;
    case 3:
      result = FcfsDispatch(in, /*serve_all=*/true);
      break;
  }
  const Status status = VerifyDispatch(in, result, options);
  EXPECT_TRUE(status.ok()) << status.ToString() << " (dispatcher " << which
                           << ", seed " << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VerifierSweepTest,
    ::testing::Combine(::testing::Range(uint64_t{1}, uint64_t{7}),
                       ::testing::Values(0, 1, 2, 3)));

TEST(VerifierTest, DetectsDuplicateAssignment) {
  const Scenario sc = RandomScenario(3);
  const AuctionInstance in = sc.Instance();
  DispatchResult result = GreedyDispatch(in).result;
  if (result.assignments.empty()) GTEST_SKIP();
  result.assignments.push_back(result.assignments[0]);
  EXPECT_FALSE(VerifyDispatch(in, result).ok());
}

TEST(VerifierTest, DetectsUtilityTampering) {
  const Scenario sc = RandomScenario(4);
  const AuctionInstance in = sc.Instance();
  DispatchResult result = GreedyDispatch(in).result;
  if (result.assignments.empty()) GTEST_SKIP();
  result.total_utility += Money(5);
  EXPECT_FALSE(VerifyDispatch(in, result).ok());
}

TEST(VerifierTest, DetectsInfeasiblePlanInjection) {
  RoadNetwork net = testutil::LineNetwork(10, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 2, 6, /*bid=*/20, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 1)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  DispatchResult result = GreedyDispatch(in).result;
  ASSERT_EQ(result.updated_plans.size(), 1u);
  // Tamper: impossible deadline on the drop-off stop.
  for (PlanStop& stop : result.updated_plans[0].second) {
    if (stop.type == StopType::kDropoff) stop.deadline_s = Seconds(1.0);
  }
  EXPECT_FALSE(VerifyDispatch(in, result).ok());
}

TEST(VerifierTest, DetectsDroppedExistingRider) {
  RoadNetwork net = testutil::LineNetwork(12, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 2, 6, /*bid=*/30, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 1)};
  // The vehicle already carries order 99.
  vehicles[0].plan.stops = {{8, 99, StopType::kDropoff, Seconds(1e9)}};
  vehicles[0].onboard = 1;
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  DispatchResult result = GreedyDispatch(in).result;
  ASSERT_EQ(result.updated_plans.size(), 1u);
  ASSERT_TRUE(VerifyDispatch(in, result).ok());
  // Tamper: drop the pre-existing rider from the plan.
  auto& plan = result.updated_plans[0].second;
  std::erase_if(plan, [](const PlanStop& s) { return s.order == 99; });
  EXPECT_FALSE(VerifyDispatch(in, result).ok());
}

// Which violation the verifier reports first must be a function of plan /
// assignment order, never of unordered_set hash layout — the simulator's
// bit-identical-across-thread-counts guarantee extends to error text, and
// hash layout differs across standard libraries. Regression tests for the
// sorted/stable drains in verifier.cc.
TEST(VerifierTest, FirstDroppedRiderReportIsPlanOrder) {
  RoadNetwork net = testutil::LineNetwork(12, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 2, 6, /*bid=*/30, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 1)};
  // The vehicle already carries orders 99 and 7, in that stop order.
  vehicles[0].plan.stops = {{8, 99, StopType::kDropoff, Seconds(1e9)},
                           {9, 7, StopType::kDropoff, Seconds(1e9)}};
  vehicles[0].onboard = 2;
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  DispatchResult result = GreedyDispatch(in).result;
  ASSERT_EQ(result.updated_plans.size(), 1u);
  // Tamper: drop both pre-existing riders. The report must name order 99 —
  // first in the previous plan's stop order — regardless of how {7, 99}
  // happens to land in a hash table.
  auto& plan = result.updated_plans[0].second;
  std::erase_if(plan,
                [](const PlanStop& s) { return s.order == 99 || s.order == 7; });
  const Status status = VerifyDispatch(in, result);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("order 99"), std::string::npos)
      << status.message();
}

TEST(VerifierTest, FirstMissingAssignmentReportIsAssignmentOrder) {
  const Scenario sc = RandomScenario(11);
  const AuctionInstance in = sc.Instance();
  DispatchResult result = GreedyDispatch(in).result;
  if (result.assignments.size() < 2) GTEST_SKIP();
  // Tamper: throw away every updated plan. Each assignment now lacks a
  // plan; the report must name assignments[0], the first in the dispatch
  // contract's own order.
  result.updated_plans.clear();
  result.total_delta_delivery_m = Meters(0);
  const Status status = VerifyDispatch(in, result);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(
                "order " + std::to_string(result.assignments[0].order)),
            std::string::npos)
      << status.message();
}

// VerifyOptions.epsilon bounds the accounting comparisons: a perturbation
// inside the tolerance passes, the same result fails once epsilon shrinks
// below the perturbation.
TEST(VerifierTest, EpsilonBoundsAccountingTolerance) {
  const Scenario sc = RandomScenario(8);
  const AuctionInstance in = sc.Instance();
  DispatchResult result = GreedyDispatch(in).result;
  if (result.assignments.empty()) GTEST_SKIP();

  const double perturbation = 1e-7;  // < default epsilon of 1e-6
  result.total_utility += Money(perturbation);
  result.assignments[0].utility += Money(perturbation);

  VerifyOptions loose;  // default epsilon 1e-6
  EXPECT_TRUE(VerifyDispatch(in, result, loose).ok());

  VerifyOptions tight;
  tight.epsilon = 1e-9;
  EXPECT_FALSE(VerifyDispatch(in, result, tight).ok());
}

TEST(VerifierTest, EpsilonExactZeroRejectsAnyDrift) {
  // One order, one vehicle: the verifier re-derives every accounting figure
  // with the identical floating-point operations, so the untampered result
  // verifies even at epsilon = 0 and one ulp of drift is rejected.
  Scenario sc;
  sc.net = testutil::LineNetwork(10, 1000);
  sc.oracle = std::make_unique<DistanceOracle>(&sc.net);
  sc.orders = {MakeOrder(0, 2, 7, /*bid=*/25, *sc.oracle)};
  sc.vehicles = {MakeVehicle(0, 1)};
  const AuctionInstance in = sc.Instance();
  DispatchResult result = GreedyDispatch(in).result;
  ASSERT_EQ(result.assignments.size(), 1u);
  VerifyOptions exact;
  exact.epsilon = 0;
  EXPECT_TRUE(VerifyDispatch(in, result, exact).ok());
  result.assignments[0].cost =
      Money(std::nextafter(result.assignments[0].cost.value(), 1e30));
  EXPECT_FALSE(VerifyDispatch(in, result, exact).ok());
}

// A Rank pack can carry a member whose even cost share exceeds its bid:
// the pack verifies with per-pair nonnegativity off (Rank's guarantee is
// per-pack) and is rejected with it on.
TEST(VerifierTest, RankPackWithNegativeMemberUtility) {
  Scenario sc;
  sc.net = testutil::LineNetwork(12, 1000);
  sc.oracle = std::make_unique<DistanceOracle>(&sc.net);
  // Two riders share the identical 0 -> 8 trip; the vehicle is at the
  // origin. Packing them is optimal: pack utility = 30 + 1 − 3.0·8 = 7,
  // solo A = 30 − 24 = 6. The even cost share of 12 sinks member B
  // (utility 1 − 12 < 0) while the pack total stays positive.
  sc.orders = {MakeOrder(0, 0, 8, /*bid=*/30, *sc.oracle),
               MakeOrder(1, 0, 8, /*bid=*/1, *sc.oracle)};
  sc.vehicles = {MakeVehicle(0, 0)};
  const AuctionInstance in = sc.Instance();

  const RankRunResult run = RankDispatch(in);
  ASSERT_EQ(run.result.assignments.size(), 2u);
  bool has_negative_member = false;
  for (const Assignment& a : run.result.assignments) {
    if (a.utility < Money(0)) has_negative_member = true;
  }
  ASSERT_TRUE(has_negative_member)
      << "scenario no longer produces a negative member share";

  VerifyOptions per_pack;  // require_nonnegative_pair_utility = false
  EXPECT_TRUE(VerifyDispatch(in, run.result, per_pack).ok());

  VerifyOptions per_pair;
  per_pair.require_nonnegative_pair_utility = true;
  const Status status = VerifyDispatch(in, run.result, per_pair);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("below the"), std::string::npos)
      << status.ToString();
}

TEST(VerifierTest, PaymentsVerifyForBothMechanisms) {
  const Scenario sc = RandomScenario(5);
  AuctionInstance in = sc.Instance();
  for (MechanismKind kind : {MechanismKind::kGreedy, MechanismKind::kRank}) {
    const MechanismOutcome outcome = RunMechanism(kind, in);
    // Payments were computed on charge-deducted bids (CR = 0 here, so same).
    const Status status =
        VerifyPayments(in, outcome.dispatch, outcome.payments);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(VerifierTest, PaymentAboveBidIsCaught) {
  const Scenario sc = RandomScenario(6);
  const AuctionInstance in = sc.Instance();
  const MechanismOutcome outcome = RunMechanism(MechanismKind::kRank, in);
  if (outcome.payments.empty()) GTEST_SKIP();
  std::vector<Payment> tampered = outcome.payments;
  tampered[0].payment =
      sc.orders[static_cast<std::size_t>(tampered[0].order)].bid + Money(10);
  EXPECT_FALSE(VerifyPayments(in, outcome.dispatch, tampered).ok());
}

}  // namespace
}  // namespace auctionride
