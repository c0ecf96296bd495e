#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "auction/greedy.h"
#include "auction/optimal.h"
#include "auction/rank.h"
#include "common/rng.h"
#include "roadnet/builder.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

TEST(ExactBestPlanTest, SingleOrderEqualsShortestPath) {
  RoadNetwork net = testutil::LineNetwork(10, 1000);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0);
  const Order o = MakeOrder(1, 2, 7, 20, oracle);
  const ExactPlanResult exact = ExactBestPlan(v, {&o}, Seconds(0), oracle);
  ASSERT_TRUE(exact.feasible);
  EXPECT_DOUBLE_EQ(exact.delta_delivery_m.value(), 5000);
}

TEST(ExactBestPlanTest, FindsInterleavingInsertionMisses) {
  // A case where insertion order matters: the exact planner may reorder
  // everything, so its Δ is never worse than PlanPack's.
  RoadNetwork net = testutil::LatticeNetwork(8, 8, 500);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0);
  const Order a = MakeOrder(1, 9, 45, 20, oracle, 3.0);
  const Order b = MakeOrder(2, 18, 36, 20, oracle, 3.0);
  const Order c = MakeOrder(3, 27, 54, 20, oracle, 3.0);
  const ExactPlanResult exact = ExactBestPlan(v, {&a, &b, &c}, Seconds(0), oracle);
  ASSERT_TRUE(exact.feasible);
  EXPECT_GT(exact.delta_delivery_m, Meters(0));
}

TEST(ExactBestPlanTest, CapacityBound) {
  RoadNetwork net = testutil::LineNetwork(10, 500);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0, /*capacity=*/1);
  const Order a = MakeOrder(1, 1, 3, 10, oracle);
  const Order b = MakeOrder(2, 2, 4, 10, oracle);
  EXPECT_FALSE(ExactBestPlan(v, {&a, &b}, Seconds(0), oracle).feasible);
  EXPECT_TRUE(ExactBestPlan(v, {&a}, Seconds(0), oracle).feasible);
}

TEST(OptimalDispatchTest, EmptyInstance) {
  RoadNetwork net = testutil::LineNetwork(4, 500);
  DistanceOracle oracle(&net);
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const OptimalResult r = OptimalDispatch(in);
  EXPECT_EQ(r.total_utility, Money(0));
  EXPECT_TRUE(r.assignment.empty());
}

TEST(OptimalDispatchTest, LeavesNegativeUtilityOrdersOut) {
  RoadNetwork net = testutil::LineNetwork(16, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 2, 14, /*bid=*/5, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const OptimalResult r = OptimalDispatch(in);
  EXPECT_EQ(r.total_utility, Money(0));  // dispatching would lose money
  EXPECT_TRUE(r.assignment.empty());
}

TEST(OptimalDispatchTest, FindsJointlyProfitablePack) {
  RoadNetwork net = testutil::LineNetwork(24, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {
      MakeOrder(0, 4, 16, /*bid=*/20, oracle),
      MakeOrder(1, 5, 15, /*bid=*/20, oracle),
  };
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 4)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const OptimalResult r = OptimalDispatch(in);
  EXPECT_EQ(r.assignment.size(), 2u);
  EXPECT_GT(r.total_utility, Money(0));
}

// Property: on random small instances, the optimum dominates both
// heuristics, and Rank respects its 1/m bound (Theorem IV.1) with room to
// spare in practice.
class OptimalDominanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimalDominanceTest, OptimumDominatesHeuristics) {
  Rng rng(GetParam());
  GridNetworkOptions options;
  options.columns = 7;
  options.rows = 7;
  options.spacing_m = 600;
  options.seed = GetParam() + 40;
  RoadNetwork grid = BuildGridNetwork(options);
  DistanceOracle oracle(&grid);

  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  for (int j = 0; j < 5; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
      e = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
    }
    orders.push_back(MakeOrder(j, s, e, rng.Uniform(10, 40), oracle, 2.2));
  }
  for (int i = 0; i < 2; ++i) {
    vehicles.push_back(MakeVehicle(
        i,
        static_cast<NodeId>(
            rng.UniformInt(static_cast<uint64_t>(grid.num_nodes()))),
        /*capacity=*/2));
  }
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;

  const OptimalResult opt = OptimalDispatch(in);
  const DispatchResult greedy = GreedyDispatch(in).result;
  const DispatchResult rank = RankDispatch(in).result;
  EXPECT_GE(opt.total_utility, greedy.total_utility - Money(1e-6));
  EXPECT_GE(opt.total_utility, rank.total_utility - Money(1e-6));
  if (opt.total_utility > Money(1e-9)) {
    // Theorem IV.1: Rank >= OPT/m. (Holds with the restricted pack universe
    // because every singleton pack is enumerated.)
    EXPECT_GE(rank.total_utility,
              opt.total_utility / static_cast<double>(orders.size()) -
                  Money(1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalDominanceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace auctionride
