#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "auction/baselines.h"
#include "auction/greedy.h"
#include "common/rng.h"
#include "roadnet/builder.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

TEST(FcfsTest, ServesInIssueOrder) {
  RoadNetwork net = testutil::LineNetwork(16, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {
      MakeOrder(0, 2, 6, /*bid=*/5, oracle),   // negative utility solo
      MakeOrder(1, 2, 6, /*bid=*/40, oracle),  // would win any auction
  };
  orders[0].issue_time_s = Seconds(0);
  orders[1].issue_time_s = Seconds(10);
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2, /*capacity=*/1)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;

  // Non-auction FCFS gives the seat to the earlier (low-bid) order.
  const DispatchResult fcfs = FcfsDispatch(in, /*serve_all=*/true);
  ASSERT_EQ(fcfs.assignments.size(), 1u);
  EXPECT_EQ(fcfs.assignments[0].order, 0);

  // The auction gives it to the higher bid.
  const DispatchResult greedy = GreedyDispatch(in).result;
  ASSERT_EQ(greedy.assignments.size(), 1u);
  EXPECT_EQ(greedy.assignments[0].order, 1);
}

TEST(FcfsTest, ServeAllDispatchesNegativeUtility) {
  RoadNetwork net = testutil::LineNetwork(16, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 2, 12, /*bid=*/5, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  EXPECT_EQ(FcfsDispatch(in, /*serve_all=*/true).assignments.size(), 1u);
  EXPECT_TRUE(FcfsDispatch(in, /*serve_all=*/false).assignments.empty());
}

TEST(FcfsTest, PicksMinimumInsertionVehicle) {
  RoadNetwork net = testutil::LineNetwork(20, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 10, 12, /*bid=*/20, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 3), MakeVehicle(1, 9)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const DispatchResult r = FcfsDispatch(in);
  ASSERT_EQ(r.assignments.size(), 1u);
  // ΔD is the same (delivery only), so the first min wins; both are valid —
  // assert the dispatch happened and the plan is consistent.
  ASSERT_EQ(r.updated_plans.size(), 1u);
  EXPECT_TRUE(TravelPlan{r.updated_plans[0].second}.PrecedenceHolds());
}

TEST(FcfsTest, HigherDispatchCountLowerUtilityThanAuction) {
  // On a random crowded instance, FCFS (serve-all) dispatches at least as
  // many orders as Greedy but cannot beat it on utility-aware selection
  // when capacity binds.
  Rng rng(9);
  GridNetworkOptions options;
  options.columns = 10;
  options.rows = 10;
  options.spacing_m = 500;
  options.seed = 3;
  RoadNetwork grid = BuildGridNetwork(options);
  DistanceOracle oracle(&grid);
  std::vector<Order> orders;
  for (int j = 0; j < 20; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
      e = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
    }
    orders.push_back(MakeOrder(j, s, e, rng.Uniform(5, 40), oracle, 2.0));
    orders.back().issue_time_s = Seconds(j);
  }
  std::vector<Vehicle> vehicles;
  for (int i = 0; i < 3; ++i) {
    vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(
               rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())))));
  }
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const DispatchResult fcfs = FcfsDispatch(in, /*serve_all=*/true);
  const DispatchResult greedy = GreedyDispatch(in).result;
  EXPECT_GE(greedy.total_utility, fcfs.total_utility - Money(1e-9));
}

}  // namespace
}  // namespace auctionride
