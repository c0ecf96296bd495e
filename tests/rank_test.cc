#include <gtest/gtest.h>

#include <algorithm>
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

class RankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = testutil::LineNetwork(24, 1000);
    oracle_ = std::make_unique<DistanceOracle>(&net_);
  }

  AuctionInstance Instance() {
    AuctionInstance in;
    in.orders = &orders_;
    in.vehicles = &vehicles_;
    in.now_s = Seconds(0);
    in.oracle = oracle_.get();
    in.config.alpha_d_per_km = 3.0;
    return in;
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::vector<Order> orders_;
  std::vector<Vehicle> vehicles_;
};

TEST_F(RankTest, EmptyInputs) {
  const RankRunResult r = RankDispatch(Instance());
  EXPECT_TRUE(r.result.assignments.empty());
}

TEST_F(RankTest, SingleOrderSinglePack) {
  orders_.push_back(MakeOrder(0, 2, 6, /*bid=*/20, *oracle_));
  vehicles_.push_back(MakeVehicle(0, 1));
  const RankRunResult r = RankDispatch(Instance());
  ASSERT_EQ(r.result.assignments.size(), 1u);
  EXPECT_NEAR(r.result.total_utility.value(), 8.0, 1e-9);
  ASSERT_EQ(r.artifacts.best.size(), 1u);
  ASSERT_GE(r.artifacts.best[0], 0);
  const PackCandidate& pack =
      r.artifacts.candidates[0][static_cast<std::size_t>(
          r.artifacts.best[0])];
  EXPECT_EQ(pack.members, (std::vector<int32_t>{0}));
  EXPECT_EQ(pack.vehicle, 0);
}

TEST_F(RankTest, NearestVehicleIsResolvedByRoadDistance) {
  orders_.push_back(MakeOrder(0, 10, 14, /*bid=*/30, *oracle_));
  vehicles_.push_back(MakeVehicle(0, 2));
  vehicles_.push_back(MakeVehicle(1, 9));  // nearest
  vehicles_.push_back(MakeVehicle(2, 16));
  const RankRunResult r = RankDispatch(Instance());
  ASSERT_EQ(r.artifacts.nearest_vehicle.size(), 1u);
  EXPECT_EQ(r.artifacts.nearest_vehicle[0], 1);
  ASSERT_EQ(r.result.assignments.size(), 1u);
  EXPECT_EQ(r.result.assignments[0].vehicle, 1);
}

// The motivating example of §IV / Figure 3 discussion: two requesters that
// are individually unprofitable but jointly profitable. Greedy dispatches
// nothing; Rank packs them and wins.
TEST_F(RankTest, PacksJointlyProfitablePairThatGreedyMisses) {
  // Shared corridor 4 -> 16 (12 km). Each bid 20 < 3 * 12 = 36 solo cost,
  // but the pair shares almost the whole route: joint cost ≈ 36 + ε for a
  // combined bid of 40.
  orders_.push_back(MakeOrder(0, 4, 16, /*bid=*/20, *oracle_));
  orders_.push_back(MakeOrder(1, 5, 15, /*bid=*/20, *oracle_));
  vehicles_.push_back(MakeVehicle(0, 4));

  const DispatchResult greedy = GreedyDispatch(Instance()).result;
  EXPECT_TRUE(greedy.assignments.empty());

  const RankRunResult rank = RankDispatch(Instance());
  EXPECT_EQ(rank.result.assignments.size(), 2u);
  EXPECT_GT(rank.result.total_utility, Money(0));
}

TEST_F(RankTest, ConflictingPacksDispatchOnlyBest) {
  // Two far-apart requesters whose packs want the same (only) vehicle.
  orders_.push_back(MakeOrder(0, 2, 6, /*bid=*/40, *oracle_));
  orders_.push_back(MakeOrder(1, 18, 22, /*bid=*/20, *oracle_, 1.2));
  vehicles_.push_back(MakeVehicle(0, 1, /*capacity=*/1));
  const RankRunResult r = RankDispatch(Instance());
  // Capacity 1: packs are singletons; both target vehicle 0; the higher
  // utility (order 0, near the vehicle) wins, order 1 conflicts out.
  ASSERT_EQ(r.result.assignments.size(), 1u);
  EXPECT_EQ(r.result.assignments[0].order, 0);
}

TEST_F(RankTest, NegativeUtilityPacksNotDispatched) {
  orders_.push_back(MakeOrder(0, 2, 12, /*bid=*/5, *oracle_));
  vehicles_.push_back(MakeVehicle(0, 1));
  const RankRunResult r = RankDispatch(Instance());
  EXPECT_TRUE(r.result.assignments.empty());
}

TEST_F(RankTest, PacksStopAtThreeMembersOnLargerVehicles) {
  // Five riders along one corridor could share a capacity-4 vehicle, but
  // Rank's packs stop at kMaxPackSize = c̄ = 3 members.
  for (int j = 0; j < 5; ++j) {
    orders_.push_back(MakeOrder(j, 4 + j, 16 + j, /*bid=*/30, *oracle_,
                                /*gamma=*/3.0));
  }
  vehicles_.push_back(MakeVehicle(0, 4, /*capacity=*/4));
  vehicles_.push_back(MakeVehicle(1, 8, /*capacity=*/4));
  const RankRunResult r = RankDispatch(Instance());
  ASSERT_EQ(kMaxPackSize, 3);
  std::size_t largest = 0;
  for (const std::vector<PackCandidate>& cands : r.artifacts.candidates) {
    for (const PackCandidate& c : cands) {
      EXPECT_LE(c.members.size(), static_cast<std::size_t>(kMaxPackSize));
      largest = std::max(largest, c.members.size());
    }
  }
  // The cap binds: triples are built, so a larger pack was within reach.
  EXPECT_EQ(largest, 3u);
}

TEST_F(RankTest, ArtifactsCoverEveryOrder) {
  for (int j = 0; j < 6; ++j) {
    orders_.push_back(MakeOrder(j, 2 + 2 * j, 3 + 2 * j, /*bid=*/15,
                                *oracle_, 3.0));
  }
  vehicles_.push_back(MakeVehicle(0, 0));
  vehicles_.push_back(MakeVehicle(1, 12));
  const RankRunResult r = RankDispatch(Instance());
  ASSERT_EQ(r.artifacts.candidates.size(), orders_.size());
  ASSERT_EQ(r.artifacts.best.size(), orders_.size());
  for (std::size_t j = 0; j < orders_.size(); ++j) {
    if (r.artifacts.best[j] >= 0) {
      const PackCandidate& best = r.artifacts.candidates[j][
          static_cast<std::size_t>(r.artifacts.best[j])];
      EXPECT_TRUE(best.Contains(static_cast<int32_t>(j)));
      // best really is the max over the stored candidates
      for (const PackCandidate& c : r.artifacts.candidates[j]) {
        EXPECT_LE(c.utility, best.utility + Money(1e-9));
      }
    }
  }
}

TEST_F(RankTest, PlansSatisfyInvariant) {
  for (int j = 0; j < 8; ++j) {
    orders_.push_back(
        MakeOrder(j, 1 + j, 10 + j, /*bid=*/35, *oracle_, 2.0));
  }
  for (int i = 0; i < 3; ++i) {
    vehicles_.push_back(MakeVehicle(i, 1 + 4 * i));
  }
  const RankRunResult r = RankDispatch(Instance());
  for (const auto& [veh_idx, plan] : r.result.updated_plans) {
    TravelPlan tp{plan};
    EXPECT_TRUE(tp.PrecedenceHolds());
    EXPECT_LE(tp.PendingPickups(), vehicles_[veh_idx].capacity);
  }
  // No order assigned twice.
  std::vector<int> seen(orders_.size(), 0);
  for (const Assignment& a : r.result.assignments) {
    ++seen[static_cast<std::size_t>(a.order)];
  }
  for (int s : seen) EXPECT_LE(s, 1);
}

// Randomized cross-check: Rank's utility is >= the best single pack's
// utility and the dispatch respects all conflicts.
class RankPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankPropertyTest, RandomInstancesAreConsistent) {
  Rng rng(GetParam());
  GridNetworkOptions options;
  options.columns = 9;
  options.rows = 9;
  options.spacing_m = 500;
  options.seed = GetParam() * 3 + 1;
  RoadNetwork grid = BuildGridNetwork(options);
  DistanceOracle oracle(&grid);

  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  const int m = 3 + static_cast<int>(rng.UniformInt(uint64_t{10}));
  const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  for (int j = 0; j < m; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(rng.UniformInt(
          static_cast<uint64_t>(grid.num_nodes())));
      e = static_cast<NodeId>(rng.UniformInt(
          static_cast<uint64_t>(grid.num_nodes())));
    }
    orders.push_back(MakeOrder(j, s, e, rng.Uniform(5, 45), oracle, 2.0));
  }
  for (int i = 0; i < n; ++i) {
    vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(rng.UniformInt(
               static_cast<uint64_t>(grid.num_nodes())))));
  }

  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const RankRunResult r = RankDispatch(in);

  // Utility must be at least the best single pack's utility.
  Money best_pack_utility;
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (r.artifacts.best[j] >= 0) {
      best_pack_utility = std::max(
          best_pack_utility,
          r.artifacts
              .candidates[j][static_cast<std::size_t>(r.artifacts.best[j])]
              .utility);
    }
  }
  EXPECT_GE(r.result.total_utility, best_pack_utility - Money(1e-6));

  // One pack per vehicle per round; every dispatched order exactly once.
  std::vector<int> veh_used(vehicles.size(), 0);
  for (const auto& [veh_idx, plan] : r.result.updated_plans) {
    EXPECT_EQ(veh_used[veh_idx]++, 0);
  }
  std::vector<int> order_used(orders.size(), 0);
  for (const Assignment& a : r.result.assignments) {
    EXPECT_EQ(order_used[static_cast<std::size_t>(a.order)]++, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// The §V-E clustering optimization must produce a valid dispatch with
// near-par utility: clustering only restricts pack partners to same-group
// requesters.
TEST(RankClusteringTest, ClusteredDispatchIsValidAndComparable) {
  Rng rng(77);
  GridNetworkOptions options;
  options.columns = 14;
  options.rows = 14;
  options.spacing_m = 500;
  options.seed = 6;
  RoadNetwork grid = BuildGridNetwork(options);
  DistanceOracle oracle(&grid);
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  for (int j = 0; j < 60; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
      e = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
    }
    orders.push_back(
        MakeOrder(j, s, e, rng.Uniform(10, 40), oracle, 2.0));
  }
  for (int i = 0; i < 30; ++i) {
    vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(
               rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())))));
  }
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;

  in.config.cluster_threshold = 0;  // disabled
  const RankRunResult plain = RankDispatch(in);
  in.config.cluster_threshold = 10;  // force clustering into ~4 groups
  in.config.cluster_target_size = 15;
  const RankRunResult clustered = RankDispatch(in);

  EXPECT_GT(clustered.result.assignments.size(), 0u);
  // Structural validity of the clustered result.
  std::vector<int> order_used(orders.size(), 0);
  for (const Assignment& a : clustered.result.assignments) {
    EXPECT_EQ(order_used[static_cast<std::size_t>(a.order)]++, 0);
  }
  // Clustering restricts the pack universe, so utility can dip — but it
  // should stay in the same ballpark (within 40% here) and must never be
  // negative.
  EXPECT_GE(clustered.result.total_utility, Money(0));
  EXPECT_GE(clustered.result.total_utility,
            0.6 * plain.result.total_utility);
}

}  // namespace
}  // namespace auctionride
