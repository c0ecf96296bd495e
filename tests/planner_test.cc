#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <limits>
#include <memory>
#include <vector>

#include "auction/anytime.h"
#include "auction/optimal.h"
#include "common/rng.h"
#include "planner/insertion.h"
#include "planner/pack_planner.h"
#include "planner/plan_eval.h"
#include "roadnet/builder.h"
#include "pack_planner_reference.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

// The toy example of the paper's Figure 1: nodes v1, s1, s3, s2, e2, e3, e1
// chained with unit-length segments, plus direct segments s1-s2, e2-e1 and
// s3-e3 so that the shortest s1->e1 delivery is 3 units while the full tour
// v1 s1 s3 s2 e2 e3 e1 delivers r1 in 5 units.
class Figure1Test : public ::testing::Test {
 protected:
  static constexpr double kUnit = 1000;  // meters per segment (te = unit/speed)
  enum : NodeId { kV1 = 0, kS1, kS3, kS2, kE2, kE3, kE1 };

  void SetUp() override {
    for (int i = 0; i < 7; ++i) net_.AddNode({i * kUnit, 0});
    // Chain.
    for (NodeId n = kV1; n < kE1; ++n) {
      net_.AddBidirectionalEdge(n, n + 1, kUnit);
    }
    // Direct segments from the figure.
    net_.AddBidirectionalEdge(kS1, kS2, kUnit);
    net_.AddBidirectionalEdge(kE2, kE1, kUnit);
    net_.AddBidirectionalEdge(kS3, kE3, kUnit);
    net_.Build();
    oracle_ = std::make_unique<DistanceOracle>(&net_);
  }

  Seconds Te() const { return Meters(kUnit) / oracle_->speed_mps(); }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
};

TEST_F(Figure1Test, ShortestDeliveriesMatchPaper) {
  EXPECT_DOUBLE_EQ(oracle_->Distance(kS1, kE1), 3 * kUnit);  // s1 s2 e2 e1
  EXPECT_DOUBLE_EQ(oracle_->Distance(kV1, kS1), kUnit);
}

TEST_F(Figure1Test, FullTourWastesThreeTeForR1) {
  // r1 = <s1, e1> with θ1 = 2te, the invalid case discussed below Def. 4.
  Order r1 = MakeOrder(1, kS1, kE1, 30, *oracle_);
  r1.max_wasted_time_s = 2 * Te();
  // The example only constrains r1; keep r2/r3 slack.
  Order r2 = MakeOrder(2, kS2, kE2, 30, *oracle_, /*gamma=*/8.0);
  Order r3 = MakeOrder(3, kS3, kE3, 30, *oracle_, /*gamma=*/8.0);

  const Vehicle v1 = MakeVehicle(1, kV1);
  const Seconds now;
  std::vector<PlanStop> tour = {
      {kS1, 1, StopType::kPickup, Seconds(0)},
      {kS3, 3, StopType::kPickup, Seconds(0)},
      {kS2, 2, StopType::kPickup, Seconds(0)},
      {kE2, 2, StopType::kDropoff, r2.DropoffDeadline(now)},
      {kE3, 3, StopType::kDropoff, r3.DropoffDeadline(now)},
      {kE1, 1, StopType::kDropoff, r1.DropoffDeadline(now)},
  };
  const PlanEvaluation eval = EvaluatePlan(v1, tour, now, *oracle_);
  // r1's wasted time is wt + dt = 6te − 3te = 3te > θ1 = 2te: invalid.
  EXPECT_FALSE(eval.feasible);

  // With θ1 = 3te the same tour becomes valid.
  r1.max_wasted_time_s = 3 * Te();
  tour.back().deadline_s = r1.DropoffDeadline(now);
  const PlanEvaluation eval2 = EvaluatePlan(v1, tour, now, *oracle_);
  EXPECT_TRUE(eval2.feasible);
  // Delivery excludes the approach leg v1->s1: 5 segments.
  EXPECT_DOUBLE_EQ(eval2.delivery_distance_m.value(), 5 * kUnit);
  EXPECT_DOUBLE_EQ(eval2.total_distance_m.value(), 6 * kUnit);
}

TEST_F(Figure1Test, ValidAlternativeDispatchesR1AndR3) {
  Order r1 = MakeOrder(1, kS1, kE1, 30, *oracle_);
  r1.max_wasted_time_s = 2 * Te();
  Order r3 = MakeOrder(3, kS3, kE3, 30, *oracle_, /*gamma=*/4.0);
  const Vehicle v1 = MakeVehicle(1, kV1);
  const Seconds now;
  const std::vector<PlanStop> plan = {
      {kS1, 1, StopType::kPickup, Seconds(0)},
      {kS3, 3, StopType::kPickup, Seconds(0)},
      {kE3, 3, StopType::kDropoff, r3.DropoffDeadline(now)},
      {kE1, 1, StopType::kDropoff, r1.DropoffDeadline(now)},
  };
  const PlanEvaluation eval = EvaluatePlan(v1, plan, now, *oracle_);
  EXPECT_TRUE(eval.feasible);
  EXPECT_DOUBLE_EQ(eval.delivery_distance_m.value(), 3 * kUnit);
}

TEST(PlanEvalTest, CapacityViolationIsInfeasible) {
  RoadNetwork net = testutil::LineNetwork(8, 500);
  DistanceOracle oracle(&net);
  Vehicle v = MakeVehicle(0, 0, /*capacity=*/1);
  Order a = MakeOrder(1, 1, 6, 10, oracle);
  Order b = MakeOrder(2, 2, 5, 10, oracle);
  const std::vector<PlanStop> plan = {
      {1, 1, StopType::kPickup, Seconds(0)},
      {2, 2, StopType::kPickup, Seconds(0)},
      {5, 2, StopType::kDropoff, b.DropoffDeadline(Seconds(0))},
      {6, 1, StopType::kDropoff, a.DropoffDeadline(Seconds(0))},
  };
  EXPECT_FALSE(EvaluatePlan(v, plan, Seconds(0), oracle).feasible);
  v.capacity = 2;
  EXPECT_TRUE(EvaluatePlan(v, plan, Seconds(0), oracle).feasible);
}

TEST(PlanEvalTest, OnboardRiderCountsAgainstCapacity) {
  RoadNetwork net = testutil::LineNetwork(8, 500);
  DistanceOracle oracle(&net);
  Vehicle v = MakeVehicle(0, 0, /*capacity=*/2);
  v.onboard = 2;  // full: two riders already in the car
  Order a = MakeOrder(1, 1, 6, 10, oracle);
  const std::vector<PlanStop> plan = {
      {1, 1, StopType::kPickup, Seconds(0)},
      {6, 1, StopType::kDropoff, a.DropoffDeadline(Seconds(0))},
  };
  EXPECT_FALSE(EvaluatePlan(v, plan, Seconds(0), oracle).feasible);
}

TEST(PlanEvalTest, DeliveryCountsEverythingOnceInDelivery) {
  RoadNetwork net = testutil::LineNetwork(10, 100);
  DistanceOracle oracle(&net);
  Vehicle v = MakeVehicle(0, 2);
  v.onboard = 1;  // already delivering
  v.extra_distance_m = Meters(40);
  Order a = MakeOrder(1, 4, 7, 10, oracle);
  const std::vector<PlanStop> plan = {
      {4, 1, StopType::kPickup, Seconds(0)},
      {7, 1, StopType::kDropoff, a.DropoffDeadline(Seconds(0))},
      {9, 9, StopType::kDropoff, Seconds(1e9)},  // the onboard rider
  };
  const PlanEvaluation eval = EvaluatePlan(v, plan, Seconds(0), oracle);
  ASSERT_TRUE(eval.feasible);
  // extra 40 + (2->4) 200 + (4->7) 300 + (7->9) 200, all in delivery.
  EXPECT_DOUBLE_EQ(eval.delivery_distance_m.value(), 740);
  EXPECT_DOUBLE_EQ(eval.total_distance_m.value(), 740);
}

TEST(PlanEvalTest, EmptyPlanIsFeasibleWithZeroDistance) {
  RoadNetwork net = testutil::LineNetwork(3, 100);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 1);
  const PlanEvaluation eval = EvaluatePlan(v, {}, Seconds(0), oracle);
  EXPECT_TRUE(eval.feasible);
  EXPECT_DOUBLE_EQ(eval.total_distance_m.value(), 0);
  EXPECT_DOUBLE_EQ(eval.delivery_distance_m.value(), 0);
}

TEST(InsertionTest, SingleOrderIntoIdleVehicle) {
  RoadNetwork net = testutil::LineNetwork(10, 1000);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0);
  const Order o = MakeOrder(1, 2, 6, 20, oracle);
  const InsertionResult ins = BestInsertion(v, o, Seconds(0), oracle);
  ASSERT_TRUE(ins.feasible);
  // Delivery distance = d(s, e) = 4000; the approach 0->2 is not delivery.
  EXPECT_DOUBLE_EQ(ins.delta_delivery_m.value(), 4000);
  ASSERT_EQ(ins.new_plan.size(), 2u);
  EXPECT_EQ(ins.new_plan[0].node, 2);
  EXPECT_EQ(ins.new_plan[1].node, 6);
}

TEST(InsertionTest, InfeasibleWhenThetaTooTight) {
  RoadNetwork net = testutil::LineNetwork(10, 1000);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0);
  Order o = MakeOrder(1, 5, 7, 20, oracle);
  // Approach needs 5000 m; wt = 5000/speed > θ.
  o.max_wasted_time_s = Meters(4000) / oracle.speed_mps();
  EXPECT_FALSE(BestInsertion(v, o, Seconds(0), oracle).feasible);
}

TEST(InsertionTest, SharedRideReducesMarginalCost) {
  RoadNetwork net = testutil::LineNetwork(10, 1000);
  DistanceOracle oracle(&net);
  Vehicle v = MakeVehicle(0, 0);
  const Order a = MakeOrder(1, 1, 8, 20, oracle);
  const InsertionResult first = BestInsertion(v, a, Seconds(0), oracle);
  ASSERT_TRUE(first.feasible);
  v.plan.stops = first.new_plan;

  // Same corridor: marginal delivery distance should be ~0.
  const Order b = MakeOrder(2, 2, 7, 20, oracle);
  const InsertionResult second = BestInsertion(v, b, Seconds(0), oracle);
  ASSERT_TRUE(second.feasible);
  EXPECT_DOUBLE_EQ(second.delta_delivery_m.value(), 0);
  EXPECT_TRUE(TravelPlan{second.new_plan}.PrecedenceHolds());
}

TEST(InsertionTest, RespectsExistingRiderDeadline) {
  RoadNetwork net = testutil::LineNetwork(20, 1000);
  DistanceOracle oracle(&net);
  Vehicle v = MakeVehicle(0, 1);  // at r_a's origin: no approach waste
  Order a = MakeOrder(1, 1, 5, 20, oracle, /*gamma=*/1.2);
  const InsertionResult first = BestInsertion(v, a, Seconds(0), oracle);
  ASSERT_TRUE(first.feasible);
  v.plan.stops = first.new_plan;

  // A long opposite detour would violate r_a's deadline; the only feasible
  // insertions keep r_a's drop-off early.
  const Order b = MakeOrder(2, 15, 18, 20, oracle);
  const InsertionResult second = BestInsertion(v, b, Seconds(0), oracle);
  if (second.feasible) {
    const PlanEvaluation eval = EvaluatePlan(v, second.new_plan, Seconds(0), oracle);
    EXPECT_TRUE(eval.feasible);
  }
}

TEST(InsertionTest, FullVehicleRejects) {
  RoadNetwork net = testutil::LineNetwork(5, 1000);
  DistanceOracle oracle(&net);
  Vehicle v = MakeVehicle(0, 0, /*capacity=*/1);
  v.onboard = 1;
  const Order o = MakeOrder(1, 1, 3, 20, oracle);
  EXPECT_FALSE(BestInsertion(v, o, Seconds(0), oracle).feasible);
}

TEST(InsertionTest, MaxPickupRadius) {
  RoadNetwork net = testutil::LineNetwork(5, 1000);
  DistanceOracle oracle(&net);
  Order o = MakeOrder(1, 1, 3, 20, oracle);
  o.max_wasted_time_s = Seconds(120);
  EXPECT_DOUBLE_EQ(MaxPickupRadiusM(o, MetersPerSecond(10.0)).value(), 1200);
}

TEST(PackPlannerTest, PairOnSharedCorridor) {
  RoadNetwork net = testutil::LineNetwork(12, 1000);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0);
  const Order a = MakeOrder(1, 1, 9, 20, oracle);
  const Order b = MakeOrder(2, 2, 8, 20, oracle);
  const std::vector<const Order*> pack = {&a, &b};
  PackPrefixCache cache;
  const PackPlanResult plan = PlanPack(v, pack, Seconds(0), oracle, &cache);
  ASSERT_TRUE(plan.feasible);
  // Joint delivery: s_a(1) -> s_b(2) -> e_b(8) -> e_a(9) = 8000 m.
  EXPECT_DOUBLE_EQ(plan.delta_delivery_m.value(), 8000);
  EXPECT_EQ(plan.new_plan.size(), 4u);
}

TEST(PackPlannerTest, MatchesExactPlanOnSmallCases) {
  GridNetworkOptions options;
  options.columns = 8;
  options.rows = 8;
  options.spacing_m = 500;
  options.seed = 12;
  RoadNetwork net = BuildGridNetwork(options);
  DistanceOracle oracle(&net);
  Rng rng(5);
  int feasible_cases = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Order> orders;
    for (int j = 0; j < 2; ++j) {
      NodeId s = 0;
      NodeId e = 1;
      do {
        s = static_cast<NodeId>(rng.UniformInt(
            static_cast<uint64_t>(net.num_nodes())));
        e = static_cast<NodeId>(rng.UniformInt(
            static_cast<uint64_t>(net.num_nodes())));
      } while (s == e);
      orders.push_back(MakeOrder(j, s, e, 10, oracle, /*gamma=*/3.0));
    }
    // Start at the first order's origin so approaches stay feasible.
    const Vehicle v = MakeVehicle(0, orders[0].origin);
    const std::vector<const Order*> pack = {&orders[0], &orders[1]};
    PackPrefixCache cache;
    const PackPlanResult insertion_plan =
        PlanPack(v, pack, Seconds(0), oracle, &cache);
    const ExactPlanResult exact = ExactBestPlan(v, {pack.begin(), pack.end()},
                                                Seconds(0), oracle);
    // Insertion is a (possibly suboptimal) upper bound on the exact optimum,
    // and they must agree on feasibility in this direction:
    if (insertion_plan.feasible) {
      ASSERT_TRUE(exact.feasible);
      EXPECT_GE(insertion_plan.delta_delivery_m,
                exact.delta_delivery_m - Meters(1e-6));
      ++feasible_cases;
    }
  }
  EXPECT_GT(feasible_cases, 5);  // the sweep must actually exercise packs
}

// Property sweep: BestInsertion's plan must preserve the relative order of
// the existing stops, contain the new order exactly once (pickup before
// drop-off), and its ΔD must equal the delivery-distance difference
// recomputed independently with EvaluatePlan.
class InsertionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InsertionPropertyTest, PlanStructureAndDeltaConsistency) {
  Rng rng(GetParam() * 31 + 7);
  GridNetworkOptions options;
  options.columns = 8;
  options.rows = 8;
  options.spacing_m = 500;
  options.seed = GetParam() + 300;
  RoadNetwork grid = BuildGridNetwork(options);
  DistanceOracle oracle(&grid);

  auto random_node = [&]() {
    return static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
  };

  for (int trial = 0; trial < 25; ++trial) {
    // Random vehicle with 0-2 existing (generous-deadline) orders.
    Vehicle v = testutil::MakeVehicle(0, random_node());
    const int existing = static_cast<int>(rng.UniformInt(uint64_t{3}));
    std::vector<Order> carried;
    for (int k = 0; k < existing; ++k) {
      NodeId s = random_node();
      NodeId e = random_node();
      if (s == e) continue;
      Order o = testutil::MakeOrder(100 + k, s, e, 10, oracle, /*gamma=*/6.0);
      const InsertionResult ins = BestInsertion(v, o, Seconds(0), oracle);
      if (ins.feasible) {
        v.plan.stops = ins.new_plan;
        carried.push_back(o);
      }
    }
    NodeId s = random_node();
    NodeId e = random_node();
    if (s == e) continue;
    const Order order =
        testutil::MakeOrder(7, s, e, 20, oracle, /*gamma=*/3.0);

    const Meters base_delivery =
        EvaluatePlan(v, v.plan.stops, Seconds(0), oracle).delivery_distance_m;
    const InsertionResult ins = BestInsertion(v, order, Seconds(0), oracle);
    if (!ins.feasible) continue;

    // Relative order of pre-existing stops preserved.
    std::vector<PlanStop> filtered;
    for (const PlanStop& stop : ins.new_plan) {
      if (stop.order != order.id) filtered.push_back(stop);
    }
    ASSERT_EQ(filtered.size(), v.plan.stops.size());
    for (std::size_t i = 0; i < filtered.size(); ++i) {
      EXPECT_EQ(filtered[i].order, v.plan.stops[i].order);
      EXPECT_EQ(filtered[i].node, v.plan.stops[i].node);
    }
    // New order appears as pickup before drop-off.
    int pickup_pos = -1;
    int dropoff_pos = -1;
    for (std::size_t i = 0; i < ins.new_plan.size(); ++i) {
      if (ins.new_plan[i].order != order.id) continue;
      if (ins.new_plan[i].type == StopType::kPickup) {
        pickup_pos = static_cast<int>(i);
      } else {
        dropoff_pos = static_cast<int>(i);
      }
    }
    ASSERT_GE(pickup_pos, 0);
    ASSERT_GT(dropoff_pos, pickup_pos);

    // Independent ΔD recomputation.
    const PlanEvaluation eval = EvaluatePlan(v, ins.new_plan, Seconds(0), oracle);
    ASSERT_TRUE(eval.feasible);
    EXPECT_NEAR(ins.delta_delivery_m.value(),
                (eval.delivery_distance_m - base_delivery).value(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InsertionPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(PackPlannerTest, RejectsOverCapacity) {
  RoadNetwork net = testutil::LineNetwork(10, 500);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0, /*capacity=*/2);
  const Order a = MakeOrder(1, 1, 4, 10, oracle);
  const Order b = MakeOrder(2, 2, 5, 10, oracle);
  const Order c = MakeOrder(3, 3, 6, 10, oracle);
  const std::vector<const Order*> pack = {&a, &b, &c};
  PackPrefixCache cache;
  const PackPlanResult plan = PlanPack(v, pack, Seconds(0), oracle, &cache);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.queries, 0);
  EXPECT_EQ(cache.size(), 0u);
}

// Bit-for-bit comparison of PlanPack against the uncached walk, including
// the logical query count the reference makes on the oracle.
void ExpectMatchesReference(const Vehicle& v,
                            std::span<const Order* const> pack, Seconds now,
                            const DistanceOracle& oracle,
                            PackPrefixCache* cache) {
  PackPlanResult want;
  const int64_t want_queries = CountQueries(
      [&] { want = PlanPackReference(v, pack, now, oracle); });
  const PackPlanResult got = PlanPack(v, pack, now, oracle, cache);
  ASSERT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.queries, want_queries);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.delta_delivery_m.value()),
            std::bit_cast<uint64_t>(want.delta_delivery_m.value()));
  ASSERT_EQ(got.new_plan.size(), want.new_plan.size());
  for (std::size_t i = 0; i < got.new_plan.size(); ++i) {
    EXPECT_EQ(got.new_plan[i].node, want.new_plan[i].node);
    EXPECT_EQ(got.new_plan[i].order, want.new_plan[i].order);
    EXPECT_EQ(got.new_plan[i].type, want.new_plan[i].type);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.new_plan[i].deadline_s.value()),
              std::bit_cast<uint64_t>(want.new_plan[i].deadline_s.value()));
  }
}

// Fuzz: vehicles with committed plans, riders on board and capacities 1-4;
// every pack of 1-3 of a round's orders, each in a random member order,
// evaluated in shuffled order through one shared cache, so later packs
// reuse prefixes earlier ones computed. Hits and misses alike must match
// the uncached walk bit for bit.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->UniformInt(uint64_t{i})]);
  }
}

// What one fuzz round exercised.
struct PrefixCacheCoverage {
  int64_t hits = 0;
  int64_t misses = 0;
  int short_of_capacity = 0;  // rejected before any insertion
  int infeasible_first = 0;   // the pack's first insertion has no position
  // Singles whose one, infeasible step was read from the cache.
  int infeasible_first_hits = 0;
};

void CheckPrefixCacheRound(uint64_t seed, PrefixCacheCoverage* coverage) {
  Rng rng(seed * 7919 + 3);
  GridNetworkOptions options;
  options.columns = 8;
  options.rows = 8;
  options.spacing_m = 500;
  options.seed = seed + 40;
  RoadNetwork net = BuildGridNetwork(options);
  DistanceOracle oracle(&net);
  const auto random_node = [&] {
    return static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
  };
  const Seconds now(100);

  std::vector<Order> orders;
  for (int j = 0; j < 6; ++j) {
    NodeId s = random_node();
    NodeId e = random_node();
    while (s == e) e = random_node();
    orders.push_back(MakeOrder(j, s, e, 10, oracle, rng.Uniform(1.2, 3.0)));
  }
  std::vector<Vehicle> vehicles;
  for (int i = 0; i < 4; ++i) {
    Vehicle v = MakeVehicle(
        i, random_node(),
        /*capacity=*/1 + static_cast<int>(rng.UniformInt(uint64_t{4})));
    v.extra_distance_m = Meters(rng.Uniform(0, 300));
    const double roll = rng.Uniform();
    if (roll < 0.35) {
      v.onboard = 1;
      v.in_delivery = true;
      v.plan.stops.push_back(
          {random_node(), 100 + i, StopType::kDropoff, now + Seconds(1e5)});
    } else if (roll < 0.6 && v.capacity >= 2) {
      v.plan.stops.push_back(
          {random_node(), 100 + i, StopType::kPickup, Seconds{}});
      v.plan.stops.push_back(
          {random_node(), 100 + i, StopType::kDropoff, now + Seconds(1e5)});
    }
    vehicles.push_back(std::move(v));
  }

  std::vector<std::vector<const Order*>> packs;
  const std::size_t m = orders.size();
  for (std::size_t a = 0; a < m; ++a) {
    packs.push_back({&orders[a]});
    for (std::size_t b = a + 1; b < m; ++b) {
      packs.push_back({&orders[a], &orders[b]});
      for (std::size_t c = b + 1; c < m; ++c) {
        packs.push_back({&orders[a], &orders[b], &orders[c]});
      }
    }
  }
  for (std::vector<const Order*>& pack : packs) Shuffle(&pack, &rng);
  Shuffle(&packs, &rng);

  PackPrefixCache cache;  // one cache across every vehicle and pack
  for (const std::vector<const Order*>& pack : packs) {
    for (const Vehicle& v : vehicles) {
      const int64_t hits_before = cache.hits();
      ExpectMatchesReference(v, pack, now, oracle, &cache);
      if (v.CommittedRiders() + static_cast<int>(pack.size()) > v.capacity) {
        ++coverage->short_of_capacity;
      } else if (!BestInsertion(v, *pack[0], now, oracle).feasible) {
        ++coverage->infeasible_first;
        if (pack.size() == 1 && cache.hits() > hits_before) {
          ++coverage->infeasible_first_hits;
        }
      }
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(cache.misses()), cache.size());
  coverage->hits += cache.hits();
  coverage->misses += cache.misses();
}

TEST(PackPlannerTest, PrefixCacheMatchesReference) {
  PrefixCacheCoverage coverage;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    CheckPrefixCacheRound(seed, &coverage);
  }
  EXPECT_GT(coverage.hits, 0);
  EXPECT_GT(coverage.misses, 0);
  EXPECT_GT(coverage.short_of_capacity, 0);
  EXPECT_GT(coverage.infeasible_first, 0);
  EXPECT_GT(coverage.infeasible_first_hits, 0);
}

// A LegSource that corrupts one specific leg and forwards everything else to
// the oracle — the misbehaving-oracle stub the evaluator must defend
// against.
class CorruptedLegSource final : public LegSource {
 public:
  CorruptedLegSource(const DistanceOracle& oracle, NodeId from, NodeId to,
                     double corrupted_m)
      : oracle_(oracle), from_(from), to_(to), corrupted_m_(corrupted_m) {}
  double LegDistance(NodeId from, NodeId to) const override {
    if (from == from_ && to == to_) return corrupted_m_;
    return oracle_.Distance(from, to);
  }

 private:
  const DistanceOracle& oracle_;
  NodeId from_;
  NodeId to_;
  double corrupted_m_;
};

TEST(PlanEvalTest, NanLegRejectedWithoutPoisoningAccumulators) {
  RoadNetwork net = testutil::LineNetwork(10, 500);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0);
  const Order a = MakeOrder(1, 2, 6, 10, oracle);
  const std::vector<PlanStop> plan = {
      {2, 1, StopType::kPickup, Seconds(0)},
      {6, 1, StopType::kDropoff, a.DropoffDeadline(Seconds(0))},
  };
  // Sanity: the uncorrupted walk through the seam is feasible and matches
  // the oracle overload bitwise.
  const PlanEvaluation clean = EvaluatePlan(v, plan, Seconds(0),
                                            oracle.speed_mps(),
                                            OracleLegSource(oracle));
  const PlanEvaluation direct = EvaluatePlan(v, plan, Seconds(0), oracle);
  ASSERT_TRUE(clean.feasible);
  EXPECT_EQ(clean.total_distance_m, direct.total_distance_m);
  EXPECT_EQ(clean.delivery_distance_m, direct.delivery_distance_m);
  EXPECT_EQ(clean.completion_time_s, direct.completion_time_s);

  // NaN on the second leg: historically `leg == kInfDistance` compared
  // false and the NaN flowed into every accumulator; now the leg is
  // rejected and the prefix accumulators stay finite.
  const CorruptedLegSource nan_leg(oracle, 2, 6,
                                   std::numeric_limits<double>::quiet_NaN());
  const PlanEvaluation poisoned =
      EvaluatePlan(v, plan, Seconds(0), oracle.speed_mps(), nan_leg);
  EXPECT_FALSE(poisoned.feasible);
  EXPECT_TRUE(std::isfinite(poisoned.total_distance_m.value()));
  EXPECT_TRUE(std::isfinite(poisoned.delivery_distance_m.value()));
  EXPECT_TRUE(std::isfinite(poisoned.completion_time_s.value()));

  // +inf keeps its historical unreachable semantics.
  const CorruptedLegSource inf_leg(oracle, 2, 6, kInfDistance);
  EXPECT_FALSE(
      EvaluatePlan(v, plan, Seconds(0), oracle.speed_mps(), inf_leg)
          .feasible);
}

// Pins the pickup-deadline contract (model/travel_plan.h): Seconds(0) is
// the no-deadline sentinel; a positive pickup deadline is enforced exactly
// like a drop-off deadline.
TEST(PlanEvalTest, PickupDeadlineContract) {
  RoadNetwork net = testutil::LineNetwork(10, 1000);
  DistanceOracle oracle(&net);
  const Vehicle v = MakeVehicle(0, 0);
  // γ = 10: the drop-off deadline is far looser than the 5000 m approach,
  // so feasibility below is decided by the pickup deadline alone.
  const Order a = MakeOrder(1, 5, 7, 10, oracle, /*gamma=*/10.0);
  const Seconds pickup_time = Meters(5000) / oracle.speed_mps();

  auto plan_with_pickup_deadline = [&](Seconds deadline) {
    return std::vector<PlanStop>{
        {5, 1, StopType::kPickup, deadline},
        {7, 1, StopType::kDropoff, a.DropoffDeadline(Seconds(0))},
    };
  };
  // Sentinel: no pickup deadline, feasible however long the approach.
  EXPECT_TRUE(EvaluatePlan(v, plan_with_pickup_deadline(Seconds(0)),
                           Seconds(0), oracle)
                  .feasible);
  // Positive and generous: enforced, met.
  EXPECT_TRUE(EvaluatePlan(v,
                           plan_with_pickup_deadline(pickup_time +
                                                     Seconds(1.0)),
                           Seconds(0), oracle)
                  .feasible);
  // Positive and tight: enforced, missed — no longer silently dropped.
  EXPECT_FALSE(EvaluatePlan(v,
                            plan_with_pickup_deadline(pickup_time -
                                                      Seconds(1.0)),
                            Seconds(0), oracle)
                   .feasible);
}

// The pickup-radius rule is exact: on random rounds (riders on board,
// accepted pickups and vehicles mid-edge included), every vehicle the index
// leaves out has no feasible insertion. Every dispatcher and GPri probe only
// the index's candidates, so a violation would silently drop a servable
// vehicle from all of them.
TEST(PickupCandidateIndexTest, LeavesOutOnlyInfeasibleVehicles) {
  int64_t left_out = 0;
  int64_t kept_feasible = 0;
  std::vector<int32_t> near;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const testutil::FuzzScenario sc = testutil::BuildFuzzScenario(seed);
    const PickupCandidateIndex index(sc.vehicles, *sc.oracle);
    for (const Order& order : sc.orders) {
      index.WithinRadius(order, &near);
      std::vector<char> kept(sc.vehicles.size(), 0);
      for (int32_t v : near) kept[static_cast<std::size_t>(v)] = 1;
      for (std::size_t i = 0; i < sc.vehicles.size(); ++i) {
        const bool feasible =
            BestInsertion(sc.vehicles[i], order, sc.now_s, *sc.oracle)
                .feasible;
        if (kept[i]) {
          kept_feasible += feasible ? 1 : 0;
          continue;
        }
        ++left_out;
        EXPECT_FALSE(feasible) << "seed " << seed << " order " << order.id
                               << " vehicle " << i;
      }
    }
  }
  // Neither side of the rule is vacuous on this instance family.
  EXPECT_GT(left_out, 0);
  EXPECT_GT(kept_feasible, 0);
}

}  // namespace
}  // namespace auctionride
