#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auction/greedy.h"
#include "auction/optimal.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "planner/insertion.h"
#include "roadnet/builder.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

class GreedyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = testutil::LineNetwork(20, 1000);
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

TEST_F(GreedyTest, EmptyInputsDispatchNothing) {
  const DispatchResult r = GreedyDispatch(Instance()).result;
  EXPECT_TRUE(r.assignments.empty());
  EXPECT_EQ(r.total_utility, Money(0));
}

TEST_F(GreedyTest, SingleProfitableOrderIsDispatched) {
  orders_.push_back(MakeOrder(0, 2, 6, /*bid=*/20, *oracle_));
  vehicles_.push_back(MakeVehicle(0, 1));
  const DispatchResult r = GreedyDispatch(Instance()).result;
  ASSERT_EQ(r.assignments.size(), 1u);
  EXPECT_EQ(r.assignments[0].order, 0);
  EXPECT_EQ(r.assignments[0].vehicle, 0);
  // Delivery ΔD = 4 km; cost = 12; utility = 8.
  EXPECT_NEAR(r.assignments[0].cost.value(), 12.0, 1e-9);
  EXPECT_NEAR(r.total_utility.value(), 8.0, 1e-9);
}

TEST_F(GreedyTest, NegativeUtilityOrderIsNotDispatched) {
  orders_.push_back(MakeOrder(0, 2, 12, /*bid=*/10, *oracle_));  // cost 30
  vehicles_.push_back(MakeVehicle(0, 1));
  const DispatchResult r = GreedyDispatch(Instance()).result;
  EXPECT_TRUE(r.assignments.empty());
}

TEST_F(GreedyTest, PicksMaxUtilityPairFirst) {
  orders_.push_back(MakeOrder(0, 2, 6, /*bid=*/20, *oracle_));   // u = 8
  orders_.push_back(MakeOrder(1, 2, 6, /*bid=*/30, *oracle_));   // u = 18
  vehicles_.push_back(MakeVehicle(0, 1, /*capacity=*/1));
  const DispatchResult r = GreedyDispatch(Instance()).result;
  ASSERT_EQ(r.assignments.size(), 1u);
  EXPECT_EQ(r.assignments[0].order, 1);
}

TEST_F(GreedyTest, SharedRideSecondOrderGetsCheapInsertion) {
  orders_.push_back(MakeOrder(0, 1, 9, /*bid=*/30, *oracle_));
  orders_.push_back(MakeOrder(1, 2, 8, /*bid=*/25, *oracle_));
  vehicles_.push_back(MakeVehicle(0, 1));
  const DispatchResult r = GreedyDispatch(Instance()).result;
  ASSERT_EQ(r.assignments.size(), 2u);
  // First dispatch: order 0 (u = 30−24 = 6 > 25−18 = 7? No: order 1 has
  // u = 25 − 3·6 = 7, order 0 has u = 30 − 3·8 = 6, so order 1 goes first;
  // order 0 then inserts with ΔD = 2 km (extending 2..8 to 1..9).
  EXPECT_EQ(r.assignments[0].order, 1);
  EXPECT_EQ(r.assignments[1].order, 0);
  EXPECT_NEAR(r.assignments[1].cost.value(), 6.0, 1e-9);
  EXPECT_NEAR(r.total_utility.value(), 7.0 + 24.0, 1e-9);
}

TEST_F(GreedyTest, RespectsCapacityAcrossDispatches) {
  for (int j = 0; j < 4; ++j) {
    orders_.push_back(MakeOrder(j, 2 + j, 10 + j, /*bid=*/40, *oracle_, 4.0));
  }
  vehicles_.push_back(MakeVehicle(0, 2, /*capacity=*/2));
  const DispatchResult r = GreedyDispatch(Instance()).result;
  EXPECT_EQ(r.assignments.size(), 2u);
}

TEST_F(GreedyTest, UpdatedPlansAreConsistentWithAssignments) {
  orders_.push_back(MakeOrder(0, 1, 9, /*bid=*/30, *oracle_));
  orders_.push_back(MakeOrder(1, 2, 8, /*bid=*/25, *oracle_));
  vehicles_.push_back(MakeVehicle(0, 1));
  const DispatchResult r = GreedyDispatch(Instance()).result;
  ASSERT_EQ(r.updated_plans.size(), 1u);
  const auto& [veh_idx, plan] = r.updated_plans[0];
  EXPECT_EQ(veh_idx, 0u);
  EXPECT_EQ(plan.size(), 4u);
  TravelPlan tp{plan};
  EXPECT_TRUE(tp.PrecedenceHolds());
  EXPECT_TRUE(tp.ContainsOrder(0));
  EXPECT_TRUE(tp.ContainsOrder(1));
}

// Theorem III.1 sanity: greedy achieves at least the claimed approximation
// bound against the exhaustive optimum on random small instances.
class GreedyApproximationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyApproximationTest, WithinTheoremBound) {
  Rng rng(GetParam());
  GridNetworkOptions options;
  options.columns = 7;
  options.rows = 7;
  options.spacing_m = 600;
  options.seed = GetParam() + 100;
  RoadNetwork grid = BuildGridNetwork(options);
  DistanceOracle oracle(&grid);
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  const int m = 5;
  const int n = 2;
  for (int j = 0; j < m; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(rng.UniformInt(
          static_cast<uint64_t>(grid.num_nodes())));
      e = static_cast<NodeId>(rng.UniformInt(
          static_cast<uint64_t>(grid.num_nodes())));
    }
    orders.push_back(MakeOrder(j, s, e, rng.Uniform(15, 50), oracle, 2.5));
  }
  for (int i = 0; i < n; ++i) {
    vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(rng.UniformInt(
               static_cast<uint64_t>(grid.num_nodes()))),
        /*capacity=*/2));
  }
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;

  const DispatchResult greedy = GreedyDispatch(in).result;
  const OptimalResult opt = OptimalDispatch(in);
  // The optimum can never be below greedy...
  EXPECT_GE(opt.total_utility, greedy.total_utility - Money(1e-6));
  // ...and greedy is at least the max single-pair utility, which the
  // theorem's proof uses as its anchor (u0_max <= U_G).
  if (opt.total_utility > Money(0)) {
    EXPECT_GT(greedy.total_utility, Money(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyApproximationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Naive reference implementation of Algorithm 1: recomputes every pair
// utility from scratch each iteration (no pool, no heap, no pruning). The
// optimized dispatcher must produce the identical dispatch sequence.
DispatchResult NaiveGreedy(const AuctionInstance& in) {
  const std::vector<Order>& orders = *in.orders;
  std::vector<Vehicle> vehicles = *in.vehicles;
  const MoneyPerMeter alpha_per_m{in.config.alpha_d_per_km / 1000.0};
  std::vector<char> dispatched(orders.size(), 0);
  DispatchResult result;
  for (;;) {
    Money best_utility{-1e18};
    int best_order = -1;
    int best_vehicle = -1;
    InsertionResult best_insertion;
    for (std::size_t j = 0; j < orders.size(); ++j) {
      if (dispatched[j]) continue;
      for (std::size_t i = 0; i < vehicles.size(); ++i) {
        InsertionResult ins =
            BestInsertion(vehicles[i], orders[j], in.now_s, *in.oracle);
        if (!ins.feasible) continue;
        const Money u = orders[j].bid - alpha_per_m * ins.delta_delivery_m;
        // Tie-break identical to the optimized heap: utility desc, then
        // order index asc, then vehicle index asc.
        const bool better =
            u > best_utility ||
            (u == best_utility &&  // NOLINT-ARIDE(float-eq): mirrors heap tie-break exactly
             (static_cast<int>(j) < best_order ||
              (static_cast<int>(j) == best_order &&
               static_cast<int>(i) < best_vehicle)));
        if (better) {
          best_utility = u;
          best_order = static_cast<int>(j);
          best_vehicle = static_cast<int>(i);
          best_insertion = std::move(ins);
        }
      }
    }
    if (best_order < 0 || best_utility < in.config.min_utility) break;
    Vehicle& vehicle = vehicles[static_cast<std::size_t>(best_vehicle)];
    InsertStops(best_insertion, orders[static_cast<std::size_t>(best_order)],
                in.now_s, &vehicle.plan.stops);
    dispatched[static_cast<std::size_t>(best_order)] = 1;
    const Money cost = alpha_per_m * best_insertion.delta_delivery_m;
    result.assignments.push_back(
        {orders[static_cast<std::size_t>(best_order)].id, vehicle.id, cost,
         orders[static_cast<std::size_t>(best_order)].bid - cost});
    result.total_utility +=
        orders[static_cast<std::size_t>(best_order)].bid - cost;
  }
  return result;
}

class GreedyReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyReferenceTest, OptimizedMatchesNaiveSequence) {
  Rng rng(GetParam() * 13 + 5);
  GridNetworkOptions options;
  options.columns = 8;
  options.rows = 8;
  options.spacing_m = 500;
  options.seed = GetParam() + 200;
  RoadNetwork grid = BuildGridNetwork(options);
  DistanceOracle oracle(&grid);
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  const int m = 4 + static_cast<int>(rng.UniformInt(uint64_t{10}));
  const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  for (int j = 0; j < m; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
      e = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())));
    }
    orders.push_back(MakeOrder(j, s, e, rng.Uniform(5, 45), oracle, 2.0));
  }
  for (int i = 0; i < n; ++i) {
    vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(
               rng.UniformInt(static_cast<uint64_t>(grid.num_nodes())))));
  }
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;

  const DispatchResult fast = GreedyDispatch(in).result;
  const DispatchResult naive = NaiveGreedy(in);
  ASSERT_EQ(fast.assignments.size(), naive.assignments.size());
  for (std::size_t k = 0; k < fast.assignments.size(); ++k) {
    EXPECT_EQ(fast.assignments[k].order, naive.assignments[k].order)
        << "step " << k;
    EXPECT_EQ(fast.assignments[k].vehicle, naive.assignments[k].vehicle)
        << "step " << k;
      EXPECT_NEAR(fast.assignments[k].utility.value(),
                naive.assignments[k].utility.value(), 1e-9);
  }
  EXPECT_NEAR(fast.total_utility.value(), naive.total_utility.value(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyReferenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

// Skipping a slot of the round's seed table dispatches exactly what a fresh
// Greedy run without that order dispatches: the same steps with
// bit-identical costs and utilities, on the same vehicles.
TEST(GreedyDispatchLoopTest, SkippedSlotMatchesADispatchWithoutTheOrder) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const testutil::FuzzScenario sc = testutil::BuildFuzzScenario(seed);
    const AuctionInstance in = sc.Instance();
    const GreedyRunResult run = GreedyDispatch(in);
    for (std::size_t h = 0; h < sc.orders.size(); ++h) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " skip " << h);
      std::vector<Order> others = sc.orders;
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(h));
      AuctionInstance without = in;
      without.orders = &others;
      const DispatchResult want = GreedyDispatch(without).result;
      std::vector<int32_t> slots;
      const DispatchResult got =
          GreedyDispatchLoop(in, run.seeds, static_cast<int>(h), &slots);
      ASSERT_EQ(got.assignments.size(), want.assignments.size());
      ASSERT_EQ(slots.size(), got.assignments.size());
      for (std::size_t k = 0; k < got.assignments.size(); ++k) {
        const Assignment& g = got.assignments[k];
        const Assignment& w = want.assignments[k];
        EXPECT_EQ(g.order, w.order);
        EXPECT_EQ(g.vehicle, w.vehicle);
        EXPECT_EQ(std::bit_cast<uint64_t>(g.cost.value()),
                  std::bit_cast<uint64_t>(w.cost.value()));
        EXPECT_EQ(std::bit_cast<uint64_t>(g.utility.value()),
                  std::bit_cast<uint64_t>(w.utility.value()));
        EXPECT_EQ(sc.orders[static_cast<std::size_t>(slots[k])].id, g.order);
      }
      ASSERT_EQ(got.updated_plans.size(), want.updated_plans.size());
      for (std::size_t i = 0; i < got.updated_plans.size(); ++i) {
        EXPECT_EQ(got.updated_plans[i].first, want.updated_plans[i].first);
        EXPECT_EQ(got.updated_plans[i].second.size(),
                  want.updated_plans[i].second.size());
      }
    }
  }
}

// The loop's counters of a run with a skipped slot equal those of a fresh
// dispatch without that order: the skipped slot's own entries are popped
// uncounted, and no refresh re-evaluates or re-pushes it.
TEST(GreedyDispatchLoopTest, SkippedSlotCountsLikeADispatchWithoutTheOrder) {
  constexpr std::array<const char*, 4> kCounters = {
      "auction.greedy.heap_pops", "auction.greedy.stale_pops",
      "auction.dispatch.refresh_pairs", "auction.dispatch.seed_pairs"};
  // The four counters' growth over fn().
  const auto deltas = [&kCounters](const auto& fn) {
    const auto read = [&kCounters] {
      const std::map<std::string, int64_t> counters =
          obs::MetricRegistry::Global().Snapshot().counters;
      std::array<int64_t, kCounters.size()> values{};
      for (std::size_t c = 0; c < kCounters.size(); ++c) {
        const auto it = counters.find(kCounters[c]);
        values[c] = it == counters.end() ? 0 : it->second;
      }
      return values;
    };
    const auto before = read();
    fn();
    auto after = read();
    for (std::size_t c = 0; c < kCounters.size(); ++c) {
      after[c] -= before[c];
    }
    return after;
  };
  int64_t skipped_with_pairs = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const testutil::FuzzScenario sc = testutil::BuildFuzzScenario(seed);
    const AuctionInstance in = sc.Instance();
    const GreedyRunResult run = GreedyDispatch(in);
    for (std::size_t h = 0; h < sc.orders.size(); ++h) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " skip " << h);
      std::vector<Order> others = sc.orders;
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(h));
      AuctionInstance without = in;
      without.orders = &others;
      const auto want = deltas([&] { GreedyDispatch(without); });
      const auto got = deltas(
          [&] { GreedyDispatchLoop(in, run.seeds, static_cast<int>(h)); });
      for (std::size_t c = 0; c < kCounters.size(); ++c) {
        EXPECT_EQ(got[c], want[c]) << kCounters[c];
      }
      if (!run.seeds.pairs[h].empty()) ++skipped_with_pairs;
    }
  }
  // Skipped slots with entries in the heap are what the test is about.
  EXPECT_GT(skipped_with_pairs, 0);
}

}  // namespace
}  // namespace auctionride
