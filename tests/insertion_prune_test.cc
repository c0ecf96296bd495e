// Losslessness of the pruned/incremental insertion search.
//
// BestInsertion must be indistinguishable — bit for bit — from the
// brute-force reference (insertion_reference.h) on every plan a dispatcher
// can hand it: per order-vehicle pair of the fuzz scenarios (same
// feasibility, same ΔD, same plan, and never more oracle queries), on the
// chained plans Greedy's re-insertions and PlanPack's 3-order chains build,
// on deep committed plans, and on plans that do not walk at all. Plus the
// certificates the pruning rests on: the min-detour lower bound must be
// admissible, and the pruned.* counters must reconcile with the attempt
// counters on every exit path.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "auction/greedy.h"
#include "common/rng.h"
#include "insertion_reference.h"
#include "obs/metrics.h"
#include "planner/insertion.h"
#include "roadnet/dijkstra.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::BuildFuzzScenario;
using testutil::FuzzScenario;
using testutil::LatticeNetwork;
using testutil::MakeOrder;
using testutil::MakeVehicle;

void ExpectSameInsertion(const InsertionResult& pruned,
                         const InsertionResult& ref, std::string_view what) {
  ASSERT_EQ(pruned.feasible, ref.feasible) << what;
  if (!pruned.feasible) return;
  // Bit-identical, not approximately equal: EXPECT_EQ on the typed meters
  // is the raw IEEE comparison.
  EXPECT_EQ(pruned.delta_delivery_m, ref.delta_delivery_m) << what;
  ASSERT_EQ(pruned.new_plan.size(), ref.new_plan.size()) << what;
  for (std::size_t s = 0; s < pruned.new_plan.size(); ++s) {
    EXPECT_EQ(pruned.new_plan[s].node, ref.new_plan[s].node) << what;
    EXPECT_EQ(pruned.new_plan[s].order, ref.new_plan[s].order) << what;
    EXPECT_EQ(pruned.new_plan[s].type, ref.new_plan[s].type) << what;
    EXPECT_EQ(pruned.new_plan[s].deadline_s, ref.new_plan[s].deadline_s)
        << what;
  }
}

class InsertionPruneProperty : public ::testing::TestWithParam<uint64_t> {};

// Every order-vehicle pair of every fuzz scenario: the pruned search and
// the reference search agree bitwise, and the pruned search never issues
// more oracle queries than the reference (strictly fewer over a scenario).
TEST_P(InsertionPruneProperty, PrunedMatchesReferencePerPair) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  int64_t pruned_total = 0;
  int64_t reference_total = 0;
  for (const Vehicle& v : sc.vehicles) {
    for (const Order& o : sc.orders) {
      int64_t before = DistanceOracle::ThreadQueryCount();
      const InsertionResult ref =
          BestInsertionReference(v, o, sc.now_s, *sc.oracle);
      const int64_t reference_queries =
          DistanceOracle::ThreadQueryCount() - before;
      before = DistanceOracle::ThreadQueryCount();
      ExpectSameInsertion(BestInsertion(v, o, sc.now_s, *sc.oracle), ref,
                          "per pair");
      const int64_t pruned_queries =
          DistanceOracle::ThreadQueryCount() - before;
      EXPECT_LE(pruned_queries, reference_queries)
          << "vehicle " << v.id << " order " << o.id;
      pruned_total += pruned_queries;
      reference_total += reference_queries;
    }
  }
  EXPECT_LT(pruned_total, reference_total);
}

// The geometric certificate: the lower bound never exceeds the road
// distance, on any sampled pair of any fuzz network.
TEST_P(InsertionPruneProperty, LowerBoundIsAdmissible) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  Rng rng(GetParam() * 977 + 5);
  const auto num_nodes = static_cast<uint64_t>(sc.net.num_nodes());
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(num_nodes));
    EXPECT_LE(sc.oracle->LowerBoundDistance(s, t), sc.oracle->Distance(s, t))
        << "seed=" << GetParam() << " s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InsertionPruneProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{30}));

// Multi-order plans: apply the reference's best insertion of one order,
// then of a second, and compare the two searches on every further order at
// each depth. These are the plans Greedy's re-insertions and PlanPack's
// 3-order chains pass to BestInsertion. One test sweeps all fuzz seeds so
// it can require that chains of every depth occur somewhere.
TEST(InsertionPruneChainTest, PrunedMatchesReferenceOnChainedPlans) {
  int depth3_compared = 0;
  for (uint64_t seed = 1; seed < 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzScenario sc = BuildFuzzScenario(seed);
    const auto compare = [&sc](const Vehicle& v, const Order& o,
                               std::string_view what) {
      const InsertionResult ref =
          BestInsertionReference(v, o, sc.now_s, *sc.oracle);
      ExpectSameInsertion(BestInsertion(v, o, sc.now_s, *sc.oracle), ref,
                          what);
      return ref;
    };
    for (const Vehicle& v : sc.vehicles) {
      for (const Order& first : sc.orders) {
        const InsertionResult one = compare(v, first, "depth 1");
        if (!one.feasible) continue;
        Vehicle v1 = v;
        v1.plan.stops = one.new_plan;
        for (const Order& second : sc.orders) {
          if (second.id == first.id) continue;
          const InsertionResult two = compare(v1, second, "depth 2");
          if (!two.feasible) continue;
          Vehicle v2 = v1;
          v2.plan.stops = two.new_plan;
          for (const Order& third : sc.orders) {
            if (third.id == first.id || third.id == second.id) continue;
            compare(v2, third, "depth 3");
            ++depth3_compared;
          }
        }
      }
    }
  }
  // Two-order plans must actually occur or the test proves nothing beyond
  // the per-pair one.
  EXPECT_GT(depth3_compared, 0);
}

// Deep committed plans (6 stops) with mixed tight/loose deadlines exercise
// the row-break, capacity-prune, and window-prune paths far harder than the
// fuzz scenarios' short plans; sweep pickups across the whole lattice with
// tight through generous patience factors.
TEST(InsertionPruneDeepPlanTest, MatchesReferenceOnDeepPlans) {
  const RoadNetwork net = LatticeNetwork(8, 8, 500);
  const DistanceOracle oracle(&net);
  const Seconds now{100};

  Vehicle v = MakeVehicle(0, /*node=*/9, /*capacity=*/4);
  v.onboard = 1;
  v.in_delivery = true;
  v.extra_distance_m = Meters(120);
  // Onboard rider headed for node 27 on a snug deadline; two more committed
  // orders, one snug and one loose.
  auto deadline = [&](NodeId from, NodeId to, double slack_factor) {
    return now + Seconds(oracle.Distance(from, to) /
                         oracle.speed_mps().value() * slack_factor) +
           Seconds(600);
  };
  v.plan.stops.push_back(
      {27, testutil::kCommittedBase + 0, StopType::kDropoff,
       deadline(9, 27, 1.6)});
  v.plan.stops.push_back(
      {12, testutil::kCommittedBase + 1, StopType::kPickup, Seconds(0)});
  v.plan.stops.push_back(
      {44, testutil::kCommittedBase + 1, StopType::kDropoff,
       deadline(12, 44, 1.4)});
  v.plan.stops.push_back(
      {50, testutil::kCommittedBase + 2, StopType::kPickup, Seconds(0)});
  v.plan.stops.push_back(
      {63, testutil::kCommittedBase + 2, StopType::kDropoff,
       deadline(50, 63, 3.0)});

  int feasible_seen = 0;
  for (NodeId origin = 0; origin < net.num_nodes(); origin += 5) {
    for (NodeId dest : {NodeId{7}, NodeId{31}, NodeId{56}, NodeId{63}}) {
      if (dest == origin) continue;
      for (double gamma : {1.05, 1.4, 2.5}) {
        const Order o = MakeOrder(500 + origin, origin, dest, 25.0, oracle,
                                  gamma);
        const InsertionResult ref =
            BestInsertionReference(v, o, now, oracle);
        const InsertionResult pruned = BestInsertion(v, o, now, oracle);
        ExpectSameInsertion(pruned, ref, "deep plan");
        if (ref.feasible) ++feasible_seen;
      }
    }
  }
  // The sweep must exercise both outcomes or it proves nothing.
  EXPECT_GT(feasible_seen, 0);
}

// Counter reconciliation on every exit path of BestInsertion.
TEST(InsertionPruneCountersTest, CapacityRejectedCountsSeparately) {
  const RoadNetwork net = LatticeNetwork(4, 4, 500);
  const DistanceOracle oracle(&net);
  obs::MetricRegistry::Global().ResetAll();

  Vehicle full = MakeVehicle(0, 0, /*capacity=*/1);
  full.onboard = 1;
  full.in_delivery = true;
  full.plan.stops.push_back({5, testutil::kCommittedBase, StopType::kDropoff,
                             Seconds(1e9)});
  const Order o = MakeOrder(1, 2, 10, 20.0, oracle);
  EXPECT_FALSE(BestInsertion(full, o, Seconds(0), oracle).feasible);

  const auto counters = obs::MetricRegistry::Global().Snapshot().counters;
  const auto at = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(at("planner.insertion.calls"), 1);
  EXPECT_EQ(at("planner.insertion.capacity_rejected"), 1);
  // The early return attempted no candidate: the feasibility-rate
  // numerator and denominator both stay untouched.
  EXPECT_EQ(at("planner.insertion.attempts"), 0);
  EXPECT_EQ(at("planner.insertion.infeasible"), 0);
}

TEST(InsertionPruneCountersTest, WindowPrunePaysZeroQueries) {
  const RoadNetwork net = LatticeNetwork(8, 8, 1000);
  const DistanceOracle oracle(&net);
  obs::MetricRegistry::Global().ResetAll();

  // Idle vehicle in one corner, order in the far corner with patience far
  // smaller than the approach time: even the geometric best case misses
  // the deadline, so the call must end without any shortest-path query.
  const Vehicle v = MakeVehicle(0, 0);
  Order o = MakeOrder(1, 63, 56, 20.0, oracle);
  o.max_wasted_time_s = Seconds(1.0);

  const int64_t queries_before = oracle.num_queries();
  EXPECT_FALSE(BestInsertion(v, o, Seconds(0), oracle).feasible);
  EXPECT_EQ(oracle.num_queries(), queries_before);

  const auto counters = obs::MetricRegistry::Global().Snapshot().counters;
  const auto at = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(at("planner.insertion.attempts"), 1);
  EXPECT_EQ(at("planner.insertion.infeasible"), 1);
  EXPECT_EQ(at("planner.insertion.pruned.window"), 1);
  EXPECT_EQ(at("planner.insertion.pruned.candidates"), 1);
}

// A committed plan that does not walk makes every candidate infeasible:
// each one keeps the committed stops in order, so it meets the same
// unreachable leg or the same missed deadline. The search must say so
// without finding anything the reference would not, and count every
// candidate as attempted and infeasible.
class UnwalkablePlanTest : public ::testing::Test {
 protected:
  void ExpectAllInfeasible(const Vehicle& v, const Order& o) {
    const std::size_t n = v.plan.stops.size();
    const auto total_pairs = static_cast<int64_t>((n + 1) * (n + 2) / 2);
    obs::MetricRegistry::Global().ResetAll();
    const InsertionResult pruned = BestInsertion(v, o, now_, oracle_);
    ExpectSameInsertion(pruned, BestInsertionReference(v, o, now_, oracle_),
                        "unwalkable plan");
    EXPECT_FALSE(pruned.feasible);
    const auto counters = obs::MetricRegistry::Global().Snapshot().counters;
    const auto at = [&counters](const std::string& name) {
      const auto it = counters.find(name);
      return it == counters.end() ? int64_t{0} : it->second;
    };
    EXPECT_EQ(at("planner.insertion.attempts"), total_pairs);
    EXPECT_EQ(at("planner.insertion.infeasible"), total_pairs);
  }

  const RoadNetwork net_ = testutil::TwoComponentNetwork();
  const DistanceOracle oracle_{&net_};
  const Seconds now_{100};
};

TEST_F(UnwalkablePlanTest, UnreachableCommittedLeg) {
  // In component B, committed to a drop-off in component A, which B cannot
  // reach; the new order itself stays inside B.
  Vehicle v = MakeVehicle(0, /*node=*/3);
  v.plan.stops.push_back(
      {4, testutil::kCommittedBase, StopType::kPickup, Seconds(0)});
  v.plan.stops.push_back(
      {1, testutil::kCommittedBase, StopType::kDropoff, Seconds(1e9)});
  ASSERT_EQ(DijkstraSearch(&net_).ShortestDistance(4, 1), kInfDistance);
  ExpectAllInfeasible(v, MakeOrder(1, 3, 4, 20.0, oracle_, 5.0));
}

TEST_F(UnwalkablePlanTest, CommittedDeadlineAlreadyPassed) {
  // An onboard rider whose drop-off deadline lies before the round time.
  Vehicle v = MakeVehicle(0, /*node=*/0);
  v.onboard = 1;
  v.in_delivery = true;
  v.plan.stops.push_back(
      {2, testutil::kCommittedBase, StopType::kDropoff, now_ - Seconds(50)});
  ExpectAllInfeasible(v, MakeOrder(1, 1, 2, 20.0, oracle_, 5.0));
}

// Across a full dispatch sweep the pruned.* taxonomy must reconcile:
// candidates = window + capacity + deadline, and no counter can exceed the
// infeasible attempts it is a subset of.
TEST(InsertionPruneCountersTest, TaxonomyReconcilesAcrossDispatch) {
  obs::MetricRegistry::Global().ResetAll();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzScenario sc = BuildFuzzScenario(seed);
    (void)GreedyDispatch(sc.Instance());
  }
  const auto counters = obs::MetricRegistry::Global().Snapshot().counters;
  const auto at = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(at("planner.insertion.pruned.candidates"),
            at("planner.insertion.pruned.window") +
                at("planner.insertion.pruned.capacity") +
                at("planner.insertion.pruned.deadline"));
  EXPECT_LE(at("planner.insertion.pruned.candidates"),
            at("planner.insertion.infeasible"));
  EXPECT_LE(at("planner.insertion.infeasible"),
            at("planner.insertion.attempts"));
  // The sweep has to actually prune something for this test to bite.
  EXPECT_GT(at("planner.insertion.pruned.candidates"), 0);
}

}  // namespace
}  // namespace auctionride
