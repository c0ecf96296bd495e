// Property tests of the auction guarantees (paper Definitions 11-13 and
// Theorems III.2 / IV.2): individual rationality, critical payments,
// monotonicity, and truthfulness for both GPri (Greedy) and DnW (Rank).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "auction/dnw.h"
#include "auction/gpri.h"
#include "auction/greedy.h"
#include "auction/rank.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "gpri_reference.h"
#include "roadnet/builder.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

constexpr double kEps = 1e-4;  // bid perturbation margin for tie avoidance

struct RandomScenario {
  RoadNetwork net;
  std::unique_ptr<DistanceOracle> oracle;
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;

  AuctionInstance Instance() const {
    AuctionInstance in;
    in.orders = &orders;
    in.vehicles = &vehicles;
    in.now_s = Seconds(0);
    in.oracle = oracle.get();
    in.config.alpha_d_per_km = 3.0;
    return in;
  }
};

RandomScenario MakeScenario(uint64_t seed, int m, int n) {
  RandomScenario sc;
  GridNetworkOptions options;
  options.columns = 9;
  options.rows = 9;
  options.spacing_m = 500;
  options.seed = seed + 1000;
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
        MakeOrder(j, s, e, rng.Uniform(5, 45), *sc.oracle, 2.0));
  }
  for (int i = 0; i < n; ++i) {
    sc.vehicles.push_back(MakeVehicle(
        i, static_cast<NodeId>(
               rng.UniformInt(static_cast<uint64_t>(sc.net.num_nodes())))));
  }
  return sc;
}

// Re-runs the mechanism with order `h`'s bid replaced and reports whether h
// is dispatched (and at which payment if requested).
bool DispatchedWithBid(const RandomScenario& sc, OrderId h, double bid,
                       bool use_rank) {
  std::vector<Order> orders = sc.orders;
  for (Order& o : orders) {
    if (o.id == h) o.bid = Money(bid);
  }
  AuctionInstance in = sc.Instance();
  in.orders = &orders;
  if (use_rank) {
    return RankDispatch(in).result.IsDispatched(h);
  }
  return GreedyDispatch(in).result.IsDispatched(h);
}

double PaymentWithBid(const RandomScenario& sc, OrderId h, double bid,
                      bool use_rank) {
  std::vector<Order> orders = sc.orders;
  for (Order& o : orders) {
    if (o.id == h) o.bid = Money(bid);
  }
  AuctionInstance in = sc.Instance();
  in.orders = &orders;
  if (use_rank) {
    const RankRunResult run = RankDispatch(in);
    if (!run.result.IsDispatched(h)) return -1;
    return DnWPriceOrder(in, run.artifacts, h).value();
  }
  const GreedyRunResult run = GreedyDispatch(in);
  if (!run.result.IsDispatched(h)) return -1;
  return GPriPriceOrder(in, run.seeds, h).value();
}

class PricingPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(PricingPropertyTest, IndividualRationalityAndCriticalPayment) {
  const auto [seed, use_rank] = GetParam();
  const RandomScenario sc = MakeScenario(seed, /*m=*/8, /*n=*/3);
  const AuctionInstance in = sc.Instance();

  DispatchResult dispatch;
  RankArtifacts artifacts;
  GreedySeedTable seeds;
  if (use_rank) {
    RankRunResult run = RankDispatch(in);
    dispatch = std::move(run.result);
    artifacts = std::move(run.artifacts);
  } else {
    GreedyRunResult run = GreedyDispatch(in);
    dispatch = std::move(run.result);
    seeds = std::move(run.seeds);
  }

  for (const Assignment& a : dispatch.assignments) {
    const Order& order = sc.orders[static_cast<std::size_t>(a.order)];
    const double pay = use_rank
                           ? DnWPriceOrder(in, artifacts, a.order).value()
                           : GPriPriceOrder(in, seeds, a.order).value();

    // Individual rationality (Definition 12): pay <= bid = val.
    EXPECT_LE(pay, order.bid.value() + 1e-9)
        << "order " << a.order << " seed " << seed << " rank " << use_rank;
    EXPECT_GE(pay, -1e-9);

    // Critical payment: bidding just above pay still wins...
    EXPECT_TRUE(DispatchedWithBid(sc, a.order, pay + kEps, use_rank))
        << "order " << a.order << " pay " << pay << " seed " << seed
        << " rank " << use_rank;
    // ...and bidding just below pay loses.
    if (pay > kEps) {
      EXPECT_FALSE(DispatchedWithBid(sc, a.order, pay - kEps, use_rank))
          << "order " << a.order << " pay " << pay << " seed " << seed
          << " rank " << use_rank;
    }
  }
}

TEST_P(PricingPropertyTest, Monotonicity) {
  const auto [seed, use_rank] = GetParam();
  const RandomScenario sc = MakeScenario(seed, /*m=*/8, /*n=*/3);
  const AuctionInstance in = sc.Instance();

  DispatchResult dispatch;
  if (use_rank) {
    dispatch = RankDispatch(in).result;
  } else {
    dispatch = GreedyDispatch(in).result;
  }
  for (const Assignment& a : dispatch.assignments) {
    const Order& order = sc.orders[static_cast<std::size_t>(a.order)];
    // A winner keeps winning with any higher bid (Definition 11 companion).
    for (double boost : {1.0, 5.0, 25.0}) {
      EXPECT_TRUE(
          DispatchedWithBid(sc, a.order, order.bid.value() + boost, use_rank))
          << "order " << a.order << " boost " << boost << " seed " << seed
          << " rank " << use_rank;
    }
  }
}

TEST_P(PricingPropertyTest, PaymentIndependentOfWinningBid) {
  const auto [seed, use_rank] = GetParam();
  const RandomScenario sc = MakeScenario(seed, /*m=*/8, /*n=*/3);
  const AuctionInstance in = sc.Instance();

  DispatchResult dispatch;
  RankArtifacts artifacts;
  GreedySeedTable seeds;
  if (use_rank) {
    RankRunResult run = RankDispatch(in);
    dispatch = std::move(run.result);
    artifacts = std::move(run.artifacts);
  } else {
    GreedyRunResult run = GreedyDispatch(in);
    dispatch = std::move(run.result);
    seeds = std::move(run.seeds);
  }
  for (const Assignment& a : dispatch.assignments) {
    const Order& order = sc.orders[static_cast<std::size_t>(a.order)];
    const double pay = use_rank
                           ? DnWPriceOrder(in, artifacts, a.order).value()
                           : GPriPriceOrder(in, seeds, a.order).value();
    // Raising the bid must not change the payment (second-price flavor).
    const double pay_boosted =
        PaymentWithBid(sc, a.order, order.bid.value() + 10.0, use_rank);
    ASSERT_GE(pay_boosted, 0) << "boosted bid lost? order " << a.order;
    EXPECT_NEAR(pay_boosted, pay, 1e-6)
        << "order " << a.order << " seed " << seed << " rank " << use_rank;
  }
}

TEST_P(PricingPropertyTest, TruthfulBiddingIsOptimal) {
  const auto [seed, use_rank] = GetParam();
  const RandomScenario sc = MakeScenario(seed, /*m=*/6, /*n=*/2);
  const AuctionInstance in = sc.Instance();

  DispatchResult dispatch;
  RankArtifacts artifacts;
  if (use_rank) {
    RankRunResult run = RankDispatch(in);
    dispatch = std::move(run.result);
    artifacts = std::move(run.artifacts);
  } else {
    dispatch = GreedyDispatch(in).result;
  }

  // Check a handful of requesters (dispatched or not): utility from any
  // misreport never beats truthful utility.
  for (std::size_t j = 0; j < sc.orders.size(); ++j) {
    const Order& order = sc.orders[j];
    const double truthful_pay =
        PaymentWithBid(sc, order.id, order.valuation.value(), use_rank);
    const double truthful_utility =
        truthful_pay < 0 ? 0.0 : order.valuation.value() - truthful_pay;
    EXPECT_GE(truthful_utility, -1e-6);

    for (double factor : {0.4, 0.8, 1.3, 2.0}) {
      const double lie = order.valuation.value() * factor;
      const double lie_pay = PaymentWithBid(sc, order.id, lie, use_rank);
      const double lie_utility =
          lie_pay < 0 ? 0.0 : order.valuation.value() - lie_pay;
      EXPECT_LE(lie_utility, truthful_utility + 1e-6)
          << "order " << order.id << " factor " << factor << " seed " << seed
          << " rank " << use_rank;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PricingPropertyTest,
    ::testing::Combine(::testing::Range(uint64_t{1}, uint64_t{9}),
                       ::testing::Bool()));

// GPri prices from the dispatch's own seed table bit for bit like the full
// re-run of Greedy on R \ {r_h} (tests/gpri_reference.h), serial and
// pooled: on the property tests' scenario and on a more contended one.
class GPriReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GPriReferenceTest, MatchesFullRerunReference) {
  ThreadPool pool(3);
  for (const auto& [m, n] : {std::pair{8, 3}, std::pair{30, 6}}) {
    const RandomScenario sc = MakeScenario(GetParam(), m, n);
    const AuctionInstance in = sc.Instance();
    const GreedyRunResult run = GreedyDispatch(in);
    const std::vector<Payment> reference =
        gpri_reference::ReferenceGPriPriceAll(in, run.result);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << GetParam() << " m " << m << " pool "
                   << (p != nullptr));
      testutil::ExpectBitIdenticalPayments(
          GPriPriceAll(in, run.seeds, run.result, p), reference);
    }
    for (const Payment& want : reference) {
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    GPriPriceOrder(in, run.seeds, want.order).value()),
                std::bit_cast<uint64_t>(want.payment.value()))
          << "order " << want.order;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GPriReferenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// Deterministic corridor scenario with a known critical payment.
TEST(GPriTest, SecondPriceOnSingleSeatContention) {
  RoadNetwork net = testutil::LineNetwork(12, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {
      MakeOrder(0, 2, 6, /*bid=*/30, oracle),  // cost 12, u = 18
      MakeOrder(1, 2, 6, /*bid=*/20, oracle),  // cost 12, u = 8
  };
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2, /*capacity=*/1)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const GreedyRunResult r = GreedyDispatch(in);
  ASSERT_TRUE(r.result.IsDispatched(0));
  ASSERT_FALSE(r.result.IsDispatched(1));
  // Order 0 replaces order 1: critical bid = bid_1 − cost_1 + cost_0 = 20.
  EXPECT_NEAR(GPriPriceOrder(in, r.seeds, 0).value(), 20.0, 1e-9);
}

TEST(GPriTest, UncontestedWinnerPaysCost) {
  RoadNetwork net = testutil::LineNetwork(12, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 2, 6, /*bid=*/30, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const GreedyRunResult r = GreedyDispatch(in);
  ASSERT_TRUE(r.result.IsDispatched(0));
  // No competition: pay = dispatch cost = 3 yuan/km * 4 km.
  EXPECT_NEAR(GPriPriceOrder(in, r.seeds, 0).value(), 12.0, 1e-9);
}

// GPri runs Greedy's dispatch loop without the priced order r_h and replays
// that run's steps to read r_h's cheapest cost before each one
// (h_cost_before) and after the last (h_cost_end).
TEST(GPriTest, ReplaysTheRunWithoutThePricedOrder) {
  RoadNetwork net = testutil::LineNetwork(20, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {
      MakeOrder(0, 2, 6, /*bid=*/20, oracle),  // solo cost 12, u = 8
      MakeOrder(1, 3, 7, /*bid=*/22, oracle),  // solo cost 12, u = 10
  };
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 1)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  in.config.alpha_d_per_km = 3.0;
  const GreedyRunResult two_seats = GreedyDispatch(in);
  ASSERT_TRUE(two_seats.result.IsDispatched(0));
  ASSERT_TRUE(two_seats.result.IsDispatched(1));
  // Without r_0, order 1 dispatches while the vehicle is empty, so r_0's
  // h_cost_before is its solo cost 12 and replacing order 1 takes
  // 22 − 12 + 12 = 22. Riding along afterwards costs one extra km
  // (h_cost_end = 3), which is the payment. Pricing r_1 is symmetric.
  EXPECT_NEAR(GPriPriceOrder(in, two_seats.seeds, 0).value(), 3.0, 1e-9);
  EXPECT_NEAR(GPriPriceOrder(in, two_seats.seeds, 1).value(), 3.0, 1e-9);

  // With one seat, r_1 cannot ride along with order 0 (h_cost_end is
  // infinite) and order 0 loses to it. The payment is the replacement bid
  // 20 − 12 + h_cost_before, with r_1's 12-yuan h_cost_before.
  vehicles[0].capacity = 1;
  const GreedyRunResult one_seat = GreedyDispatch(in);
  ASSERT_FALSE(one_seat.result.IsDispatched(0));
  ASSERT_TRUE(one_seat.result.IsDispatched(1));
  EXPECT_NEAR(GPriPriceOrder(in, one_seat.seeds, 1).value(), 20.0, 1e-9);
}

TEST(DnWTest, UncontestedWinnerPaysCost) {
  RoadNetwork net = testutil::LineNetwork(12, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {MakeOrder(0, 2, 6, /*bid=*/30, oracle)};
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const RankRunResult run = RankDispatch(in);
  ASSERT_TRUE(run.result.IsDispatched(0));
  // Sole bidder: critical bid is where pack utility crosses 0, i.e. cost.
  EXPECT_NEAR(DnWPriceOrder(in, run.artifacts, 0).value(), 12.0, 1e-9);
}

// r_h is a member of several requesters' best packs (|S_h| > 1): DnW's
// interval walk must consider every pack and return the cheapest way in.
TEST(DnWTest, MultiplePacksContainingPricedRequester) {
  RoadNetwork net = testutil::LineNetwork(20, 1000);
  DistanceOracle oracle(&net);
  // r_0 shares a corridor with r_1 and r_2, who both want to pack with it;
  // two vehicles so two packs can be dispatched.
  std::vector<Order> orders = {
      MakeOrder(0, 4, 12, /*bid=*/20, oracle, 2.5),
      MakeOrder(1, 5, 11, /*bid=*/18, oracle, 2.5),
      MakeOrder(2, 5, 13, /*bid=*/18, oracle, 2.5),
  };
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 4), MakeVehicle(1, 5)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const RankRunResult run = RankDispatch(in);
  ASSERT_TRUE(run.result.IsDispatched(0));

  // S_0 should contain more than one pack (r_0's own best pack and at least
  // one co-requester's best pack).
  int sh_size = 0;
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (run.artifacts.best[j] < 0) continue;
    if (run.artifacts
            .candidates[j][static_cast<std::size_t>(run.artifacts.best[j])]
            .Contains(0)) {
      ++sh_size;
    }
  }
  EXPECT_GE(sh_size, 2);

  const double pay = DnWPriceOrder(in, run.artifacts, 0).value();
  EXPECT_GE(pay, 0);
  EXPECT_LE(pay, orders[0].bid.value() + 1e-9);
  // Exactness at the returned value.
  std::vector<Order> probe = orders;
  probe[0].bid = Money(pay + kEps);
  AuctionInstance probe_in = in;
  probe_in.orders = &probe;
  EXPECT_TRUE(RankDispatch(probe_in).result.IsDispatched(0));
  if (pay > kEps) {
    probe[0].bid = Money(pay - kEps);
    EXPECT_FALSE(RankDispatch(probe_in).result.IsDispatched(0));
  }
}

// Larger randomized sweep with a small K to force pack-universe overlaps;
// checks the exact critical-payment property end to end.
class DnWStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DnWStressTest, CriticalPaymentsExactUnderTightPackUniverse) {
  RandomScenario sc = MakeScenario(GetParam() + 500, /*m=*/12, /*n=*/4);
  AuctionInstance in = sc.Instance();
  in.config.pack_candidate_limit = 3;  // heavy pack overlap
  const RankRunResult run = RankDispatch(in);
  for (const Assignment& a : run.result.assignments) {
    const double pay = DnWPriceOrder(in, run.artifacts, a.order).value();
    const Order& order = sc.orders[static_cast<std::size_t>(a.order)];
    ASSERT_LE(pay, order.bid.value() + 1e-9);
    std::vector<Order> probe = sc.orders;
    AuctionInstance probe_in = in;
    probe_in.orders = &probe;
    probe[static_cast<std::size_t>(a.order)].bid = Money(pay + kEps);
    EXPECT_TRUE(RankDispatch(probe_in).result.IsDispatched(a.order))
        << "order " << a.order << " pay " << pay << " seed " << GetParam();
    if (pay > kEps) {
      probe[static_cast<std::size_t>(a.order)].bid = Money(pay - kEps);
      EXPECT_FALSE(RankDispatch(probe_in).result.IsDispatched(a.order))
          << "order " << a.order << " pay " << pay << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnWStressTest,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

TEST(DnWTest, VehicleContentionYieldsReplacementPrice) {
  RoadNetwork net = testutil::LineNetwork(16, 1000);
  DistanceOracle oracle(&net);
  // Two distant requesters (cannot share), one vehicle with one seat.
  std::vector<Order> orders = {
      MakeOrder(0, 2, 6, /*bid=*/30, oracle),    // cost 12, u = 18
      MakeOrder(1, 3, 7, /*bid=*/25, oracle),    // cost 12, u = 13
  };
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2, /*capacity=*/1)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const RankRunResult run = RankDispatch(in);
  ASSERT_TRUE(run.result.IsDispatched(0));
  ASSERT_FALSE(run.result.IsDispatched(1));
  // To beat order 1's pack (utility 13), order 0 needs utility >= 13:
  // bid = 13 + 12 = 25.
  EXPECT_NEAR(DnWPriceOrder(in, run.artifacts, 0).value(), 25.0, 1e-9);
}

}  // namespace
}  // namespace auctionride
