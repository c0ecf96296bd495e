// Shared helpers for the test suites: tiny deterministic road networks,
// scenario builders, and run-result comparison.

#ifndef AUCTIONRIDE_TESTS_TESTUTIL_H_
#define AUCTIONRIDE_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "auction/types.h"
#include "common/rng.h"
#include "engine/result.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "roadnet/builder.h"
#include "roadnet/graph.h"
#include "roadnet/oracle.h"

namespace auctionride {
namespace testutil {

/// A straight line of `n` nodes spaced `spacing_m` apart (bidirectional).
/// Node i sits at x = i * spacing_m.
inline RoadNetwork LineNetwork(int n, double spacing_m = 1000) {
  RoadNetwork net;
  for (int i = 0; i < n; ++i) {
    net.AddNode({i * spacing_m, 0});
  }
  for (int i = 0; i + 1 < n; ++i) {
    net.AddBidirectionalEdge(i, i + 1, spacing_m);
  }
  net.Build();
  return net;
}

/// A cols x rows lattice with unit edge length `spacing_m`, no jitter or
/// removals — distances are exactly Manhattan * spacing_m.
inline RoadNetwork LatticeNetwork(int cols, int rows,
                                  double spacing_m = 1000) {
  RoadNetwork net;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      net.AddNode({c * spacing_m, r * spacing_m});
    }
  }
  auto id = [cols](int c, int r) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        net.AddBidirectionalEdge(id(c, r), id(c + 1, r), spacing_m);
      }
      if (r + 1 < rows) {
        net.AddBidirectionalEdge(id(c, r), id(c, r + 1), spacing_m);
      }
    }
  }
  net.Build();
  return net;
}

/// A network that is not strongly connected: component A (nodes 0-1-2, a
/// bidirectional line) reaches component B (nodes 3-4, bidirectional) only
/// over the one-way arc 2 -> 3, and node 5 has no arcs at all. Edges are
/// 1000 m and straight, so the min-detour ratio is 1.
inline RoadNetwork TwoComponentNetwork() {
  RoadNetwork net;
  for (int i = 0; i < 6; ++i) net.AddNode({i * 1000.0, 0});
  net.AddBidirectionalEdge(0, 1, 1000);
  net.AddBidirectionalEdge(1, 2, 1000);
  net.AddEdge(2, 3, 1000);
  net.AddBidirectionalEdge(3, 4, 1000);
  net.Build();
  return net;
}

/// Order factory: θ defaults generous so feasibility is driven by the test.
inline Order MakeOrder(OrderId id, NodeId origin, NodeId destination,
                       double bid, const DistanceOracle& oracle,
                       double gamma = 2.0) {
  Order o;
  o.id = id;
  o.origin = origin;
  o.destination = destination;
  o.shortest_distance_m = Meters(oracle.Distance(origin, destination));
  o.shortest_time_s = o.shortest_distance_m / oracle.speed_mps();
  o.max_wasted_time_s = (gamma - 1.0) * o.shortest_time_s;
  o.valuation = Money(bid);
  o.bid = Money(bid);
  return o;
}

/// Idle vehicle at `node`.
inline Vehicle MakeVehicle(VehicleId id, NodeId node, int capacity = 3) {
  Vehicle v;
  v.id = id;
  v.next_node = node;
  v.capacity = capacity;
  return v;
}

/// A perturbed grid-network auction round: mixed bids, vehicles with
/// pre-existing commitments and onboard riders, varying α_d, dispatch
/// threshold and charge ratio. Shared by the invariant fuzz suite and the
/// dispatch determinism suite so both sweep the same instance family.
struct FuzzScenario {
  RoadNetwork net;
  std::unique_ptr<DistanceOracle> oracle;
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  Seconds now_s;
  AuctionConfig config;

  AuctionInstance Instance() const {
    AuctionInstance in;
    in.orders = &orders;
    in.vehicles = &vehicles;
    in.now_s = now_s;
    in.oracle = oracle.get();
    in.config = config;
    return in;
  }
};

/// Ids >= 1000 mark pre-existing commitments that are not part of the round.
inline constexpr OrderId kCommittedBase = 1000;

inline FuzzScenario BuildFuzzScenario(uint64_t seed) {
  FuzzScenario sc;
  Rng rng(seed);

  GridNetworkOptions net_options;
  net_options.columns = 7 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  net_options.rows = 7 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  net_options.spacing_m = 400 + 100 * static_cast<double>(
                                          rng.UniformInt(uint64_t{4}));
  net_options.seed = seed * 31 + 7;
  sc.net = BuildGridNetwork(net_options);
  sc.oracle = std::make_unique<DistanceOracle>(&sc.net);
  const auto num_nodes = static_cast<uint64_t>(sc.net.num_nodes());
  auto random_node = [&] {
    return static_cast<NodeId>(rng.UniformInt(num_nodes));
  };

  sc.now_s = Seconds(rng.Uniform(0, 600));
  sc.config.alpha_d_per_km = rng.Uniform(2.0, 4.0);
  sc.config.beta_d_per_km = sc.config.alpha_d_per_km;
  sc.config.min_utility =
      Money(rng.Uniform() < 0.3 ? rng.Uniform(0.5, 3.0) : 0.0);
  sc.config.charge_ratio = rng.Uniform() < 0.3 ? rng.Uniform(0.05, 0.3) : 0.0;
  // These draws once chose a nearest-vehicle mode and a spatial-pruning
  // switch that no longer exist; they are kept and discarded so every later
  // parameter draws the same values.
  static_cast<void>(rng.Uniform());
  static_cast<void>(rng.Uniform());

  const int m = 6 + static_cast<int>(rng.UniformInt(uint64_t{10}));
  for (int j = 0; j < m; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = random_node();
      e = random_node();
    }
    // Bids span marginal to generous; γ spans tight to loose deadlines.
    const double bid = rng.Uniform() < 0.2 ? rng.Uniform(0.1, 3.0)
                                           : rng.Uniform(5.0, 60.0);
    sc.orders.push_back(
        MakeOrder(j, s, e, bid, *sc.oracle, rng.Uniform(1.3, 2.5)));
    sc.orders.back().issue_time_s = sc.now_s;
  }

  const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  for (int i = 0; i < n; ++i) {
    Vehicle v = MakeVehicle(
        i, random_node(),
        /*capacity=*/1 + static_cast<int>(rng.UniformInt(uint64_t{3})));
    v.extra_distance_m = Meters(rng.Uniform() < 0.5 ? rng.Uniform(0, 300) : 0);
    const double roll = rng.Uniform();
    if (roll < 0.25) {
      // Rider already in the car: drop-off pending, generous deadline.
      v.onboard = 1;
      v.in_delivery = true;
      v.plan.stops.push_back({random_node(), kCommittedBase + i,
                              StopType::kDropoff,
                              sc.now_s + Seconds(1e6)});
    } else if (roll < 0.45 && v.capacity >= 2) {
      // Accepted but not yet picked up.
      const NodeId pick = random_node();
      v.plan.stops.push_back(
          {pick, kCommittedBase + i, StopType::kPickup, Seconds(0)});
      v.plan.stops.push_back({random_node(), kCommittedBase + i,
                              StopType::kDropoff,
                              sc.now_s + Seconds(1e6)});
    }
    sc.vehicles.push_back(std::move(v));
  }
  return sc;
}

/// Expects the same orders with bit-identical payments, in the same order.
inline void ExpectBitIdenticalPayments(const std::vector<Payment>& got,
                                       const std::vector<Payment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].order, want[i].order);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].payment.value()),
              std::bit_cast<uint64_t>(want[i].payment.value()))
        << "order " << got[i].order << ": " << got[i].payment.value()
        << " vs " << want[i].payment.value();
  }
}

/// Asserts bit-identity of two runs in everything but wall-clock timing.
inline void ExpectSameResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_utility, b.total_utility);
  EXPECT_EQ(a.platform_utility, b.platform_utility);
  EXPECT_EQ(a.requester_utility, b.requester_utility);
  EXPECT_EQ(a.total_payments, b.total_payments);
  EXPECT_EQ(a.orders_total, b.orders_total);
  EXPECT_EQ(a.orders_dispatched, b.orders_dispatched);
  EXPECT_EQ(a.orders_expired, b.orders_expired);
  EXPECT_EQ(a.orders_completed, b.orders_completed);
  EXPECT_EQ(a.orders_stranded, b.orders_stranded);
  EXPECT_EQ(a.orders_cancelled, b.orders_cancelled);
  EXPECT_EQ(a.orders_redispatched, b.orders_redispatched);
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  EXPECT_EQ(a.truncated_rounds, b.truncated_rounds);
  EXPECT_EQ(a.refunded_payments, b.refunded_payments);
  EXPECT_EQ(a.total_delivery_m, b.total_delivery_m);
  EXPECT_EQ(a.driver_utility, b.driver_utility);
  EXPECT_EQ(a.mean_waiting_s, b.mean_waiting_s);
  EXPECT_EQ(a.mean_detour_s, b.mean_detour_s);
  EXPECT_EQ(a.shared_ride_fraction, b.shared_ride_fraction);
  EXPECT_EQ(a.max_wasted_time_violation_s, b.max_wasted_time_violation_s);

  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].time_s, b.rounds[r].time_s) << r;
    EXPECT_EQ(a.rounds[r].shard, b.rounds[r].shard) << r;
    EXPECT_EQ(a.rounds[r].pending_orders, b.rounds[r].pending_orders) << r;
    EXPECT_EQ(a.rounds[r].online_vehicles, b.rounds[r].online_vehicles) << r;
    EXPECT_EQ(a.rounds[r].dispatched, b.rounds[r].dispatched) << r;
    EXPECT_EQ(a.rounds[r].round_utility, b.rounds[r].round_utility) << r;
    EXPECT_EQ(a.rounds[r].dispatch_tier, b.rounds[r].dispatch_tier) << r;
    EXPECT_EQ(a.rounds[r].truncated, b.rounds[r].truncated) << r;
    for (int t = 0; t < kDispatchTierCount; ++t) {
      EXPECT_EQ(a.rounds[r].dispatched_by_tier[t],
                b.rounds[r].dispatched_by_tier[t])
          << r << " tier " << t;
    }
    // dispatch_seconds / pricing_seconds are wall time — excluded.
  }

  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t e = 0; e < a.events.size(); ++e) {
    EXPECT_EQ(a.events[e].time_s, b.events[e].time_s) << e;
    EXPECT_EQ(a.events[e].order, b.events[e].order) << e;
    EXPECT_EQ(a.events[e].kind, b.events[e].kind) << e;
    EXPECT_EQ(a.events[e].vehicle, b.events[e].vehicle) << e;
  }
}

/// FNV-1a digest of everything ExpectSameResult compares: the economic
/// totals, the per-round records without their wall-time fields, and the
/// event trace. Doubles enter by bit pattern, so a digest pinned in a test
/// holds a run to the last bit across code changes.
inline uint64_t SimResultDigest(const SimResult& r) {
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix](double d) { mix(std::bit_cast<uint64_t>(d)); };
  const auto mix_int = [&mix](int64_t v) { mix(static_cast<uint64_t>(v)); };
  for (const double d :
       {r.total_utility.value(), r.platform_utility.value(),
        r.requester_utility.value(), r.total_payments.value(),
        r.refunded_payments.value(), r.total_delivery_m.value(),
        r.driver_utility.value(), r.mean_waiting_s.value(),
        r.mean_detour_s.value(), r.shared_ride_fraction,
        r.max_wasted_time_violation_s.value()}) {
    mix_double(d);
  }
  for (const int v : {r.orders_total, r.orders_dispatched, r.orders_expired,
                      r.orders_completed, r.orders_stranded,
                      r.orders_cancelled, r.orders_redispatched,
                      r.degraded_rounds, r.truncated_rounds}) {
    mix_int(v);
  }
  mix_int(static_cast<int64_t>(r.rounds.size()));
  for (const RoundRecord& rec : r.rounds) {
    mix_double(rec.time_s.value());
    mix_int(rec.shard);
    mix_int(rec.pending_orders);
    mix_int(rec.online_vehicles);
    mix_int(rec.dispatched);
    mix_double(rec.round_utility.value());
    mix_int(static_cast<int64_t>(rec.dispatch_tier));
    for (const int t : rec.dispatched_by_tier) mix_int(t);
    mix_int(rec.truncated ? 1 : 0);
  }
  mix_int(static_cast<int64_t>(r.events.size()));
  for (const OrderEvent& e : r.events) {
    mix_double(e.time_s.value());
    mix_int(e.order);
    mix_int(static_cast<int64_t>(e.kind));
    mix_int(e.vehicle);
  }
  return h;
}

}  // namespace testutil
}  // namespace auctionride

#endif  // AUCTIONRIDE_TESTS_TESTUTIL_H_
