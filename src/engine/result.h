// Dispatch run results of the engine.
//
// SimResult is the common currency of every engine client: the round-based
// simulation (sim/simulator.h) and the replay/load-generator CLI both
// aggregate into the same structure, and its wall-time-free fields are
// bit-identical at any engine thread count
// (tests/engine_determinism_test.cc).

#ifndef AUCTIONRIDE_ENGINE_RESULT_H_
#define AUCTIONRIDE_ENGINE_RESULT_H_

#include <string_view>
#include <vector>

#include "auction/dispatch_tier.h"
#include "common/units.h"
#include "model/order.h"
#include "model/vehicle.h"

namespace auctionride {

/// Lifecycle events of one order, for tracing/analysis.
enum class OrderEventKind {
  kIssued,
  kDispatched,
  kPickedUp,
  kDroppedOff,
  kExpired,
  // Fault lifecycle (docs/ROBUSTNESS.md): the order's vehicle broke down
  // before delivery / the order withdrew before pickup. Either way the
  // payment is refunded and the order re-enters the pending pool with its
  // original patience window.
  kStranded,
  kCancelled,
};

std::string_view OrderEventKindName(OrderEventKind kind);

struct OrderEvent {
  Seconds time_s;
  OrderId order = kInvalidOrder;
  OrderEventKind kind = OrderEventKind::kIssued;
  VehicleId vehicle = kInvalidVehicle;  // dispatch/pickup/dropoff events
};

struct RoundRecord {
  Seconds time_s;
  int pending_orders = 0;
  int online_vehicles = 0;
  int dispatched = 0;
  Money round_utility;
  // Wall times, as MechanismOutcome reports them: a budgeted round's
  // dispatch_seconds includes its inline pricing, an unbudgeted one's does
  // not.
  Seconds dispatch_seconds;
  Seconds pricing_seconds;
  // Deepest tier that contributed this round's assignments; under the
  // anytime quality curve a truncated round can mix tiers, split out in
  // dispatched_by_tier (indexed by DispatchTier).
  DispatchTier dispatch_tier = DispatchTier::kPrimary;
  int dispatched_by_tier[kDispatchTierCount] = {0, 0, 0};
  // True when the round budget expired and the dispatch was cut.
  bool truncated = false;
  // Region shard that ran this round's auction (one record per shard-round
  // that auctioned).
  int shard = 0;
};

struct SimResult {
  // Overall utility U_auc accumulated over rounds (Equation 2, on the
  // deducted bids the algorithms optimized).
  Money total_utility;
  // Platform utility U_plf (only populated when pricing ran).
  Money platform_utility;
  Money requester_utility;
  Money total_payments;

  int orders_total = 0;
  int orders_dispatched = 0;
  int orders_expired = 0;
  int orders_completed = 0;  // delivered before the simulation ended

  // Fault + recovery accounting (all zero when faults are off).
  // orders_dispatched above is net: a refunded order decrements it and a
  // re-dispatch increments it again, so it counts orders that ended the run
  // dispatched. Stranded/cancelled/redispatched count events, not orders —
  // one unlucky order can contribute several times.
  int orders_stranded = 0;
  int orders_cancelled = 0;
  int orders_redispatched = 0;
  // Rounds decided by a fallback tier of the degradation ladder.
  int degraded_rounds = 0;
  // Rounds whose budget expired mid-dispatch (truncated, winners kept).
  int truncated_rounds = 0;
  // Σ payments returned to stranded/cancelled requesters, yuan. Already
  // subtracted from total_payments (refunds conserve money: Σ per-order
  // payments == total_payments at the end of the run, enforced by an
  // always-on contract check). Utility aggregates are not clawed back — they
  // record what the auctions decided, not what delivery achieved.
  Money refunded_payments;

  Meters total_delivery_m;  // ΣD_i actually driven in delivery phase
  // Σ (β_d − α_d)·D_i: the drivers' side of Definition 7.
  Money driver_utility;

  // Rider experience over completed orders.
  Seconds mean_waiting_s;     // pickup − dispatch
  Seconds mean_detour_s;      // (dropoff − pickup) − shortest trip time
  double shared_ride_fraction = 0;  // rode together with another order

  Seconds mean_dispatch_seconds;  // per-round wall time of dispatch
  Seconds max_dispatch_seconds;
  Seconds mean_pricing_seconds;

  // Largest observed wt+dt−θ over completed orders (should be ≈ 0 or
  // negative: the simulator must never violate Definition 4).
  Seconds max_wasted_time_violation_s{-1e18};

  std::vector<RoundRecord> rounds;
  // Chronological order lifecycle trace (issued/dispatched/picked up/
  // dropped off/expired).
  std::vector<OrderEvent> events;

  double dispatch_rate() const {
    return orders_total == 0
               ? 0.0
               : static_cast<double>(orders_dispatched) / orders_total;
  }
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ENGINE_RESULT_H_
