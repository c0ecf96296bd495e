// Shard-local world state: vehicles, pending orders, and the physics that
// moves them (legs, arrivals, faults). The engine runs one ShardWorld per
// region shard.
//
// A ShardWorld owns the vehicles of one region shard plus that shard's slice
// of the pending-order pool. Every phase method is shard-local and returns an
// EffectBatch of buffered side effects instead of mutating shared totals;
// the driver replays batches into the shared SimResult serially in a fixed
// shard order. Floating-point sums are replayed element-by-element — addition
// order is part of the bit-identity contract (docs/ENGINE.md), so a batch
// records the exact sequence of refunds/payments, not their sum.
//
// The per-order ledger is global (indexed by OrderId) but access is
// shard-disjoint: an order's ledger entry is only touched by the shard that
// currently owns its vehicle or its pending-pool slot, and ownership only
// changes at serial barriers (dispatch application, migration, refund).
//
// Each shard fact has one copy: the id-sorted vehicle vector is the only
// vehicle index (lookups are binary searches), and the vehicles' plans are
// the only record of which dispatched orders still await pickup.

#ifndef AUCTIONRIDE_ENGINE_WORLD_H_
#define AUCTIONRIDE_ENGINE_WORLD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "auction/types.h"
#include "common/rng.h"
#include "engine/faults.h"
#include "engine/result.h"
#include "roadnet/astar.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

namespace auctionride {

/// Per-order lifecycle/financial ledger entry, indexed by OrderId.
struct OrderLedgerEntry {
  bool dispatched = false;
  bool expired = false;
  bool completed = false;
  // Set when the order was stranded/cancelled and awaits re-dispatch;
  // cleared (and counted) when a later round re-dispatches it.
  bool recovered = false;
  Seconds dispatch_time_s;
  Seconds pickup_time_s;
  Seconds dropoff_time_s;
  Money payment;
  bool shared = false;  // shared the vehicle with another order
  // Vehicle currently assigned (valid while dispatched).
  VehicleId vehicle = kInvalidVehicle;
};

/// A vehicle owned by one shard.
struct WorldVehicle {
  Vehicle state;
  Seconds online_s;
  Seconds offline_s;
  // Node path of the current leg (state.next_node == path[path_pos]).
  std::vector<NodeId> leg_path;
  std::size_t path_pos = 0;
  // Orders currently riding (for shared-ride accounting).
  std::vector<OrderId> riding;
  // Rebalancer-directed relocation target: while idle the vehicle drives
  // toward this node instead of random-walking. kInvalidNode = not
  // relocating. Relocation legs never consume the shard's Rng stream.
  NodeId relocate_target = kInvalidNode;
};

/// Buffered side effects of one world phase. The driver replays batches into
/// the shared SimResult in fixed shard order via ApplyEffects.
struct EffectBatch {
  std::vector<OrderEvent> events;
  // Exact refund/payment sequences (not sums): replayed element-by-element
  // so double accumulation order is fixed bit-for-bit.
  std::vector<Money> refunds;
  std::vector<Money> payments;
  int stranded = 0;
  int cancelled = 0;
  int expired = 0;
  int dispatched_delta = 0;  // net change to orders_dispatched
  int redispatched = 0;
  int completed = 0;
  Seconds max_wasted_violation_s{-1e18};
};

/// Replays a batch into the aggregate result (serial, driver-side only).
void ApplyEffects(const EffectBatch& batch, SimResult* result);

/// Drops warm-start hints invalidated by a batch's lifecycle events: a
/// stranded vehicle's hints are stale, a cancelled/expired/dispatched order
/// no longer needs hints, and a pickup/dropoff mutates the vehicle's plan
/// (hints were computed against the old plan). No-op when `warm` is null.
/// Must run at the same serial barriers as ApplyEffects so the cache state
/// is a pure function of the replayed event sequence.
void InvalidateWarmStart(const EffectBatch& batch, WarmStartCache* warm);

/// Result of one shard's pending-order pass.
struct PendingPass {
  EffectBatch fx;  // issued + expired events
  // Orders submitted to this round's auction, bid-escalated copies, in
  // ascending order-id order.
  std::vector<Order> submitted;
};

struct WorldOptions {
  Seconds round_duration_s{10};
  Seconds max_pending_s{300};
  Money pending_bid_increment;
};

class ShardWorld {
 public:
  /// `oracle`, `orders` (the immutable order catalog, indexed by OrderId),
  /// and `ledger` (shared, shard-disjoint) must outlive the world.
  ShardWorld(const DistanceOracle* oracle, const std::vector<Order>* orders,
             std::vector<OrderLedgerEntry>* ledger, WorldOptions options,
             uint64_t rng_seed);

  /// Adds a vehicle, keeping the shard's vehicle list sorted by id.
  void AddVehicle(const VehicleSpawn& spawn);

  /// Sorts `batch` by id and merges it into the pending pool.
  void EnqueueBatch(std::vector<Order> batch);

  // --- Round phases. All shard-local; safe to run concurrently across
  // --- distinct shards between serial barriers.

  /// Breakdowns (vehicle-id order) then cancellations (order-id order).
  /// Cancellable orders are read off the plans: an order can withdraw
  /// exactly while its pickup stop is still planned on a vehicle here.
  EffectBatch InjectFaults(const FaultPlan& plan, int round, Seconds now_s);

  /// Issue/expire/escalate pass over the pending pool in order-id order.
  PendingPass CollectPending(Seconds now_s);

  /// Online vehicles with spare capacity; `online_idx` maps snapshot index
  /// to this shard's vehicle index (for ApplyOutcome).
  std::vector<Vehicle> OnlineSnapshot(
      Seconds now_s, std::vector<std::size_t>* online_idx) const;

  /// Applies a round's dispatch + payments: updated plans, ledger entries,
  /// pool removal, dispatch events.
  EffectBatch ApplyOutcome(const DispatchResult& dispatch,
                           const std::vector<Payment>& payments,
                           Seconds now_s,
                           const std::vector<std::size_t>& online_idx);

  /// Advances every vehicle whose online window overlaps the round.
  EffectBatch AdvanceRound(Seconds now_s);

  /// Drain-phase step: advances only vehicles with remaining plan stops.
  /// Returns true when any vehicle was still busy.
  bool AdvanceBusy(Seconds now_s, EffectBatch* fx);

  // --- Rebalancer support (serial barriers only).

  /// Ids of migratable idle vehicles at `now_s`: online, empty plan, nobody
  /// riding, not already relocating. Ascending id order.
  std::vector<VehicleId> MigratableIdleVehicles(Seconds now_s) const;
  /// Idle supply including relocations already in flight toward this shard.
  std::size_t IdleCount(Seconds now_s) const;

  /// Removes and returns a vehicle (must exist). Used by migration.
  WorldVehicle ExtractVehicle(VehicleId id);
  /// Inserts a migrated vehicle (id-sorted) and points it at
  /// `relocate_target` (pass kInvalidNode to keep it random-walking).
  void InsertVehicle(WorldVehicle vehicle, NodeId relocate_target);

  std::size_t pending_size() const { return pending_.size(); }
  std::size_t vehicle_count() const { return vehicles_.size(); }
  /// Σ delivery distance over this shard's vehicles, in id order.
  Meters DeliveryDistanceSum() const;

 private:
  void RefundAndRequeue(OrderId order, Seconds now_s, OrderEventKind kind,
                        EffectBatch* fx);
  void ProcessArrivalStops(WorldVehicle* vehicle, Seconds arrival_time_s,
                           EffectBatch* fx);
  void StartNextLeg(WorldVehicle* vehicle);
  // Follows the shortest path toward `target` one edge, planning a new
  // path unless the current one leads there from next_node. Returns false,
  // leaving the vehicle in place, when `target` is unreachable.
  bool FollowPathToward(WorldVehicle* vehicle, NodeId target);
  void AdvanceVehicle(WorldVehicle* vehicle, Seconds start_s, Seconds dt_s,
                      EffectBatch* fx);
  double EdgeLength(NodeId from, NodeId to) const;

  const DistanceOracle* oracle_;
  const std::vector<Order>* orders_;
  std::vector<OrderLedgerEntry>* ledger_;
  WorldOptions options_;
  Rng rng_;
  std::unique_ptr<AStarSearch> path_search_;

  std::vector<WorldVehicle> vehicles_;  // sorted by vehicle id
  std::vector<Order> pending_;           // sorted by order id
};

/// Shared end-of-run aggregation: driver utility, rider-experience means,
/// per-round timing means, and the always-on payment-conservation and
/// lifecycle contracts. `result` must already hold rounds/events/counters;
/// `total_delivery_m` is the caller's vehicle-order delivery sum.
void FinalizeResult(const AuctionConfig& config,
                    const std::vector<Order>& orders,
                    const std::vector<OrderLedgerEntry>& ledger,
                    Meters total_delivery_m, SimResult* result);

}  // namespace auctionride

#endif  // AUCTIONRIDE_ENGINE_WORLD_H_
