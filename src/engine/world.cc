#include "engine/world.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "auction/warm_start.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auctionride {

namespace {

// Position of vehicle `id` in the id-sorted `vehicles`, or where it would go.
std::vector<WorldVehicle>::iterator LowerBoundById(
    std::vector<WorldVehicle>* vehicles, VehicleId id) {
  return std::lower_bound(
      vehicles->begin(), vehicles->end(), id,
      [](const WorldVehicle& a, VehicleId key) { return a.state.id < key; });
}

}  // namespace

std::string_view OrderEventKindName(OrderEventKind kind) {
  switch (kind) {
    case OrderEventKind::kIssued:
      return "issued";
    case OrderEventKind::kDispatched:
      return "dispatched";
    case OrderEventKind::kPickedUp:
      return "picked_up";
    case OrderEventKind::kDroppedOff:
      return "dropped_off";
    case OrderEventKind::kExpired:
      return "expired";
    case OrderEventKind::kStranded:
      return "stranded";
    case OrderEventKind::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

void ApplyEffects(const EffectBatch& batch, SimResult* result) {
  for (const OrderEvent& event : batch.events) {
    result->events.push_back(event);
  }
  // Money moves one element at a time: the replay order is the shard's
  // emission order, so the accumulation order is fixed (bit-identity
  // contract).
  for (const Money refund : batch.refunds) {
    result->refunded_payments += refund;
    result->total_payments -= refund;
  }
  for (const Money payment : batch.payments) {
    result->total_payments += payment;
  }
  result->orders_stranded += batch.stranded;
  result->orders_cancelled += batch.cancelled;
  result->orders_expired += batch.expired;
  result->orders_dispatched += batch.dispatched_delta;
  result->orders_redispatched += batch.redispatched;
  result->orders_completed += batch.completed;
  result->max_wasted_time_violation_s = std::max(
      result->max_wasted_time_violation_s, batch.max_wasted_violation_s);
}

void InvalidateWarmStart(const EffectBatch& batch, WarmStartCache* warm) {
  if (warm == nullptr) return;
  for (const OrderEvent& event : batch.events) {
    switch (event.kind) {
      case OrderEventKind::kIssued:
        break;
      case OrderEventKind::kDispatched:
      case OrderEventKind::kExpired:
        warm->InvalidateOrder(event.order);
        break;
      case OrderEventKind::kPickedUp:
      case OrderEventKind::kDroppedOff:
        // The vehicle's plan shrank; hints pointing at it were computed
        // against the pre-mutation plan.
        warm->InvalidateVehicle(event.vehicle);
        break;
      case OrderEventKind::kStranded:
      case OrderEventKind::kCancelled:
        warm->InvalidateOrder(event.order);
        if (event.vehicle != kInvalidVehicle) {
          warm->InvalidateVehicle(event.vehicle);
        }
        break;
    }
  }
}

ShardWorld::ShardWorld(const DistanceOracle* oracle,
                       const std::vector<Order>* orders,
                       std::vector<OrderLedgerEntry>* ledger,
                       WorldOptions options, uint64_t rng_seed)
    : oracle_(oracle),
      orders_(orders),
      ledger_(ledger),
      options_(options),
      rng_(rng_seed) {
  ARIDE_ACHECK(oracle_ != nullptr);
  ARIDE_ACHECK(orders_ != nullptr);
  ARIDE_ACHECK(ledger_ != nullptr);
  ARIDE_ACHECK(options_.round_duration_s > Seconds(0));
  path_search_ = std::make_unique<AStarSearch>(&oracle_->network());
}

void ShardWorld::AddVehicle(const VehicleSpawn& spawn) {
  WorldVehicle sv;
  sv.state = spawn.vehicle;
  sv.online_s = spawn.online_s;
  sv.offline_s = spawn.offline_s;
  InsertVehicle(std::move(sv), kInvalidNode);
}

void ShardWorld::EnqueueBatch(std::vector<Order> batch) {
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(),
            [](const Order& a, const Order& b) { return a.id < b.id; });
  std::vector<Order> merged;
  merged.reserve(pending_.size() + batch.size());
  std::merge(pending_.begin(), pending_.end(), batch.begin(), batch.end(),
             std::back_inserter(merged),
             [](const Order& a, const Order& b) { return a.id < b.id; });
  pending_ = std::move(merged);
  for (std::size_t j = 1; j < pending_.size(); ++j) {
    ARIDE_ACHECK(pending_[j - 1].id < pending_[j].id)
        << "order " << pending_[j].id << " enqueued twice";
  }
}

void ShardWorld::RefundAndRequeue(OrderId order, Seconds now_s,
                                  OrderEventKind kind, EffectBatch* fx) {
  OrderLedgerEntry& rec = (*ledger_)[static_cast<std::size_t>(order)];
  ARIDE_ACHECK(rec.dispatched && !rec.completed) << "order " << order;
  if (rec.payment > Money(0)) {
    fx->refunds.push_back(rec.payment);
    rec.payment = Money(0);
    OBS_COUNTER_INC("sim.recovery.refunds");
  }
  rec.dispatched = false;
  rec.recovered = true;
  rec.dispatch_time_s = Seconds(0);
  rec.pickup_time_s = Seconds(0);
  rec.vehicle = kInvalidVehicle;
  --fx->dispatched_delta;
  fx->events.push_back({now_s, order, kind, kInvalidVehicle});
  // Back into this shard's pending pool with the original patience window.
  EnqueueBatch({(*orders_)[static_cast<std::size_t>(order)]});
}

EffectBatch ShardWorld::InjectFaults(const FaultPlan& plan, int round,
                                     Seconds now_s) {
  OBS_TRACE_SPAN("sim.faults.inject");
  EffectBatch fx;
  const FaultOptions& faults = plan.options();
  // Breakdowns first: a vehicle that just broke down strands its orders, so
  // the cancellation pass below no longer sees them as dispatched.
  if (faults.breakdown_prob_per_round > 0) {
    for (WorldVehicle& sv : vehicles_) {
      if (now_s < sv.online_s || now_s >= sv.offline_s) continue;
      const bool busy = !sv.state.plan.stops.empty() || !sv.riding.empty();
      if (!busy) continue;
      if (!plan.VehicleBreaksDown(round, sv.state.id)) continue;

      // Undelivered orders: every order with a remaining stop. Onboard
      // riders restart from their origin when re-dispatched (the workload
      // order is immutable) — a simplification documented in
      // docs/ROBUSTNESS.md.
      std::vector<OrderId> stranded;
      for (const PlanStop& stop : sv.state.plan.stops) {
        if (std::find(stranded.begin(), stranded.end(), stop.order) ==
            stranded.end()) {
          stranded.push_back(stop.order);
        }
      }
      sv.offline_s = now_s;  // never comes back online
      sv.state.plan.stops.clear();
      sv.state.onboard = 0;
      sv.state.in_delivery = false;
      sv.riding.clear();
      sv.leg_path.clear();
      sv.path_pos = 0;
      sv.relocate_target = kInvalidNode;
      OBS_COUNTER_INC("sim.faults.breakdowns");
      for (const OrderId order : stranded) {
        RefundAndRequeue(order, now_s, OrderEventKind::kStranded, &fx);
        ++fx.stranded;
        OBS_COUNTER_INC("sim.recovery.stranded_orders");
      }
    }
  }

  // Cancellations: dispatched orders whose pickup has not happened yet, in
  // ascending order-id order. Such an order's pickup stop is still planned
  // on its vehicle, and that vehicle is on this shard (breakdowns above
  // cleared their plans; migration moves only idle vehicles).
  if (faults.cancel_prob_per_round > 0) {
    std::vector<std::pair<OrderId, std::size_t>> awaiting_pickup;
    for (std::size_t i = 0; i < vehicles_.size(); ++i) {
      for (const PlanStop& stop : vehicles_[i].state.plan.stops) {
        if (stop.type == StopType::kPickup) {
          awaiting_pickup.emplace_back(stop.order, i);
        }
      }
    }
    std::sort(awaiting_pickup.begin(), awaiting_pickup.end());
    for (const auto& [order, vehicle_idx] : awaiting_pickup) {
      WorldVehicle& sv = vehicles_[vehicle_idx];
      const OrderLedgerEntry& rec = (*ledger_)[static_cast<std::size_t>(order)];
      ARIDE_ACHECK(rec.dispatched && !rec.completed &&
                   rec.vehicle == sv.state.id)
          << "order " << order << " planned on vehicle " << sv.state.id;
      if (!plan.OrderCancels(round, order)) continue;

      std::erase_if(sv.state.plan.stops, [order](const PlanStop& stop) {
        return stop.order == order;
      });
      // The current leg may target a removed stop; recompute next round.
      sv.leg_path.clear();
      sv.path_pos = 0;
      if (sv.state.plan.stops.empty() && sv.state.onboard == 0) {
        sv.state.in_delivery = false;
      }
      OBS_COUNTER_INC("sim.faults.cancellations");
      RefundAndRequeue(order, now_s, OrderEventKind::kCancelled, &fx);
      ++fx.cancelled;
    }
  }
  return fx;
}

PendingPass ShardWorld::CollectPending(Seconds now_s) {
  PendingPass pass;
  std::vector<Order> keep;
  keep.reserve(pending_.size());
  for (const Order& order : pending_) {
    OrderLedgerEntry& rec = (*ledger_)[static_cast<std::size_t>(order.id)];
    ARIDE_ACHECK(!rec.dispatched && !rec.expired) << "order " << order.id;
    if (order.issue_time_s > now_s) {
      keep.push_back(order);
      continue;
    }
    if (now_s - order.issue_time_s < options_.round_duration_s) {
      pass.fx.events.push_back({order.issue_time_s, order.id,
                                OrderEventKind::kIssued, kInvalidVehicle});
    }
    if (now_s - order.issue_time_s > options_.max_pending_s) {
      rec.expired = true;
      ++pass.fx.expired;
      pass.fx.events.push_back(
          {now_s, order.id, OrderEventKind::kExpired, kInvalidVehicle});
      continue;
    }
    Order submitted = order;
    if (options_.pending_bid_increment > Money(0)) {
      // Bonus escalation for pended orders (§II-B): each elapsed round adds
      // to the offered bid.
      const double rounds_pended = std::floor(
          (now_s - order.issue_time_s) / options_.round_duration_s);
      submitted.bid += options_.pending_bid_increment * rounds_pended;
    }
    pass.submitted.push_back(submitted);
    keep.push_back(order);
  }
  pending_ = std::move(keep);
  return pass;
}

std::vector<Vehicle> ShardWorld::OnlineSnapshot(
    Seconds now_s, std::vector<std::size_t>* online_idx) const {
  std::vector<Vehicle> online;
  online_idx->clear();
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const WorldVehicle& sv = vehicles_[i];
    if (now_s < sv.online_s || now_s >= sv.offline_s) continue;
    if (sv.state.CommittedRiders() >= sv.state.capacity) continue;
    online.push_back(sv.state);
    online_idx->push_back(i);
  }
  return online;
}

EffectBatch ShardWorld::ApplyOutcome(
    const DispatchResult& dispatch, const std::vector<Payment>& payments,
    Seconds now_s, const std::vector<std::size_t>& online_idx) {
  EffectBatch fx;
  // Apply updated plans to the live vehicles.
  for (const auto& [snapshot_idx, plan] : dispatch.updated_plans) {
    WorldVehicle& sv = vehicles_[online_idx[snapshot_idx]];
    sv.state.plan.stops = plan;
    sv.leg_path.clear();
    sv.path_pos = 0;
    sv.relocate_target = kInvalidNode;  // dispatch overrides relocation
  }
  for (const Assignment& a : dispatch.assignments) {
    OrderLedgerEntry& rec = (*ledger_)[static_cast<std::size_t>(a.order)];
    rec.dispatched = true;
    rec.dispatch_time_s = now_s;
    rec.vehicle = a.vehicle;
    if (rec.recovered) {
      rec.recovered = false;
      ++fx.redispatched;
      OBS_COUNTER_INC("sim.recovery.redispatched");
    }
    ++fx.dispatched_delta;
    fx.events.push_back(
        {now_s, a.order, OrderEventKind::kDispatched, a.vehicle});

    const auto pos = std::lower_bound(
        pending_.begin(), pending_.end(), a.order,
        [](const Order& o, OrderId id) { return o.id < id; });
    ARIDE_ACHECK(pos != pending_.end() && pos->id == a.order)
        << "dispatched order " << a.order << " not in this shard's pool";
    pending_.erase(pos);
  }
  for (const Payment& p : payments) {
    ARIDE_CHECK_GE(p.payment, Money(0)) << "order " << p.order;
    (*ledger_)[static_cast<std::size_t>(p.order)].payment = p.payment;
    fx.payments.push_back(p.payment);
  }
  return fx;
}

double ShardWorld::EdgeLength(NodeId from, NodeId to) const {
  double best = kInfDistance;
  for (const Arc& a : oracle_->network().OutArcs(from)) {
    if (a.head == to) best = std::min(best, a.length_m);
  }
  ARIDE_ACHECK(best != kInfDistance) << "leg path nodes are not adjacent";
  return best;
}

void ShardWorld::ProcessArrivalStops(WorldVehicle* vehicle,
                                     Seconds arrival_time_s,
                                     EffectBatch* fx) {
  Vehicle& v = vehicle->state;
  while (!v.plan.stops.empty() && v.plan.stops.front().node == v.next_node) {
    const PlanStop stop = v.plan.stops.front();
    v.plan.stops.erase(v.plan.stops.begin());
    OrderLedgerEntry& rec = (*ledger_)[static_cast<std::size_t>(stop.order)];
    if (stop.type == StopType::kPickup) {
      ++v.onboard;
      ARIDE_ACHECK(v.onboard <= v.capacity);
      v.in_delivery = true;
      rec.pickup_time_s = arrival_time_s;
      fx->events.push_back(
          {arrival_time_s, stop.order, OrderEventKind::kPickedUp, v.id});
      // Shared-ride accounting: everyone in the car (including the new
      // rider) is now sharing.
      vehicle->riding.push_back(stop.order);
      if (vehicle->riding.size() > 1) {
        for (OrderId rider : vehicle->riding) {
          (*ledger_)[static_cast<std::size_t>(rider)].shared = true;
        }
      }
    } else {
      --v.onboard;
      ARIDE_ACHECK(v.onboard >= 0);
      std::erase(vehicle->riding, stop.order);
      // Lifecycle contract: a rider is picked up after dispatch and dropped
      // off after pickup, exactly once.
      ARIDE_CHECK(!rec.completed) << "order " << stop.order;
      ARIDE_CHECK_GE(rec.pickup_time_s, rec.dispatch_time_s)
          << "order " << stop.order;
      ARIDE_CHECK_GE(arrival_time_s, rec.pickup_time_s)
          << "order " << stop.order;
      rec.dropoff_time_s = arrival_time_s;
      rec.completed = true;
      fx->events.push_back(
          {arrival_time_s, stop.order, OrderEventKind::kDroppedOff, v.id});
      ++fx->completed;
      const Order& order = (*orders_)[static_cast<std::size_t>(stop.order)];
      const Seconds wasted =
          (rec.dropoff_time_s - rec.dispatch_time_s) - order.shortest_time_s;
      fx->max_wasted_violation_s = std::max(
          fx->max_wasted_violation_s, wasted - order.max_wasted_time_s);
    }
    vehicle->leg_path.clear();  // next leg targets a new stop
    vehicle->path_pos = 0;
  }
  if (v.plan.stops.empty()) v.in_delivery = false;
}

bool ShardWorld::FollowPathToward(WorldVehicle* vehicle, NodeId target) {
  Vehicle& v = vehicle->state;
  if (vehicle->leg_path.empty() ||
      vehicle->leg_path[vehicle->path_pos] != v.next_node ||
      vehicle->leg_path.back() != target) {
    vehicle->leg_path = path_search_->ShortestPath(v.next_node, target);
    vehicle->path_pos = 0;
  }
  if (vehicle->leg_path.empty()) return false;
  if (vehicle->path_pos + 1 < vehicle->leg_path.size()) {
    const NodeId next = vehicle->leg_path[vehicle->path_pos + 1];
    v.extra_distance_m = Meters(EdgeLength(v.next_node, next));
    v.next_node = next;
    ++vehicle->path_pos;
  }
  return true;
}

void ShardWorld::StartNextLeg(WorldVehicle* vehicle) {
  Vehicle& v = vehicle->state;
  if (!v.plan.stops.empty()) {
    const bool reachable =
        FollowPathToward(vehicle, v.plan.stops.front().node);
    ARIDE_ACHECK(reachable) << "stop unreachable";
    return;
  }
  // Rebalancer-directed relocation: drive toward the target region's center
  // instead of random-walking. Never consumes the Rng stream.
  if (vehicle->relocate_target != kInvalidNode) {
    if (v.next_node == vehicle->relocate_target) {
      vehicle->relocate_target = kInvalidNode;  // arrived
      vehicle->leg_path.clear();
      vehicle->path_pos = 0;
    } else if (FollowPathToward(vehicle, vehicle->relocate_target)) {
      return;
    } else {
      // Unreachable target (disconnected pocket): give up, go idle.
      vehicle->relocate_target = kInvalidNode;
    }
  }
  // Idle: random walk over the road network.
  const auto arcs = oracle_->network().OutArcs(v.next_node);
  if (arcs.empty()) return;  // stranded (cannot happen on connected graphs)
  const Arc& arc =
      arcs[rng_.UniformInt(static_cast<uint64_t>(arcs.size()))];
  v.next_node = arc.head;
  v.extra_distance_m = Meters(arc.length_m);
  vehicle->leg_path.clear();
  vehicle->path_pos = 0;
}

void ShardWorld::AdvanceVehicle(WorldVehicle* vehicle, Seconds start_s,
                                Seconds dt_s, EffectBatch* fx) {
  Vehicle& v = vehicle->state;
  Meters budget_m = dt_s * oracle_->speed_mps();
  Seconds time_s = start_s;
  // Bounded iterations as a defensive guard against degenerate graphs.
  for (int iter = 0; iter < 100000 && budget_m > Meters(1e-9); ++iter) {
    if (v.extra_distance_m > Meters(0)) {
      const Meters step = std::min(budget_m, v.extra_distance_m);
      v.extra_distance_m -= step;
      budget_m -= step;
      time_s += step / oracle_->speed_mps();
      v.total_distance_m += step;
      if (v.in_delivery) v.delivery_distance_m += step;
      if (v.extra_distance_m > Meters(0)) break;  // budget exhausted mid-edge
    }
    // Arrived at next_node.
    ProcessArrivalStops(vehicle, time_s, fx);
    StartNextLeg(vehicle);
    if (v.extra_distance_m <= Meters(0)) break;  // nowhere to go
  }
}

EffectBatch ShardWorld::AdvanceRound(Seconds now_s) {
  EffectBatch fx;
  for (WorldVehicle& sv : vehicles_) {
    if (now_s + options_.round_duration_s <= sv.online_s ||
        now_s >= sv.offline_s) {
      continue;
    }
    AdvanceVehicle(&sv, now_s, options_.round_duration_s, &fx);
  }
  return fx;
}

bool ShardWorld::AdvanceBusy(Seconds now_s, EffectBatch* fx) {
  bool any_busy = false;
  for (WorldVehicle& sv : vehicles_) {
    if (!sv.state.plan.stops.empty()) {
      any_busy = true;
      AdvanceVehicle(&sv, now_s, options_.round_duration_s, fx);
    }
  }
  return any_busy;
}

std::vector<VehicleId> ShardWorld::MigratableIdleVehicles(
    Seconds now_s) const {
  std::vector<VehicleId> idle;
  for (const WorldVehicle& sv : vehicles_) {
    if (now_s < sv.online_s || now_s >= sv.offline_s) continue;
    if (!sv.state.plan.stops.empty() || !sv.riding.empty()) continue;
    if (sv.relocate_target != kInvalidNode) continue;
    idle.push_back(sv.state.id);
  }
  return idle;
}

std::size_t ShardWorld::IdleCount(Seconds now_s) const {
  std::size_t count = 0;
  for (const WorldVehicle& sv : vehicles_) {
    if (now_s < sv.online_s || now_s >= sv.offline_s) continue;
    if (!sv.state.plan.stops.empty() || !sv.riding.empty()) continue;
    ++count;  // includes relocations already in flight toward this shard
  }
  return count;
}

WorldVehicle ShardWorld::ExtractVehicle(VehicleId id) {
  const auto pos = LowerBoundById(&vehicles_, id);
  ARIDE_ACHECK(pos != vehicles_.end() && pos->state.id == id)
      << "vehicle " << id << " is not on this shard";
  WorldVehicle out = std::move(*pos);
  vehicles_.erase(pos);
  return out;
}

void ShardWorld::InsertVehicle(WorldVehicle vehicle, NodeId relocate_target) {
  vehicle.relocate_target = relocate_target;
  const auto pos = LowerBoundById(&vehicles_, vehicle.state.id);
  ARIDE_ACHECK(pos == vehicles_.end() || pos->state.id != vehicle.state.id)
      << "duplicate vehicle id " << vehicle.state.id;
  vehicles_.insert(pos, std::move(vehicle));
}

Meters ShardWorld::DeliveryDistanceSum() const {
  Meters sum;
  for (const WorldVehicle& sv : vehicles_) {
    sum += sv.state.delivery_distance_m;
  }
  return sum;
}

void FinalizeResult(const AuctionConfig& config,
                    const std::vector<Order>& orders,
                    const std::vector<OrderLedgerEntry>& ledger,
                    Meters total_delivery_m, SimResult* result) {
  result->total_delivery_m = total_delivery_m;
  const MoneyPerMeter margin_per_m{
      (config.beta_d_per_km - config.alpha_d_per_km) / 1000.0};
  result->driver_utility = margin_per_m * result->total_delivery_m;
  int completed = 0;
  int shared = 0;
  Seconds wait_sum;
  Seconds detour_sum;
  for (std::size_t j = 0; j < ledger.size(); ++j) {
    const OrderLedgerEntry& rec = ledger[j];
    if (!rec.completed) continue;
    ++completed;
    if (rec.shared) ++shared;
    wait_sum += rec.pickup_time_s - rec.dispatch_time_s;
    detour_sum += (rec.dropoff_time_s - rec.pickup_time_s) -
                  orders[j].shortest_time_s;
  }
  if (completed > 0) {
    result->mean_waiting_s = wait_sum / completed;
    result->mean_detour_s = detour_sum / completed;
    result->shared_ride_fraction =
        static_cast<double>(shared) / static_cast<double>(completed);
  }
  Seconds dispatch_sum;
  Seconds pricing_sum;
  for (const RoundRecord& r : result->rounds) {
    dispatch_sum += r.dispatch_seconds;
    pricing_sum += r.pricing_seconds;
    result->max_dispatch_seconds =
        std::max(result->max_dispatch_seconds, r.dispatch_seconds);
  }
  if (!result->rounds.empty()) {
    result->mean_dispatch_seconds =
        dispatch_sum / static_cast<double>(result->rounds.size());
    result->mean_pricing_seconds =
        pricing_sum / static_cast<double>(result->rounds.size());
  }

  // Payment conservation and lifecycle contracts (always on: refund bugs
  // corrupt money silently otherwise). The incremental total_payments must
  // match the per-order ledger after all refunds, and no order may end the
  // run in an impossible state.
  Money ledger_sum;
  for (const OrderLedgerEntry& rec : ledger) {
    ARIDE_ACHECK(!(rec.completed && rec.expired));
    ARIDE_ACHECK(!(rec.completed && rec.recovered));
    // Undispatched orders hold no money (refunds assign an exact zero, and
    // payments are nonnegative, so proving <= 0 proves zero).
    if (!rec.dispatched) ARIDE_ACHECK(!(rec.payment > Money(0)));
    ledger_sum += rec.payment;
  }
  const Money tol =
      1e-6 * std::max(Money(1.0), Abs(result->total_payments));
  ARIDE_ACHECK(Abs(ledger_sum - result->total_payments) <= tol)
      << "payment ledger " << ledger_sum << " vs incremental total "
      << result->total_payments;
  ARIDE_ACHECK(result->refunded_payments >= Money(0));
}

}  // namespace auctionride
