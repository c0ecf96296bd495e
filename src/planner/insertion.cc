#include "planner/insertion.h"

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace auctionride {
namespace {

// Absolute slack granted on top of kDeadlineEpsilonS by the whole-call
// time-window prefilter. Its bound is computed with a DIFFERENT operation
// sequence than the exact walk (one fused sum instead of per-leg
// accumulation), so the bitwise monotonicity argument that covers the
// per-candidate sweep does not apply there, and rounding could nudge the
// comparison either way by a few ulps. 1e-6 s dwarfs ulp noise at any
// realistic clock magnitude (an ulp at 1e6 s is ~1e-10 s) while staying far
// below any deadline granularity the simulation produces.
inline constexpr Seconds kWindowSlackS{1e-6};

// Per-thread scratch for the pruned search. Sized to the plan length each
// call; plans are at most 2·c̄ stops, so these stay tiny and hot.
struct PrunedScratch {
  // Exact walk of the committed plan: state after each prefix, and the
  // exact distance of the leg INTO committed stop k.
  std::vector<PlanWalkState> prefix;
  std::vector<double> plan_leg_m;
  // The four families of legs an insertion can introduce. Phase 1 fills
  // them with certified lower bounds; phase 2 overwrites the slots that
  // survivors actually need with exact batched distances.
  std::vector<double> to_pickup_m;     // prev(i) -> origin, i in [0, n]
  std::vector<double> from_pickup_m;   // origin -> stop k, k in [0, n)
  std::vector<double> to_dropoff_m;    // stop k -> destination, k in [0, n)
  std::vector<double> from_dropoff_m;  // destination -> stop k, k in [0, n)
  std::vector<double> pd_m;            // origin -> destination (1 slot)
  std::vector<char> need_to_pickup;
  std::vector<char> need_from_pickup;
  std::vector<char> need_to_dropoff;
  std::vector<char> need_from_dropoff;
  bool need_pd = false;
  std::vector<std::pair<std::size_t, std::size_t>> survivors;
  std::vector<NodeId> leg_nodes;
  std::vector<double> leg_out_m;
  std::vector<double*> leg_slots;
};

thread_local PrunedScratch tl_scratch;

// The pruned/incremental search. Lossless by construction — see the header
// comment for the monotonicity argument; insertion_prune_test fuzzes the
// claim against the from-scratch reference search bit for bit.
InsertionResult RunPruned(const Vehicle& vehicle, const Order& order,
                          Seconds now_s, const DistanceOracle& oracle,
                          int64_t* attempts, int64_t* infeasible) {
  const std::span<const PlanStop> plan = vehicle.plan.stops;
  const std::size_t n = plan.size();
  const MetersPerSecond speed = oracle.speed_mps();
  const int64_t total_pairs = static_cast<int64_t>((n + 1) * (n + 2) / 2);
  *attempts = total_pairs;
  *infeasible = 0;

  PrunedScratch& s = tl_scratch;
  s.prefix.resize(n + 1);
  s.plan_leg_m.resize(n);
  s.survivors.clear();

  // Phase 0: exact walk of the committed plan, caching the state after
  // every prefix and the exact per-leg distances. These are the same n
  // oracle queries the base-delivery evaluation has always issued.
  s.prefix[0] = InitialPlanWalkState(vehicle, now_s, speed);
  {
    NodeId prev = vehicle.next_node;
    for (std::size_t k = 0; k < n; ++k) {
      s.plan_leg_m[k] = oracle.Distance(prev, plan[k].node);
      PlanWalkState st = s.prefix[k];
      const StopAdvance adv = AdvancePlanStop(
          st, s.plan_leg_m[k], plan[k], vehicle.capacity, speed,
          kDeadlineEpsilonS);
      if (adv != StopAdvance::kOk) {
        // The committed plan itself fails at stop k (an unreachable leg, a
        // deadline already missed, an overfull vehicle). Every candidate
        // keeps the committed stops in order: with the pickup after k it
        // repeats the failing prefix bit for bit, and otherwise the new
        // stops only add load and detours before k, so capacity still
        // overflows, the leg into k stays unreachable and the deadline
        // stays missed. Every (i, j) is infeasible, counted the way the
        // sweep counts its prunes. (A precedence failure, a drop-off with
        // no rider on board, is corrupted state and is rejected the same
        // way.)
        *infeasible = total_pairs;
        if (adv == StopAdvance::kDeadline) {
          OBS_COUNTER_ADD("planner.insertion.pruned.deadline", total_pairs);
        } else {
          OBS_COUNTER_ADD("planner.insertion.pruned.capacity", total_pairs);
        }
        OBS_COUNTER_ADD("planner.insertion.pruned.candidates", total_pairs);
        return InsertionResult{};
      }
      s.prefix[k + 1] = st;
      prev = plan[k].node;
    }
  }
  const Meters base_delivery = s.prefix[n].delivery_m;

  const PlanStop pickup{order.origin, order.id, StopType::kPickup, Seconds{}};
  const PlanStop dropoff{order.destination, order.id, StopType::kDropoff,
                         order.DropoffDeadline(now_s)};

  // Phase 0b: whole-call time-window prefilter. Wherever the pickup lands,
  // the clock there is >= the vehicle's start clock plus the road distance
  // to the pickup (triangle inequality over the committed detour), and the
  // drop-off is at least the pickup-to-drop-off road distance later; both
  // road distances are lower-bounded geometrically. If even that optimistic
  // completion misses the drop-off deadline, every (i, j) is infeasible and
  // the call ends with zero shortest-path queries beyond the committed plan.
  const Meters lb_veh_pickup{
      oracle.LowerBoundDistance(vehicle.next_node, order.origin)};
  const Meters lb_pd{
      oracle.LowerBoundDistance(order.origin, order.destination)};
  const Seconds lb_done_s =
      s.prefix[0].clock_s + lb_veh_pickup / speed + lb_pd / speed;
  if (lb_done_s > dropoff.deadline_s + kDeadlineEpsilonS + kWindowSlackS) {
    *infeasible = total_pairs;
    OBS_COUNTER_ADD("planner.insertion.pruned.window", total_pairs);
    OBS_COUNTER_ADD("planner.insertion.pruned.candidates", total_pairs);
    return InsertionResult{};
  }

  // Phase 1: fill the lower-bound leg tables (pure arithmetic, no queries).
  s.to_pickup_m.resize(n + 1);
  s.from_pickup_m.resize(n);
  s.to_dropoff_m.resize(n);
  s.from_dropoff_m.resize(n);
  s.pd_m.assign(1, lb_pd.value());  // NOLINT-ARIDE(unsafe-unit-cast): back into the raw-leg table it came from
  s.need_to_pickup.assign(n + 1, 0);
  s.need_from_pickup.assign(n, 0);
  s.need_to_dropoff.assign(n, 0);
  s.need_from_dropoff.assign(n, 0);
  s.need_pd = false;
  for (std::size_t i = 0; i <= n; ++i) {
    const NodeId from = i == 0 ? vehicle.next_node : plan[i - 1].node;
    s.to_pickup_m[i] = oracle.LowerBoundDistance(from, order.origin);
  }
  for (std::size_t k = 0; k < n; ++k) {
    s.from_pickup_m[k] =
        oracle.LowerBoundDistance(order.origin, plan[k].node);
    s.to_dropoff_m[k] =
        oracle.LowerBoundDistance(plan[k].node, order.destination);
    s.from_dropoff_m[k] =
        oracle.LowerBoundDistance(order.destination, plan[k].node);
  }

  // Phase 1 sweep: walk every (i, j) candidate against the bounds, resuming
  // from the exact prefix state. Capacity/precedence verdicts never depend
  // on leg values, so those prunes are exact; a deadline missed under
  // lower-bounded legs is missed under exact legs because the identical
  // operation sequence on smaller-or-equal values yields a
  // smaller-or-equal clock (round-to-nearest + and / are monotone).
  int64_t pruned_capacity = 0;
  int64_t pruned_deadline = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    PlanWalkState cur = s.prefix[i];
    if (AdvancePlanStop(cur, s.to_pickup_m[i], pickup, vehicle.capacity,
                        speed, kDeadlineEpsilonS) != StopAdvance::kOk) {
      // Only capacity can fail here (pickups carry no deadline and the
      // bound legs are finite), and it fails for every j identically.
      pruned_capacity += static_cast<int64_t>(n - i + 1);
      continue;
    }
    for (std::size_t j = i; j <= n; ++j) {
      // Candidate (i, j): cur covers pickup + plan[i..j-1]; branch walks
      // the drop-off and the committed tail.
      StopAdvance adv;
      {
        PlanWalkState branch = cur;
        adv = AdvancePlanStop(branch, j == i ? s.pd_m[0] : s.to_dropoff_m[j - 1],
                              dropoff, vehicle.capacity, speed,
                              kDeadlineEpsilonS);
        for (std::size_t k = j; adv == StopAdvance::kOk && k < n; ++k) {
          adv = AdvancePlanStop(
              branch, k == j ? s.from_dropoff_m[j] : s.plan_leg_m[k],
              plan[k], vehicle.capacity, speed, kDeadlineEpsilonS);
        }
      }
      if (adv == StopAdvance::kOk) {
        s.survivors.emplace_back(i, j);
        s.need_to_pickup[i] = 1;
        if (j > i) {
          s.need_from_pickup[i] = 1;
          s.need_to_dropoff[j - 1] = 1;
        } else {
          s.need_pd = true;
        }
        if (j < n) s.need_from_dropoff[j] = 1;
      } else if (adv == StopAdvance::kDeadline) {
        ++pruned_deadline;
      } else {
        ++pruned_capacity;
      }
      if (j < n) {
        // Extend the shared walk over committed stop j for the next j.
        const StopAdvance step = AdvancePlanStop(
            cur, j == i ? s.from_pickup_m[i] : s.plan_leg_m[j], plan[j],
            vehicle.capacity, speed, kDeadlineEpsilonS);
        if (step != StopAdvance::kOk) {
          // Every candidate with a later drop-off shares this failing
          // prefix, so the rest of the row prunes with it.
          const int64_t rest = static_cast<int64_t>(n - j);
          if (step == StopAdvance::kDeadline) {
            pruned_deadline += rest;
          } else {
            pruned_capacity += rest;
          }
          break;
        }
      }
    }
  }

  const int64_t pruned_total = pruned_capacity + pruned_deadline;
  if (pruned_capacity > 0) {
    OBS_COUNTER_ADD("planner.insertion.pruned.capacity", pruned_capacity);
  }
  if (pruned_deadline > 0) {
    OBS_COUNTER_ADD("planner.insertion.pruned.deadline", pruned_deadline);
  }
  if (pruned_total > 0) {
    OBS_COUNTER_ADD("planner.insertion.pruned.candidates", pruned_total);
  }

  InsertionResult best;
  if (s.survivors.empty()) {
    *infeasible = total_pairs;
    return best;
  }

  // Phase 2: fetch exactly the legs the survivors touch, overwriting the
  // lower-bound slots with exact distances. Each family has the order's
  // origin or destination at one end, so it is one one-to-many call
  // anchored there; the calls run in fixed family order, which keeps the
  // query stream identical across runs. fetch_legs() leaves the queue empty.
  const auto fetch_legs = [&s, &oracle](NodeId anchor, bool to_anchor) {
    s.leg_out_m.resize(s.leg_nodes.size());
    if (to_anchor) {
      oracle.DistancesTo(anchor, s.leg_nodes, s.leg_out_m);
    } else {
      oracle.DistancesFrom(anchor, s.leg_nodes, s.leg_out_m);
    }
    for (std::size_t q = 0; q < s.leg_slots.size(); ++q) {
      *s.leg_slots[q] = s.leg_out_m[q];
    }
    s.leg_nodes.clear();
    s.leg_slots.clear();
  };
  const auto queue_leg = [&s](NodeId other, double* slot) {
    s.leg_nodes.push_back(other);
    s.leg_slots.push_back(slot);
  };
  for (std::size_t i = 0; i <= n; ++i) {
    if (!s.need_to_pickup[i]) continue;
    queue_leg(i == 0 ? vehicle.next_node : plan[i - 1].node,
              &s.to_pickup_m[i]);
  }
  fetch_legs(order.origin, /*to_anchor=*/true);
  for (std::size_t k = 0; k < n; ++k) {
    if (s.need_from_pickup[k]) queue_leg(plan[k].node, &s.from_pickup_m[k]);
  }
  if (s.need_pd) queue_leg(order.destination, &s.pd_m[0]);
  fetch_legs(order.origin, /*to_anchor=*/false);
  for (std::size_t k = 0; k < n; ++k) {
    if (s.need_to_dropoff[k]) queue_leg(plan[k].node, &s.to_dropoff_m[k]);
  }
  fetch_legs(order.destination, /*to_anchor=*/true);
  for (std::size_t k = 0; k < n; ++k) {
    if (s.need_from_dropoff[k]) queue_leg(plan[k].node, &s.from_dropoff_m[k]);
  }
  fetch_legs(order.destination, /*to_anchor=*/false);

  // Phase 3: exact incremental pass over the survivors in (i, j) order —
  // the same candidate order, operation sequence, and strict-< tie-break
  // the reference search runs, restricted to candidates the sweep proved
  // are the only possible feasible ones.
  Meters best_delta{std::numeric_limits<double>::infinity()};
  std::size_t best_i = 0;
  std::size_t best_j = 0;
  int64_t exact_infeasible = 0;
  std::size_t si = 0;
  while (si < s.survivors.size()) {
    const std::size_t i = s.survivors[si].first;
    PlanWalkState cur = s.prefix[i];
    bool row_dead =
        AdvancePlanStop(cur, s.to_pickup_m[i], pickup, vehicle.capacity,
                        speed, kDeadlineEpsilonS) != StopAdvance::kOk;
    std::size_t walked = i;  // cur covers pickup + plan[i..walked-1]
    for (; si < s.survivors.size() && s.survivors[si].first == i; ++si) {
      const std::size_t j = s.survivors[si].second;
      while (!row_dead && walked < j) {
        if (AdvancePlanStop(
                cur, walked == i ? s.from_pickup_m[i] : s.plan_leg_m[walked],
                plan[walked], vehicle.capacity, speed,
                kDeadlineEpsilonS) != StopAdvance::kOk) {
          row_dead = true;  // shared failing prefix: later j's fail with it
          break;
        }
        ++walked;
      }
      if (row_dead) {
        ++exact_infeasible;
        continue;
      }
      PlanWalkState branch = cur;
      StopAdvance adv = AdvancePlanStop(
          branch, j == i ? s.pd_m[0] : s.to_dropoff_m[j - 1], dropoff,
          vehicle.capacity, speed, kDeadlineEpsilonS);
      for (std::size_t k = j; adv == StopAdvance::kOk && k < n; ++k) {
        adv = AdvancePlanStop(branch,
                              k == j ? s.from_dropoff_m[j] : s.plan_leg_m[k],
                              plan[k], vehicle.capacity, speed,
                              kDeadlineEpsilonS);
      }
      if (adv != StopAdvance::kOk) {
        ++exact_infeasible;
        continue;
      }
      const Meters delta = branch.delivery_m - base_delivery;
      if (delta < best_delta) {
        best_delta = delta;
        best.feasible = true;
        best_i = i;
        best_j = j;
      }
    }
  }
  *infeasible = pruned_total + exact_infeasible;

  if (best.feasible) {
    best.delta_delivery_m = best_delta;
    best.new_plan.reserve(n + 2);
    best.new_plan.insert(best.new_plan.end(), plan.begin(),
                         plan.begin() + static_cast<long>(best_i));
    best.new_plan.push_back(pickup);
    best.new_plan.insert(best.new_plan.end(),
                         plan.begin() + static_cast<long>(best_i),
                         plan.begin() + static_cast<long>(best_j));
    best.new_plan.push_back(dropoff);
    best.new_plan.insert(best.new_plan.end(),
                         plan.begin() + static_cast<long>(best_j),
                         plan.end());
  }
  return best;
}

}  // namespace

InsertionResult BestInsertion(const Vehicle& vehicle, const Order& order,
                              Seconds now_s, const DistanceOracle& oracle) {
  ARIDE_CHECK(order.origin != kInvalidNode &&
              order.destination != kInvalidNode)
      << "order " << order.id;
  ARIDE_CHECK_GE(vehicle.extra_distance_m, Meters(0)) << "vehicle " << vehicle.id;
  // This is the single hottest auction primitive (called per order-vehicle
  // pair), so the timer samples 1-in-64 executions.
  OBS_SCOPED_TIMER_SAMPLED("planner.insertion_s", 64);
  OBS_COUNTER_INC("planner.insertion.calls");
  if (vehicle.CommittedRiders() >= vehicle.capacity) {
    // No position can ever fit another rider; counted separately so the
    // BENCH feasibility rate (attempts vs infeasible) is not skewed by
    // calls that never attempted a candidate.
    OBS_COUNTER_INC("planner.insertion.capacity_rejected");
    return InsertionResult{};
  }

  int64_t attempts = 0;
  int64_t infeasible = 0;
  InsertionResult best =
      RunPruned(vehicle, order, now_s, oracle, &attempts, &infeasible);
  OBS_COUNTER_ADD("planner.insertion.attempts", attempts);
  OBS_COUNTER_ADD("planner.insertion.infeasible", infeasible);
  if (best.feasible) {
    OBS_COUNTER_INC("planner.insertion.feasible");
    // Oracle distances are shortest paths, so inserting stops can never
    // shorten the delivery distance (triangle inequality); a negative ΔD
    // here means the oracle or the evaluator is broken.
    ARIDE_CHECK_GE(best.delta_delivery_m, Meters(-1e-6)) << "order "
                                                         << order.id;
  }
  return best;
}

Meters MaxPickupRadiusM(const Order& order, MetersPerSecond speed_mps) {
  return order.max_wasted_time_s * speed_mps;
}

Meters EuclideanPickupRadiusM(const Order& order,
                              const DistanceOracle& oracle) {
  const Meters road_radius = MaxPickupRadiusM(order, oracle.speed_mps());
  const double scale = oracle.lower_bound_scale();
  // Dividing by a scale > 1 tightens the ring losslessly (road distance
  // >= scale × straight-line distance, so anything outside the tightened
  // ring is outside the road-distance ring too); at scale <= 1 the
  // historical radius is already exact because straight-line distance
  // never exceeds road distance.
  return scale > 1.0 ? road_radius / scale : road_radius;
}

namespace {

std::vector<GridIndex::Item> VehiclePositions(
    const std::vector<Vehicle>& vehicles, const DistanceOracle& oracle) {
  std::vector<GridIndex::Item> items;
  items.reserve(vehicles.size());
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    items.push_back({static_cast<int32_t>(i),
                     oracle.network().position(vehicles[i].next_node)});
  }
  return items;
}

}  // namespace

PickupCandidateIndex::PickupCandidateIndex(
    const std::vector<Vehicle>& vehicles, const DistanceOracle& oracle)
    : oracle_(oracle),
      grid_(VehiclePositions(vehicles, oracle), kVehicleGridCellM) {}

void PickupCandidateIndex::WithinRadius(const Order& order,
                                        std::vector<int32_t>* out) const {
  grid_.WithinRadius(oracle_.network().position(order.origin),
                     EuclideanPickupRadiusM(order, oracle_), out);
}

}  // namespace auctionride
