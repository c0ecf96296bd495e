// Test-only reference for the insertion search (paper §III-A): the
// from-scratch brute force. It builds every (i, j) candidate stop sequence
// and evaluates it with a full EvaluatePlan walk, with no pruning and no
// telemetry. src/planner/insertion.cc computes the same result with a
// lower-bound sweep and an incremental exact pass and returns positions;
// tests apply them with InsertStops (BestInsertionWithPlan) and assert the
// two agree bit for bit, plan included.

#ifndef AUCTIONRIDE_TESTS_INSERTION_REFERENCE_H_
#define AUCTIONRIDE_TESTS_INSERTION_REFERENCE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "planner/insertion.h"
#include "planner/plan_eval.h"
#include "roadnet/oracle.h"

namespace auctionride {

/// An insertion with its plan spelled out: what the reference returns, and
/// what BestInsertionWithPlan makes of BestInsertion's positions.
struct PlannedInsertion {
  bool feasible = false;
  Meters delta_delivery_m;
  // The vehicle's plan with the order inserted (only valid when feasible).
  std::vector<PlanStop> new_plan;
};

/// BestInsertion, with its positions applied to a copy of the vehicle's
/// plan through InsertStops.
inline PlannedInsertion BestInsertionWithPlan(const Vehicle& vehicle,
                                              const Order& order,
                                              Seconds now_s,
                                              const DistanceOracle& oracle) {
  const InsertionResult ins = BestInsertion(vehicle, order, now_s, oracle);
  PlannedInsertion planned{ins.feasible, ins.delta_delivery_m, {}};
  if (ins.feasible) {
    planned.new_plan = vehicle.plan.stops;
    InsertStops(ins, order, now_s, &planned.new_plan);
  }
  return planned;
}

inline PlannedInsertion BestInsertionReference(const Vehicle& vehicle,
                                              const Order& order,
                                              Seconds now_s,
                                              const DistanceOracle& oracle) {
  ARIDE_CHECK(order.origin != kInvalidNode &&
              order.destination != kInvalidNode)
      << "order " << order.id;
  PlannedInsertion best;
  if (vehicle.CommittedRiders() >= vehicle.capacity) return best;

  const Meters base_delivery =
      EvaluatePlan(vehicle, vehicle.plan.stops, now_s, oracle)
          .delivery_distance_m;

  const PlanStop pickup{order.origin, order.id, StopType::kPickup, Seconds{}};
  const PlanStop dropoff{order.destination, order.id, StopType::kDropoff,
                         order.DropoffDeadline(now_s)};

  const std::size_t n = vehicle.plan.stops.size();
  std::vector<PlanStop> candidate;
  candidate.reserve(n + 2);
  Meters best_delta{std::numeric_limits<double>::infinity()};

  // Insert pickup at position i and drop-off at position j (positions in the
  // plan *after* the pickup insertion), for all i <= j.
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = i; j <= n; ++j) {
      candidate.clear();
      candidate.insert(candidate.end(), vehicle.plan.stops.begin(),
                       vehicle.plan.stops.begin() + static_cast<long>(i));
      candidate.push_back(pickup);
      candidate.insert(candidate.end(),
                       vehicle.plan.stops.begin() + static_cast<long>(i),
                       vehicle.plan.stops.begin() + static_cast<long>(j));
      candidate.push_back(dropoff);
      candidate.insert(candidate.end(),
                       vehicle.plan.stops.begin() + static_cast<long>(j),
                       vehicle.plan.stops.end());

      const PlanEvaluation eval =
          EvaluatePlan(vehicle, candidate, now_s, oracle);
      if (!eval.feasible) continue;
      const Meters delta = eval.delivery_distance_m - base_delivery;
      if (delta < best_delta) {
        best_delta = delta;
        best.feasible = true;
        best.new_plan = candidate;
      }
    }
  }
  if (best.feasible) best.delta_delivery_m = best_delta;
  return best;
}

}  // namespace auctionride

#endif  // AUCTIONRIDE_TESTS_INSERTION_REFERENCE_H_
