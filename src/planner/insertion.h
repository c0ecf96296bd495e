// Insertion-based route planning (paper §III-A).
//
// To dispatch a new order, its pickup and drop-off are inserted into the
// vehicle's travel plan at the pair of positions that minimizes the increase
// in *delivery* travel distance, subject to the validity constraints of
// Definition 4. The search space is quadratic in the plan length (which is
// at most 2·c̄), the common practice the paper adopts from [4,10,20,21,28].
//
// The search runs in two phases that make it cheap without changing a single
// result bit (see BestInsertion):
//
//   1. a *lossless pruning sweep* walks every (i, j) candidate against
//      certified per-leg lower bounds (DistanceOracle::LowerBoundDistance)
//      resumed from cached exact prefix states, discarding candidates whose
//      bounded walk already violates capacity or a deadline — without any
//      shortest-path query for the new legs;
//   2. an *exact incremental pass* batch-fetches only the surviving legs
//      (DistanceOracle::DistanceBatch) and re-walks survivors from the same
//      prefix snapshots with exact distances.
//
// Because round-to-nearest IEEE addition/division are monotone, running the
// identical operation sequence on lower-bounded leg values yields a clock
// that is <= the exact walk's clock bitwise, so a deadline violated under
// the bounds is violated exactly; capacity/precedence counters never depend
// on leg values at all. Hence phase 1 only ever removes candidates phase 2
// would have found infeasible, and the surviving evaluation is the exact
// historical operation sequence — same best plan, same ΔD, bit for bit
// (property-tested against the from-scratch search in
// tests/insertion_reference.h, which evaluates every candidate with a full
// EvaluatePlan walk).

#ifndef AUCTIONRIDE_PLANNER_INSERTION_H_
#define AUCTIONRIDE_PLANNER_INSERTION_H_

#include <vector>

#include "model/order.h"
#include "model/vehicle.h"
#include "planner/plan_eval.h"
#include "roadnet/oracle.h"
#include "spatial/grid_index.h"

namespace auctionride {

struct InsertionResult {
  bool feasible = false;
  // Increase in delivery distance ΔD_i(r_j).
  Meters delta_delivery_m;
  // The vehicle's plan with the order inserted (only valid when feasible).
  std::vector<PlanStop> new_plan;
};

/// Finds the cheapest valid insertion of `order` into `vehicle`'s plan at
/// time `now_s` (the dispatch round time: the order's drop-off deadline is
/// DropoffDeadline(now_s)). Returns feasible = false when no insertion
/// position satisfies the constraints — in particular whenever the
/// committed plan itself does not walk, since every candidate keeps its
/// stops in order.
InsertionResult BestInsertion(const Vehicle& vehicle, const Order& order,
                              Seconds now_s, const DistanceOracle& oracle);

/// Quick necessary condition used for exact spatial pruning: a dispatch can
/// only be valid if the vehicle can reach the origin and complete the trip
/// within the deadline even with an otherwise empty plan, i.e.
/// d(vehicle, s_j)/speed + t(s_j, e_j) <= θ_j + t(s_j, e_j). This bounds the
/// vehicle-origin ROAD distance by speed·θ_j.
Meters MaxPickupRadiusM(const Order& order, MetersPerSecond speed_mps);

/// The same necessary condition expressed as a EUCLIDEAN radius for grid
/// index lookups: road distance >= lower_bound_scale() × straight-line
/// distance, so a vehicle farther than MaxPickupRadiusM / scale in a
/// straight line cannot be within MaxPickupRadiusM by road. When the scale
/// is <= 1 this degrades to MaxPickupRadiusM itself (straight-line distance
/// never exceeds road distance), which is the historical radius — so the
/// candidate sets only ever shrink, and only losslessly.
Meters EuclideanPickupRadiusM(const Order& order,
                              const DistanceOracle& oracle);

/// Cell size of the per-round vehicle grid (meters), shared by
/// PickupCandidateIndex and Rank's nearest-vehicle lookup so the pickup
/// radius and the index resolution cannot drift apart.
inline constexpr double kVehicleGridCellM = 1000;

/// The vehicles that may serve an order: a grid over a vehicle snapshot's
/// next_node positions, queried within EuclideanPickupRadiusM of the
/// order's origin. Exact: a vehicle left out has no feasible BestInsertion
/// for the order (PickupCandidateIndexTest pins this on random instances).
/// Build once per snapshot; queries are const and thread-safe.
class PickupCandidateIndex {
 public:
  PickupCandidateIndex(const std::vector<Vehicle>& vehicles,
                       const DistanceOracle& oracle);

  /// Writes into `*out` (cleared first) the snapshot indices of the
  /// vehicles within the pickup radius of `order`'s origin.
  void WithinRadius(const Order& order, std::vector<int32_t>* out) const;

 private:
  const DistanceOracle& oracle_;
  GridIndex grid_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_PLANNER_INSERTION_H_
