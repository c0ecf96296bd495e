// Test-only reference for pack planning (paper §IV-A, Algorithm 3): the
// uncached permutation walk. Every permutation re-inserts its orders from
// the committed plan with BestInsertion. src/planner/pack_planner.cc reuses
// the steps of proper prefixes from a PackPrefixCache; tests assert the two
// agree bit for bit, and that PackPlanResult::queries equals the oracle
// queries this walk makes (CountQueries around it).

#ifndef AUCTIONRIDE_TESTS_PACK_PLANNER_REFERENCE_H_
#define AUCTIONRIDE_TESTS_PACK_PLANNER_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "model/order.h"
#include "model/vehicle.h"
#include "planner/insertion.h"
#include "planner/pack_planner.h"
#include "roadnet/oracle.h"

namespace auctionride {

/// PlanPack without a cache; `queries` is left 0 (count with CountQueries).
inline PackPlanResult PlanPackReference(const Vehicle& vehicle,
                                        std::span<const Order* const> orders,
                                        Seconds now_s,
                                        const DistanceOracle& oracle) {
  PackPlanResult best;
  if (orders.empty()) return best;
  if (vehicle.CommittedRiders() + static_cast<int>(orders.size()) >
      vehicle.capacity) {
    return best;
  }

  std::vector<std::size_t> perm(orders.size());
  std::iota(perm.begin(), perm.end(), 0);
  Meters best_delta{std::numeric_limits<double>::infinity()};

  Vehicle scratch = vehicle;  // plan mutated per permutation
  do {
    scratch.plan = vehicle.plan;
    Meters delta_sum;
    bool ok = true;
    for (std::size_t idx : perm) {
      const InsertionResult ins =
          BestInsertion(scratch, *orders[idx], now_s, oracle);
      if (!ins.feasible) {
        ok = false;
        break;
      }
      delta_sum += ins.delta_delivery_m;
      scratch.plan.stops = ins.new_plan;
    }
    if (ok && delta_sum < best_delta) {
      best_delta = delta_sum;
      best.feasible = true;
      best.new_plan = scratch.plan.stops;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  if (best.feasible) best.delta_delivery_m = best_delta;
  return best;
}

}  // namespace auctionride

#endif  // AUCTIONRIDE_TESTS_PACK_PLANNER_REFERENCE_H_
