#include "planner/pack_planner.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace auctionride {

std::pair<PackPrefixCache::Step*, bool> PackPrefixCache::FindOrAdd(
    const Key& key) {
  const auto [it, added] = steps_.try_emplace(key);
  if (added) {
    ++misses_;
  } else {
    ++hits_;
  }
  return {&it->second, !added};
}

PackPlanResult PlanPack(const Vehicle& vehicle,
                        std::span<const Order* const> orders, Seconds now_s,
                        const DistanceOracle& oracle, PackPrefixCache* cache) {
  PackPlanResult best;
  if (orders.empty()) return best;
  ARIDE_ACHECK(orders.size() <= static_cast<std::size_t>(kMaxPackSize));
  if (vehicle.CommittedRiders() + static_cast<int>(orders.size()) >
      vehicle.capacity) {
    return best;
  }
#ifndef NDEBUG
  for (const Order* o : orders) {
    ARIDE_DCHECK(o != nullptr);
    ARIDE_DCHECK(!vehicle.plan.ContainsOrder(o->id));
  }
#endif

  // Inserts `order` into the vehicle with plan `prefix_plan` and returns the
  // insertion's logical query count.
  Vehicle scratch = vehicle;
  const auto insert = [&](const std::vector<PlanStop>& prefix_plan,
                          const Order& order, InsertionResult* ins) {
    scratch.plan.stops = prefix_plan;
    const int64_t before = DistanceOracle::ThreadQueryCount();
    *ins = BestInsertion(scratch, order, now_s, oracle);
    return DistanceOracle::ThreadQueryCount() - before;
  };

  const std::size_t n = orders.size();
  std::array<std::size_t, kMaxPackSize> perm{};
  std::iota(perm.begin(), perm.begin() + static_cast<long>(n), 0);
  Meters best_delta{std::numeric_limits<double>::infinity()};
  InsertionResult ins;
  do {
    PackPrefixCache::Key key;
    key.vehicle = vehicle.id;
    key.orders.fill(-1);
    const std::vector<PlanStop>* plan = &vehicle.plan.stops;
    Meters delta_sum;
    bool ok = true;
    for (std::size_t k = 0; k < n && ok; ++k) {
      const Order& order = *orders[perm[k]];
      if (k + 1 == static_cast<std::size_t>(kMaxPackSize)) {
        // The last insertion of a full-size pack: no pack extends it.
        best.queries += insert(*plan, order, &ins);
        ok = ins.feasible;
        delta_sum += ins.delta_delivery_m;
        plan = &ins.new_plan;
        continue;
      }
      // A prefix some larger pack may share: read or fill the cache.
      key.orders[k] = order.id;
      const auto [step, cached] = cache->FindOrAdd(key);
      if (!cached) {
        step->queries = insert(*plan, order, &ins);
        step->feasible = ins.feasible;
        if (ins.feasible) {
          step->delta_sum = delta_sum + ins.delta_delivery_m;
          step->plan = std::move(ins.new_plan);
        }
      }
      best.queries += step->queries;
      ok = step->feasible;
      delta_sum = step->delta_sum;
      plan = &step->plan;
    }
    if (ok && delta_sum < best_delta) {
      best_delta = delta_sum;
      best.feasible = true;
      best.new_plan = *plan;
    }
  } while (std::next_permutation(perm.begin(), perm.begin() +
                                                   static_cast<long>(n)));

  if (best.feasible) best.delta_delivery_m = best_delta;
  return best;
}

}  // namespace auctionride
