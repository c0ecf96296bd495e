// Test-only reference for GPri pricing (Algorithm 2): the direct re-run.
// For every winner r_h it copies the other orders into a new instance, runs
// GreedyDispatch on R \ {r_h} from scratch (seed sweep included) and replays
// that run's assignments over copies of r_h's pickup candidates.
// src/auction/gpri.cc computes the same payments from the dispatch's own
// seed table with r_h's slot skipped; tests assert the two agree bit for
// bit.

#ifndef AUCTIONRIDE_TESTS_GPRI_REFERENCE_H_
#define AUCTIONRIDE_TESTS_GPRI_REFERENCE_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "auction/greedy.h"
#include "auction/types.h"
#include "common/check.h"
#include "planner/insertion.h"

namespace auctionride {
namespace gpri_reference {

inline Money ReferenceGPriPriceOrder(const AuctionInstance& instance,
                                     OrderId order_id) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Order>& orders = *instance.orders;
  const auto priced_it =
      std::find_if(orders.begin(), orders.end(),
                   [&](const Order& o) { return o.id == order_id; });
  ARIDE_ACHECK(priced_it != orders.end());
  const Order& priced = *priced_it;

  // Algorithm 1 on R \ {r_h}, unbudgeted, in instance order.
  std::vector<Order> others(orders.begin(), priced_it);
  others.insert(others.end(), priced_it + 1, orders.end());
  AuctionInstance rerun = instance;
  rerun.orders = &others;
  rerun.deadline = nullptr;
  rerun.warm_start = nullptr;
  const DispatchResult run = GreedyDispatch(rerun).result;

  // Replay over copies of r_h's candidate vehicles: r_h's cheapest
  // insertion cost before every step and after the last.
  const MoneyPerMeter alpha_per_m{instance.config.alpha_d_per_km / 1000.0};
  std::vector<int32_t> near;
  PickupCandidateIndex(*instance.vehicles, *instance.oracle)
      .WithinRadius(priced, &near);
  std::vector<Vehicle> candidates;
  std::vector<Money> h_cost;
  auto insertion_cost = [&](const Vehicle& vehicle) {
    const InsertionResult ins =
        BestInsertion(vehicle, priced, instance.now_s, *instance.oracle);
    return ins.feasible ? alpha_per_m * ins.delta_delivery_m : Money(kInf);
  };
  for (int32_t v : near) {
    candidates.push_back((*instance.vehicles)[static_cast<std::size_t>(v)]);
    h_cost.push_back(insertion_cost(candidates.back()));
  }
  auto cheapest = [&] {
    Money best{kInf};
    for (Money c : h_cost) best = std::min(best, c);
    return best;
  };

  Money cheapest_replace{kInf};
  bool replaceable = true;
  for (const Assignment& step : run.assignments) {
    const Money h_cost_before = cheapest();
    replaceable = replaceable && !IsInf(h_cost_before);
    if (replaceable) {
      cheapest_replace =
          std::min(cheapest_replace, step.utility + h_cost_before);
    }
    for (std::size_t s = 0; s < candidates.size(); ++s) {
      if (candidates[s].id != step.vehicle) continue;
      const Order& order = *std::find_if(
          others.begin(), others.end(),
          [&](const Order& o) { return o.id == step.order; });
      const InsertionResult ins = BestInsertion(
          candidates[s], order, instance.now_s, *instance.oracle);
      ARIDE_ACHECK(ins.feasible);
      InsertStops(ins, order, instance.now_s, &candidates[s].plan.stops);
      h_cost[s] = insertion_cost(candidates[s]);
    }
  }

  Money pay = priced.bid;
  const Money h_cost_end = cheapest();
  if (h_cost_end < pay) pay = h_cost_end;
  pay = std::min(pay, cheapest_replace);
  return std::max(pay, Money(0.0));
}

/// Payments for every winner of `dispatch`, in assignment order.
inline std::vector<Payment> ReferenceGPriPriceAll(
    const AuctionInstance& instance, const DispatchResult& dispatch) {
  std::vector<Payment> payments;
  for (const Assignment& a : dispatch.assignments) {
    payments.push_back(
        {a.order, ReferenceGPriPriceOrder(instance, a.order)});
  }
  return payments;
}

}  // namespace gpri_reference
}  // namespace auctionride

#endif  // AUCTIONRIDE_TESTS_GPRI_REFERENCE_H_
