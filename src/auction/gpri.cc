#include "auction/gpri.h"

#include <algorithm>
#include <limits>

#include "auction/greedy.h"
#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "planner/insertion.h"

namespace auctionride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Money PriceOrder(const AuctionInstance& instance,
                 const GreedySeedTable& seeds,
                 const PickupCandidateIndex& pickup_index,
                 OrderId order_id) {
  // Each pricing runs a full dispatch loop, so an unsampled timer is cheap
  // relative to the work measured.
  OBS_SCOPED_TIMER("auction.gpri.price_order_s");
  OBS_COUNTER_INC("auction.gpri.priced_orders");
  const std::vector<Order>& orders = *instance.orders;
  const auto priced_it =
      std::find_if(orders.begin(), orders.end(),
                   [&](const Order& o) { return o.id == order_id; });
  ARIDE_ACHECK(priced_it != orders.end())
      << "priced order not in the instance";
  const Order& priced = *priced_it;

  // Algorithm 1 on R \ {r_h}: the round's seed table with r_h's slot
  // skipped. The other orders keep their slots, so the run breaks heap ties
  // exactly as the main dispatch does.
  std::vector<int32_t> step_slots;
  const DispatchResult run = GreedyDispatchLoop(
      instance, seeds, static_cast<int>(priced_it - orders.begin()),
      &step_slots);

  // Replay the run over copies of r_h's candidate vehicles to recover
  // r_h's cheapest insertion cost before every step (pool_jk in
  // Algorithm 2). Only a candidate's own dispatches change its cost.
  const MoneyPerMeter alpha_per_m{instance.config.alpha_d_per_km / 1000.0};
  std::vector<int32_t> near;
  pickup_index.WithinRadius(priced, &near);
  std::vector<Vehicle> candidates;
  std::vector<Money> h_cost;  // parallel to candidates
  candidates.reserve(near.size());
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

  // The cheapest replacement bid of lines 7-11, up to the first step before
  // which r_h had no valid pair left (line 8: vehicles only fill up).
  Money cheapest_replace{kInf};
  bool replaceable = true;
  for (std::size_t k = 0; k < run.assignments.size(); ++k) {
    const Assignment& step = run.assignments[k];
    const Money h_cost_before = cheapest();
    replaceable = replaceable && !IsInf(h_cost_before);
    if (replaceable) {
      ARIDE_CHECK_GE(step.cost, Money(-1e-9)) << "order " << order_id;
      // utility = bid − cost, so this is bid_jk − cost_jk + h_cost_k.
      cheapest_replace =
          std::min(cheapest_replace, step.utility + h_cost_before);
    }
    for (std::size_t s = 0; s < candidates.size(); ++s) {
      if (candidates[s].id != step.vehicle) continue;
      const Order& order = orders[static_cast<std::size_t>(step_slots[k])];
      const InsertionResult ins = BestInsertion(candidates[s], order,
                                                instance.now_s,
                                                *instance.oracle);
      // Insertion is deterministic, so the copy takes the run's plan.
      ARIDE_ACHECK(ins.feasible) << "order " << step.order;
      ARIDE_CHECK_NEAR(alpha_per_m * ins.delta_delivery_m, step.cost, 1e-6)
          << "order " << step.order;
      InsertStops(ins, order, instance.now_s, &candidates[s].plan.stops);
      h_cost[s] = insertion_cost(candidates[s]);
    }
  }

  Money pay = priced.bid;  // Algorithm 2 line 1
  // Dispatch after everyone, replacing nobody (lines 3-6): critical bid is
  // the cost itself (utility crosses the dispatch threshold at bid = cost).
  const Money h_cost_end = cheapest();
  if (h_cost_end < pay) pay = h_cost_end;
  // Replace one of the dispatched requesters (lines 7-11).
  pay = std::min(pay, cheapest_replace);
  // Individual rationality: pay starts at the bid and is only lowered.
  ARIDE_CHECK_LE(pay, priced.bid) << "order " << order_id;
  return std::max(pay, Money(0.0));
}

}  // namespace

Money GPriPriceOrder(const AuctionInstance& instance,
                     const GreedySeedTable& seeds, OrderId order_id) {
  ARIDE_ACHECK(seeds.complete())
      << "a cut seed table must be completed first (GPriPriceAll does)";
  return PriceOrder(instance, seeds,
                    PickupCandidateIndex(*instance.vehicles, *instance.oracle),
                    order_id);
}

std::vector<Payment> GPriPriceAll(const AuctionInstance& instance,
                                  GreedySeedTable seeds,
                                  const DispatchResult& dispatch,
                                  ThreadPool* pool) {
  std::vector<Payment> payments(dispatch.assignments.size());
  // Every winner is priced against the same vehicle snapshot.
  const PickupCandidateIndex pickup_index(*instance.vehicles,
                                          *instance.oracle);
  // Pricing is unbudgeted, so a sweep the dispatch deadline cut is finished
  // here, once, before any winner's run reads the table.
  if (!seeds.complete()) {
    FillUnreachedSeeds(instance, pickup_index, &seeds, pool);
  }
  // Pricing on `pool` spreads over the winners, which already fill it; the
  // per-winner dispatch loops stay serial rather than split that work a
  // second time.
  AuctionInstance priced_instance = instance;
  if (pool != nullptr) priced_instance.dispatch_pool = nullptr;
  ParallelForOrSerial(pool, payments.size(), [&](std::size_t i) {
    const OrderId id = dispatch.assignments[i].order;
    payments[i] = {id, PriceOrder(priced_instance, seeds, pickup_index, id)};
  });
  return payments;
}

}  // namespace auctionride
