#include "auction/gpri.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "auction/greedy.h"
#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace auctionride {

Money GPriPriceOrder(const AuctionInstance& instance, OrderId order_id) {
  // Each pricing re-runs a full greedy dispatch, so an unsampled timer is
  // cheap relative to the work measured.
  OBS_SCOPED_TIMER("auction.gpri.price_order_s");
  OBS_COUNTER_INC("auction.gpri.priced_orders");
  const Order* priced = nullptr;
  for (const Order& o : *instance.orders) {
    if (o.id == order_id) {
      priced = &o;
      break;
    }
  }
  ARIDE_ACHECK(priced != nullptr) << "priced order not in the instance";

  const GreedyTracedResult traced =
      GreedyDispatchExcluding(instance, order_id);

  Money pay = priced->bid;  // Algorithm 2 line 1
  // Dispatch after everyone, replacing nobody (lines 3-6): critical bid is
  // the cost itself (utility crosses the dispatch threshold at bid = cost).
  if (traced.h_cost_end < pay) pay = traced.h_cost_end;

  // Replace one of the dispatched requesters (lines 7-11).
  for (const GreedyStepTrace& step : traced.steps) {
    if (IsInf(step.h_cost_before)) {
      break;  // line 8: r_h had no valid pair left before this step
    }
    ARIDE_CHECK_GE(step.cost, Money(-1e-9)) << "order " << order_id;
    const Money replace_bid = step.bid - step.cost + step.h_cost_before;
    pay = std::min(pay, replace_bid);
  }
  // Individual rationality: pay starts at the bid and is only lowered.
  ARIDE_CHECK_LE(pay, priced->bid) << "order " << order_id;
  return std::max(pay, Money(0.0));
}

std::vector<Payment> GPriPriceAll(const AuctionInstance& instance,
                                  const DispatchResult& dispatch,
                                  ThreadPool* pool) {
  std::vector<Payment> payments(dispatch.assignments.size());
  // Pricing on `pool` spreads over the winners, which already fill it; the
  // per-winner dispatch re-runs stay serial rather than split that work
  // a second time.
  AuctionInstance priced_instance = instance;
  if (pool != nullptr) priced_instance.dispatch_pool = nullptr;
  ParallelForOrSerial(pool, payments.size(), [&](std::size_t i) {
    const OrderId id = dispatch.assignments[i].order;
    payments[i] = {id, GPriPriceOrder(priced_instance, id)};
  });
  return payments;
}

}  // namespace auctionride
