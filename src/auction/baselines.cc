#include "auction/baselines.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/insertion.h"

namespace auctionride {

DispatchResult FcfsDispatch(const AuctionInstance& instance, bool serve_all) {
  OBS_TRACE_SPAN("auction.fcfs.dispatch");
  ARIDE_ACHECK(instance.orders != nullptr && instance.vehicles != nullptr &&
           instance.oracle != nullptr);
  WallTimer timer;
  const std::vector<Order>& orders = *instance.orders;
  std::vector<Vehicle> vehicles = *instance.vehicles;
  const MoneyPerMeter alpha_per_m{instance.config.alpha_d_per_km / 1000.0};

  const PickupCandidateIndex index(vehicles, *instance.oracle);

  // Issue order = id order (the workload renumbers by issue time).
  std::vector<std::size_t> sequence(orders.size());
  for (std::size_t j = 0; j < sequence.size(); ++j) sequence[j] = j;
  std::sort(sequence.begin(), sequence.end(),
            [&orders](std::size_t a, std::size_t b) {
              if (orders[a].issue_time_s != orders[b].issue_time_s) {
                return orders[a].issue_time_s < orders[b].issue_time_s;
              }
              return orders[a].id < orders[b].id;
            });

  // Every order's pickup candidates, in sequence order: order sequence[p]
  // owns pairs [offsets[p], offsets[p + 1]).
  std::vector<std::size_t> offsets = {0};
  std::vector<int32_t> pair_vehicle;
  std::vector<int32_t> pair_order;
  std::vector<int32_t> candidates;
  for (std::size_t j : sequence) {
    index.WithinRadius(orders[j], &candidates);
    pair_vehicle.insert(pair_vehicle.end(), candidates.begin(),
                        candidates.end());
    pair_order.insert(pair_order.end(), candidates.size(),
                      static_cast<int32_t>(j));
    offsets.push_back(pair_vehicle.size());
  }
  // Every pair is scored on the pool in one pass, against the instance's
  // plans. A vehicle's plan changes only when an order is assigned to it,
  // so the pick below re-scores just the pairs whose vehicle an earlier
  // order took; every score it reads is the one an in-order walk computes.
  std::vector<InsertionResult> scored(pair_vehicle.size());
  ParallelForOrSerial(
      instance.dispatch_pool, scored.size(), [&](std::size_t k) {
        scored[k] = BestInsertion(
            vehicles[static_cast<std::size_t>(pair_vehicle[k])],
            orders[static_cast<std::size_t>(pair_order[k])], instance.now_s,
            *instance.oracle);
      });

  DispatchResult result;
  std::vector<char> vehicle_touched(vehicles.size(), 0);
  int64_t rescored = 0;
  for (std::size_t p = 0; p < sequence.size(); ++p) {
    const Order& order = orders[sequence[p]];
    Meters best_delta{std::numeric_limits<double>::infinity()};
    int best_vehicle = -1;
    InsertionResult best_insertion;
    // Picked serially in candidate order: the first strict minimum wins,
    // at any thread count.
    for (std::size_t k = offsets[p]; k < offsets[p + 1]; ++k) {
      const auto v = static_cast<std::size_t>(pair_vehicle[k]);
      if (vehicle_touched[v]) {
        scored[k] =
            BestInsertion(vehicles[v], order, instance.now_s, *instance.oracle);
        ++rescored;
      }
      const InsertionResult& ins = scored[k];
      if (!ins.feasible || ins.delta_delivery_m >= best_delta) continue;
      best_delta = ins.delta_delivery_m;
      best_vehicle = pair_vehicle[k];
      best_insertion = ins;
    }
    if (best_vehicle < 0) continue;
    const Money cost = alpha_per_m * best_delta;
    if (!serve_all && order.bid - cost < instance.config.min_utility) {
      continue;
    }
    Vehicle& vehicle = vehicles[static_cast<std::size_t>(best_vehicle)];
    InsertStops(best_insertion, order, instance.now_s, &vehicle.plan.stops);
    vehicle_touched[static_cast<std::size_t>(best_vehicle)] = 1;
    result.assignments.push_back(
        {order.id, vehicle.id, cost, order.bid - cost});
    result.total_utility += order.bid - cost;
    result.total_delta_delivery_m += best_delta;
  }

  OBS_COUNTER_ADD("auction.fcfs.orders", static_cast<int64_t>(orders.size()));
  OBS_COUNTER_ADD("auction.fcfs.candidates",
                  static_cast<int64_t>(scored.size()));
  OBS_COUNTER_ADD("auction.fcfs.rescored", rescored);
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    if (vehicle_touched[i]) {
      result.updated_plans.push_back({i, vehicles[i].plan.stops});
    }
  }
  result.elapsed_seconds = Seconds(timer.ElapsedSeconds());
  return result;
}

}  // namespace auctionride
