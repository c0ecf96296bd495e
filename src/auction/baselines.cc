#include "auction/baselines.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/timer.h"
#include "planner/insertion.h"

namespace auctionride {

DispatchResult FcfsDispatch(const AuctionInstance& instance, bool serve_all) {
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

  DispatchResult result;
  std::vector<char> vehicle_touched(vehicles.size(), 0);
  std::vector<int32_t> candidates;
  for (std::size_t j : sequence) {
    const Order& order = orders[j];
    index.WithinRadius(order, &candidates);
    Meters best_delta{std::numeric_limits<double>::infinity()};
    int best_vehicle = -1;
    InsertionResult best_insertion;
    for (int32_t v : candidates) {
      InsertionResult ins = BestInsertion(
          vehicles[static_cast<std::size_t>(v)], order, instance.now_s,
          *instance.oracle);
      if (!ins.feasible || ins.delta_delivery_m >= best_delta) continue;
      best_delta = ins.delta_delivery_m;
      best_vehicle = v;
      best_insertion = std::move(ins);
    }
    if (best_vehicle < 0) continue;
    const Money cost = alpha_per_m * best_delta;
    if (!serve_all && order.bid - cost < instance.config.min_utility) {
      continue;
    }
    Vehicle& vehicle = vehicles[static_cast<std::size_t>(best_vehicle)];
    vehicle.plan.stops = best_insertion.new_plan;
    vehicle_touched[static_cast<std::size_t>(best_vehicle)] = 1;
    result.assignments.push_back(
        {order.id, vehicle.id, cost, order.bid - cost});
    result.total_utility += order.bid - cost;
    result.total_delta_delivery_m += best_delta;
  }

  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    if (vehicle_touched[i]) {
      result.updated_plans.push_back({i, vehicles[i].plan.stops});
    }
  }
  result.elapsed_seconds = Seconds(timer.ElapsedSeconds());
  return result;
}

}  // namespace auctionride
