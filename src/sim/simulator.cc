#include "sim/simulator.h"

#include <algorithm>

#include "common/check.h"

namespace auctionride {

SimResult RunSimulation(const DistanceOracle* oracle, const Workload& workload,
                        const EngineOptions& options) {
  Engine engine(oracle, &workload.orders, workload.vehicles, options);

  Seconds horizon;
  for (const Order& o : workload.orders) {
    horizon = std::max(horizon, o.issue_time_s);
  }
  horizon += options.max_pending_s + options.round_duration_s;

  // Orders are submitted when their issue times come due, one batch ahead
  // of each round.
  std::size_t next_order = 0;  // orders are sorted by issue time
  while (engine.now_s() < horizon) {
    const Seconds now = engine.now_s();
    while (next_order < workload.orders.size() &&
           workload.orders[next_order].issue_time_s <= now) {
      engine.SubmitOrder(workload.orders[next_order]);
      ++next_order;
    }
    engine.StepRound();
  }
  ARIDE_ACHECK(next_order == workload.orders.size())
      << "orders issued beyond the simulation horizon";
  engine.DrainDeliveries();
  return engine.Finish();
}

}  // namespace auctionride
