// Bonus bidding (Use case 1 of the paper): during vehicle shortage, a
// requester sweeps his/her bonus bid and observes the auction's behaviour —
// below the critical payment the order is never dispatched; at or above it,
// the order wins and the payment *stays at the critical value* regardless of
// the bid (so bidding one's true valuation is optimal and safe).

#include <cstdio>
#include <vector>

#include "auction/dnw.h"
#include "auction/rank.h"
#include "common/table.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

using namespace auctionride;

int main() {
  RoadNetwork network = BuildGridNetwork(
      {.columns = 16, .rows = 16, .spacing_m = 500, .seed = 11});
  DistanceOracle oracle(&network);
  NearestNodeIndex nearest(&network, 500);

  // Vehicle shortage: 14 requesters compete for 4 vehicles.
  WorkloadOptions wl;
  wl.seed = 19;
  wl.num_orders = 14;
  wl.num_vehicles = 4;
  wl.gamma = 1.6;
  wl.min_trip_m = 1000;
  Workload workload = GenerateSingleRound(wl, oracle, nearest);
  std::vector<Order> orders = workload.orders;
  std::vector<Vehicle> vehicles;
  for (const VehicleSpawn& spawn : workload.vehicles) {
    vehicles.push_back(spawn.vehicle);
  }

  AuctionInstance instance;
  instance.orders = &orders;
  instance.vehicles = &vehicles;
  instance.oracle = &oracle;
  instance.config.alpha_d_per_km = 3.0;

  // Probe requester 0: sweep its bid and watch dispatch/payment/utility.
  const OrderId probe = 0;
  const double valuation = orders[0].valuation.value();
  std::printf("probed requester %d: valuation %.2f yuan, trip %.1f km\n\n",
              probe, valuation,
              orders[0].shortest_distance_m.value() / 1000.0);

  TablePrinter table({"bid", "dispatched", "payment", "rider utility"});
  for (double factor : {0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0}) {
    const double bid = valuation * factor;
    orders[0].bid = Money(bid);
    const RankRunResult run = RankDispatch(instance);
    if (run.result.IsDispatched(probe)) {
      const double pay =
          DnWPriceOrder(instance, run.artifacts, probe).value();
      table.AddRow({FormatDouble(bid), "yes", FormatDouble(pay),
                    FormatDouble(valuation - pay)});
    } else {
      table.AddRow({FormatDouble(bid), "no", "-", "0.00"});
    }
  }
  table.Print();

  std::printf(
      "\nNote how the payment is flat above the critical bid: over-bidding\n"
      "never increases the charge, and bids below it never win — the\n"
      "requester's best strategy is to bid the true valuation (Def. 11).\n");
  return 0;
}
