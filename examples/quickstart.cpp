// Quickstart: build a road network, create a handful of requesters and
// vehicles, run both auction mechanisms (Greedy+GPri and Rank+DnW), and
// print the dispatch, payments, and utilities.

#include <cstdio>
#include <vector>

#include "auction/mechanism.h"
#include "common/table.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

using namespace auctionride;

int main() {
  // 1) A synthetic urban road network (~8 km x 8 km grid).
  GridNetworkOptions net_options;
  net_options.columns = 20;
  net_options.rows = 20;
  net_options.spacing_m = 400;
  net_options.seed = 7;
  RoadNetwork network = BuildGridNetwork(net_options);
  std::printf("road network: %d nodes, %lld directed edges\n",
              network.num_nodes(),
              static_cast<long long>(network.num_edges()));

  // 2) A distance oracle (contraction hierarchies + cache).
  DistanceOracle oracle(&network);
  NearestNodeIndex nearest(&network, 400);

  // 3) A small single-round workload: 12 requesters, 5 vehicles.
  WorkloadOptions wl_options;
  wl_options.seed = 3;
  wl_options.num_orders = 12;
  wl_options.num_vehicles = 5;
  wl_options.gamma = 1.8;
  wl_options.min_trip_m = 800;
  Workload workload = GenerateSingleRound(wl_options, oracle, nearest);

  std::vector<Order> orders = workload.orders;
  std::vector<Vehicle> vehicles;
  for (const VehicleSpawn& spawn : workload.vehicles) {
    vehicles.push_back(spawn.vehicle);
  }

  AuctionInstance instance;
  instance.orders = &orders;
  instance.vehicles = &vehicles;
  instance.now_s = Seconds(0);
  instance.oracle = &oracle;
  instance.config.alpha_d_per_km = 3.0;

  // 4) Run each mechanism and report.
  for (MechanismKind kind : {MechanismKind::kGreedy, MechanismKind::kRank}) {
    const MechanismOutcome outcome = RunMechanism(kind, instance);
    std::printf("\n=== %s ===\n", std::string(MechanismName(kind)).c_str());
    std::printf("dispatched %zu / %zu orders, overall utility U_auc = %.2f\n",
                outcome.dispatch.assignments.size(), orders.size(),
                outcome.dispatch.total_utility.value());

    TablePrinter table(
        {"order", "vehicle", "bid", "payment", "rider utility"});
    for (std::size_t i = 0; i < outcome.dispatch.assignments.size(); ++i) {
      const Assignment& a = outcome.dispatch.assignments[i];
      const Order& order = orders[static_cast<std::size_t>(a.order)];
      const double pay = outcome.payments[i].payment.value();
      table.AddRow({std::to_string(a.order), std::to_string(a.vehicle),
                    FormatDouble(order.bid.value()), FormatDouble(pay),
                    FormatDouble(order.valuation.value() - pay)});
    }
    table.Print();
    std::printf("platform utility U_plf = %.2f\n",
              outcome.platform_utility.value());
  }
  return 0;
}
