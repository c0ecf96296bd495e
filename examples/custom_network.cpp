// Bring-your-own road network: build a small city by hand, save it to the
// CSV interchange format, load it back, and run an auction round on it —
// the route a user takes to plug in a real (e.g. OpenStreetMap-derived)
// network instead of the synthetic builders.

#include <cstdio>
#include <vector>

#include "auction/mechanism.h"
#include "common/table.h"
#include "roadnet/io.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"

using namespace auctionride;

int main() {
  // 1) Hand-build a toy downtown: a 3 x 3 block grid plus one diagonal
  //    avenue, blocks of 500 m.
  RoadNetwork city;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      city.AddNode({c * 500.0, r * 500.0});
    }
  }
  auto id = [](int c, int r) { return r * 3 + c; };
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c + 1 < 3) city.AddBidirectionalEdge(id(c, r), id(c + 1, r), 500);
      if (r + 1 < 3) city.AddBidirectionalEdge(id(c, r), id(c, r + 1), 500);
    }
  }
  city.AddBidirectionalEdge(id(0, 0), id(2, 2), 1450);  // diagonal avenue
  city.Build();

  // 2) Persist and reload through the CSV interchange format.
  const std::string path = "/tmp/auctionride_city.csv";
  Status saved = SaveNetworkCsv(city, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  StatusOr<RoadNetwork> loaded = LoadNetworkCsv(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("saved and reloaded network: %d nodes, %lld edges (%s)\n",
              loaded->num_nodes(),
              static_cast<long long>(loaded->num_edges()), path.c_str());

  // 3) Run an auction round on the loaded network.
  DistanceOracle oracle(&*loaded);
  auto make_order = [&oracle](OrderId oid, NodeId s, NodeId e, double bid) {
    Order o;
    o.id = oid;
    o.origin = s;
    o.destination = e;
    o.shortest_distance_m = Meters(oracle.Distance(s, e));
    o.shortest_time_s = o.shortest_distance_m / oracle.speed_mps();
    o.max_wasted_time_s = o.shortest_time_s;  // γ = 2
    o.valuation = o.bid = Money(bid);
    return o;
  };
  std::vector<Order> orders = {
      make_order(0, id(0, 0), id(2, 2), 9.0),
      make_order(1, id(1, 0), id(2, 2), 8.0),
      make_order(2, id(2, 0), id(0, 2), 7.5),
  };
  std::vector<Vehicle> vehicles;
  Vehicle v;
  v.id = 0;
  v.next_node = id(0, 0);
  vehicles.push_back(v);

  AuctionInstance instance;
  instance.orders = &orders;
  instance.vehicles = &vehicles;
  instance.oracle = &oracle;
  instance.config.alpha_d_per_km = 3.0;

  const MechanismOutcome outcome =
      RunMechanism(MechanismKind::kRank, instance);
  std::printf("\nRank+DnW on the custom city (1 vehicle, 3 requesters):\n");
  TablePrinter table({"order", "trip km", "bid", "dispatched", "payment"});
  for (const Order& o : orders) {
    bool dispatched = outcome.dispatch.IsDispatched(o.id);
    double pay = 0;
    for (std::size_t i = 0; i < outcome.payments.size(); ++i) {
      if (outcome.payments[i].order == o.id) {
        pay = outcome.payments[i].payment.value();
      }
    }
    table.AddRow({std::to_string(o.id),
                  FormatDouble(o.shortest_distance_m.value() / 1000.0, 2),
                  FormatDouble(o.bid.value()), dispatched ? "yes" : "no",
                  dispatched ? FormatDouble(pay) : "-"});
  }
  table.Print();
  std::printf("overall utility U_auc = %.2f\n",
              outcome.dispatch.total_utility.value());
  return 0;
}
