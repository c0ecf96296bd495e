#include <gtest/gtest.h>

#include <memory>

#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "workload/scenarios.h"

namespace auctionride {
namespace {

TEST(ScenariosTest, AllNamesResolve) {
  for (std::string_view name : ScenarioNames()) {
    StatusOr<WorkloadOptions> options = ScenarioByName(name, 0.02);
    ASSERT_TRUE(options.ok()) << name;
    EXPECT_GT(options->num_orders, 0);
    EXPECT_GT(options->num_vehicles, 0);
    EXPECT_GT(options->gamma, 1.0);
  }
}

TEST(ScenariosTest, UnknownNameIsNotFound) {
  StatusOr<WorkloadOptions> options = ScenarioByName("rush_hour");
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kNotFound);
}

TEST(ScenariosTest, ScaleControlsCounts) {
  const WorkloadOptions full = MorningPeakScenario(1.0);
  const WorkloadOptions fifth = MorningPeakScenario(0.2);
  EXPECT_EQ(full.num_orders, 5000);
  EXPECT_EQ(full.num_vehicles, 7000);
  EXPECT_EQ(fifth.num_orders, 1000);
  EXPECT_EQ(fifth.num_vehicles, 1400);
}

TEST(ScenariosTest, ShortageScenarioIsUnderSupplied) {
  const WorkloadOptions peak = MorningPeakScenario(0.1);
  const WorkloadOptions shortage = DowntownShortageScenario(0.1);
  EXPECT_LT(shortage.num_vehicles, peak.num_vehicles);
  EXPECT_GE(shortage.hotspot_probability, peak.hotspot_probability);
}

TEST(ScenariosTest, GeneratedScenariosDiffer) {
  GridNetworkOptions net_options;
  net_options.columns = 20;
  net_options.rows = 20;
  net_options.spacing_m = 800;
  net_options.seed = 5;
  RoadNetwork net = BuildGridNetwork(net_options);
  DistanceOracle oracle(&net);
  NearestNodeIndex nearest(&net, 800);

  const Workload suburban = GenerateWorkload(
      SuburbanScenario(0.02), oracle, nearest);
  const Workload peak = GenerateWorkload(
      MorningPeakScenario(0.02), oracle, nearest);
  Meters suburban_mean;
  for (const Order& o : suburban.orders) {
    suburban_mean += o.shortest_distance_m;
  }
  suburban_mean /= static_cast<double>(suburban.orders.size());
  Meters peak_mean;
  for (const Order& o : peak.orders) peak_mean += o.shortest_distance_m;
  peak_mean /= static_cast<double>(peak.orders.size());
  // Suburban trips are much longer by construction.
  EXPECT_GT(suburban_mean, peak_mean);
  EXPECT_GE(suburban_mean, Meters(6000));
}

}  // namespace
}  // namespace auctionride
