#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "common/csv.h"
#include "workload/generator.h"
#include "workload/io.h"

namespace auctionride {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridNetworkOptions options;
    options.columns = 20;
    options.rows = 20;
    options.spacing_m = 800;
    options.seed = 5;
    net_ = BuildGridNetwork(options);
    oracle_ = std::make_unique<DistanceOracle>(&net_);
    nearest_ = std::make_unique<NearestNodeIndex>(&net_, 800);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<NearestNodeIndex> nearest_;
};

TEST_F(WorkloadTest, GeneratesRequestedCounts) {
  WorkloadOptions options;
  options.num_orders = 120;
  options.num_vehicles = 80;
  const Workload w = GenerateWorkload(options, *oracle_, *nearest_);
  EXPECT_EQ(w.orders.size(), 120u);
  EXPECT_EQ(w.vehicles.size(), 80u);
}

TEST_F(WorkloadTest, OrdersAreSortedRenumberedAndValid) {
  WorkloadOptions options;
  options.num_orders = 150;
  options.num_vehicles = 10;
  options.gamma = 1.5;
  const Workload w = GenerateWorkload(options, *oracle_, *nearest_);
  Seconds prev_time;
  for (std::size_t j = 0; j < w.orders.size(); ++j) {
    const Order& o = w.orders[j];
    EXPECT_EQ(o.id, static_cast<OrderId>(j));
    EXPECT_GE(o.issue_time_s, prev_time);
    prev_time = o.issue_time_s;
    EXPECT_LE(o.issue_time_s, options.duration_s);
    EXPECT_NE(o.origin, o.destination);
    EXPECT_GE(o.shortest_distance_m, Meters(options.min_trip_m));
    EXPECT_NEAR(o.shortest_time_s.value(),
                (o.shortest_distance_m / oracle_->speed_mps()).value(), 1e-9);
    // θ = (γ−1)·t(s,e)
    EXPECT_NEAR(o.max_wasted_time_s.value(), 0.5 * o.shortest_time_s.value(),
                1e-9);
    EXPECT_GT(o.valuation, Money(0));
    EXPECT_EQ(o.bid, o.valuation);  // truthful
  }
}

TEST_F(WorkloadTest, ValuationTracksTripLength) {
  WorkloadOptions options;
  options.num_orders = 300;
  options.num_vehicles = 1;
  options.price_noise_stddev = 0;
  const Workload w = GenerateWorkload(options, *oracle_, *nearest_);
  for (const Order& o : w.orders) {
    EXPECT_NEAR(o.valuation.value(),
                options.base_fare.value() +
                    options.per_km_rate * o.shortest_distance_m.value() /
                        1000.0,
                1e-9);
  }
}

TEST_F(WorkloadTest, DeterministicInSeed) {
  WorkloadOptions options;
  options.num_orders = 50;
  options.num_vehicles = 30;
  options.seed = 77;
  const Workload a = GenerateWorkload(options, *oracle_, *nearest_);
  const Workload b = GenerateWorkload(options, *oracle_, *nearest_);
  ASSERT_EQ(a.orders.size(), b.orders.size());
  for (std::size_t j = 0; j < a.orders.size(); ++j) {
    EXPECT_EQ(a.orders[j].origin, b.orders[j].origin);
    EXPECT_EQ(a.orders[j].destination, b.orders[j].destination);
    EXPECT_EQ(a.orders[j].bid, b.orders[j].bid);
    EXPECT_EQ(a.orders[j].issue_time_s, b.orders[j].issue_time_s);
  }
  for (std::size_t i = 0; i < a.vehicles.size(); ++i) {
    EXPECT_EQ(a.vehicles[i].vehicle.next_node,
              b.vehicles[i].vehicle.next_node);
  }
}

TEST_F(WorkloadTest, SeedsProduceDifferentWorkloads) {
  WorkloadOptions options;
  options.num_orders = 50;
  options.num_vehicles = 5;
  options.seed = 1;
  const Workload a = GenerateWorkload(options, *oracle_, *nearest_);
  options.seed = 2;
  const Workload b = GenerateWorkload(options, *oracle_, *nearest_);
  int differing = 0;
  for (std::size_t j = 0; j < a.orders.size(); ++j) {
    if (a.orders[j].origin != b.orders[j].origin) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST_F(WorkloadTest, SingleRoundIssuesEverythingAtTimeZero) {
  WorkloadOptions options;
  options.num_orders = 40;
  options.num_vehicles = 40;
  const Workload w = GenerateSingleRound(options, *oracle_, *nearest_);
  for (const Order& o : w.orders) {
    EXPECT_EQ(o.issue_time_s, Seconds(0));
  }
  for (const VehicleSpawn& v : w.vehicles) {
    EXPECT_EQ(v.online_s, Seconds(0));
    EXPECT_TRUE(v.vehicle.plan.empty());
  }
}

TEST_F(WorkloadTest, VehiclesSpawnOnNetworkNodes) {
  WorkloadOptions options;
  options.num_orders = 1;
  options.num_vehicles = 60;
  const Workload w = GenerateWorkload(options, *oracle_, *nearest_);
  for (const VehicleSpawn& v : w.vehicles) {
    EXPECT_GE(v.vehicle.next_node, 0);
    EXPECT_LT(v.vehicle.next_node, net_.num_nodes());
    EXPECT_EQ(v.vehicle.capacity, kDefaultCapacity);
    EXPECT_GT(v.offline_s, options.duration_s);
  }
}

TEST_F(WorkloadTest, CsvRoundTripPreservesEverything) {
  WorkloadOptions options;
  options.num_orders = 40;
  options.num_vehicles = 25;
  const Workload original = GenerateWorkload(options, *oracle_, *nearest_);
  const std::string path = testing::TempDir() + "/workload.csv";
  ASSERT_TRUE(SaveWorkloadCsv(original, path).ok());

  StatusOr<Workload> loaded = LoadWorkloadCsv(path, net_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->orders.size(), original.orders.size());
  ASSERT_EQ(loaded->vehicles.size(), original.vehicles.size());
  for (std::size_t j = 0; j < original.orders.size(); ++j) {
    const Order& a = original.orders[j];
    const Order& b = loaded->orders[j];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.destination, b.destination);
    EXPECT_NEAR(a.issue_time_s.value(), b.issue_time_s.value(), 1e-5);
    EXPECT_NEAR(a.bid.value(), b.bid.value(), 1e-5);
    EXPECT_NEAR(a.max_wasted_time_s.value(), b.max_wasted_time_s.value(),
                1e-5);
  }
  for (std::size_t i = 0; i < original.vehicles.size(); ++i) {
    EXPECT_EQ(original.vehicles[i].vehicle.next_node,
              loaded->vehicles[i].vehicle.next_node);
    EXPECT_EQ(original.vehicles[i].vehicle.capacity,
              loaded->vehicles[i].vehicle.capacity);
  }
}

TEST_F(WorkloadTest, LoadRejectsOutOfRangeNodes) {
  const std::string path = testing::TempDir() + "/bad_workload.csv";
  {
    StatusOr<CsvWriter> writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteRow({"order", "0", "999999", "1", "0", "100", "10", "5",
                      "20", "20"});
    ASSERT_TRUE(writer->Close().ok());
  }
  StatusOr<Workload> loaded = LoadWorkloadCsv(path, net_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
}

TEST_F(WorkloadTest, LoadRejectsMalformedRecords) {
  const std::string path = testing::TempDir() + "/short_workload.csv";
  {
    StatusOr<CsvWriter> writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteRow({"vehicle", "0", "1"});  // too few fields
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_FALSE(LoadWorkloadCsv(path, net_).ok());
}

// Writes `rows` to a scratch CSV and loads it, returning the status.
Status LoadRows(const RoadNetwork& net,
                const std::vector<std::vector<std::string>>& rows,
                const std::string& tag) {
  const std::string path = testing::TempDir() + "/" + tag + ".csv";
  StatusOr<CsvWriter> writer = CsvWriter::Open(path);
  if (!writer.ok()) return writer.status();
  for (const std::vector<std::string>& row : rows) writer->WriteRow(row);
  const Status closed = writer->Close();
  if (!closed.ok()) return closed;
  return LoadWorkloadCsv(path, net).status();
}

TEST_F(WorkloadTest, LoadRejectsNonFiniteOrderFields) {
  // strtod accepts "nan" and "inf"; the loader must not. Exercise every
  // floating-point order column, each with a message naming the field.
  const struct {
    int column;
    const char* field;
  } cases[] = {{4, "issue_time_s"}, {5, "shortest_distance_m"},
               {6, "shortest_time_s"}, {7, "max_wasted_time_s"},
               {8, "valuation"}, {9, "bid"}};
  for (const char* poison : {"nan", "inf", "-inf"}) {
    for (const auto& c : cases) {
      std::vector<std::string> row = {"order", "0", "1",  "2",  "0",
                                      "100",   "10", "5", "20", "20"};
      row[static_cast<std::size_t>(c.column)] = poison;
      const Status status = LoadRows(net_, {row}, "nonfinite_order");
      ASSERT_EQ(status.code(), StatusCode::kInvalidArgument)
          << c.field << " = " << poison;
      EXPECT_NE(status.message().find(c.field), std::string::npos)
          << status.message();
      EXPECT_NE(status.message().find("must be finite"), std::string::npos)
          << status.message();
    }
  }
}

TEST_F(WorkloadTest, LoadRejectsNonNumericFields) {
  const Status bad_bid = LoadRows(
      net_,
      {{"order", "0", "1", "2", "0", "100", "10", "5", "20", "cheap"}},
      "bad_bid");
  ASSERT_EQ(bad_bid.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_bid.message().find("bid 'cheap' is not a number"),
            std::string::npos)
      << bad_bid.message();

  const Status bad_id =
      LoadRows(net_, {{"vehicle", "v7", "1", "4", "0", "1800"}}, "bad_vid");
  ASSERT_EQ(bad_id.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_id.message().find("vehicle id 'v7' is not an integer"),
            std::string::npos)
      << bad_id.message();
}

TEST_F(WorkloadTest, LoadRejectsNonFiniteVehicleTimes) {
  for (int column : {4, 5}) {
    std::vector<std::string> row = {"vehicle", "0", "1", "4", "0", "1800"};
    row[static_cast<std::size_t>(column)] = "inf";
    const Status status = LoadRows(net_, {row}, "nonfinite_vehicle");
    ASSERT_EQ(status.code(), StatusCode::kInvalidArgument) << column;
    EXPECT_NE(status.message().find("must be finite"), std::string::npos)
        << status.message();
  }
}

TEST_F(WorkloadTest, LoadRejectsNonPositiveCapacity) {
  for (const char* capacity : {"0", "-3"}) {
    const Status status = LoadRows(
        net_, {{"vehicle", "0", "1", capacity, "0", "1800"}}, "bad_capacity");
    ASSERT_EQ(status.code(), StatusCode::kInvalidArgument) << capacity;
    EXPECT_NE(status.message().find("capacity must be positive"),
              std::string::npos)
        << status.message();
  }
}

TEST_F(WorkloadTest, LoadRejectsDuplicateOrderIds) {
  const Status status = LoadRows(
      net_,
      {{"order", "3", "1", "2", "0", "100", "10", "5", "20", "20"},
       {"order", "3", "5", "6", "10", "200", "20", "10", "30", "30"}},
      "dup_order");
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate order id 3"), std::string::npos)
      << status.message();
}

TEST_F(WorkloadTest, LoadRejectsDuplicateVehicleIds) {
  const Status status = LoadRows(net_,
                                 {{"vehicle", "9", "1", "4", "0", "1800"},
                                  {"vehicle", "9", "2", "4", "0", "1800"}},
                                 "dup_vehicle");
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate vehicle id 9"),
            std::string::npos)
      << status.message();
}

TEST_F(WorkloadTest, LoadRejectsOfflineBeforeOnline) {
  const Status status = LoadRows(
      net_, {{"vehicle", "0", "1", "4", "600", "300"}}, "offline_early");
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("precedes online_s"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace auctionride
