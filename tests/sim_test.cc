#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "common/csv.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "testutil.h"
#include "workload/generator.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

class SimulatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridNetworkOptions options;
    options.columns = 15;
    options.rows = 15;
    options.spacing_m = 600;
    options.seed = 4;
    net_ = BuildGridNetwork(options);
    oracle_ = std::make_unique<DistanceOracle>(&net_);
    nearest_ = std::make_unique<NearestNodeIndex>(&net_, 600);
  }

  Workload SmallWorkload(int orders, int vehicles, uint64_t seed = 11) {
    WorkloadOptions options;
    options.seed = seed;
    options.num_orders = orders;
    options.num_vehicles = vehicles;
    options.duration_s = Seconds(300);
    options.gamma = 1.8;
    return GenerateWorkload(options, *oracle_, *nearest_);
  }

  SimResult Run(const EngineOptions& options, int orders, int vehicles,
                uint64_t seed = 11) {
    return RunSimulation(oracle_.get(), SmallWorkload(orders, vehicles, seed),
                         options);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<NearestNodeIndex> nearest_;
};

TEST_F(SimulatorTest, AllOrdersResolveAsDispatchedOrExpired) {
  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  const SimResult result = Run(options, 40, 30);
  EXPECT_EQ(result.orders_total, 40);
  EXPECT_EQ(result.orders_dispatched + result.orders_expired, 40);
  EXPECT_GT(result.orders_dispatched, 0);
}

TEST_F(SimulatorTest, DispatchedOrdersComplete) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  const SimResult result = Run(options, 30, 25);
  EXPECT_EQ(result.orders_completed, result.orders_dispatched);
}

TEST_F(SimulatorTest, WastedTimeConstraintNeverViolated) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  const SimResult result = Run(options, 50, 30, /*seed=*/21);
  ASSERT_GT(result.orders_completed, 0);
  // Definition 4: wt + dt <= θ for every completed order (small float slack).
  EXPECT_LE(result.max_wasted_time_violation_s, Seconds(1e-6));
}

TEST_F(SimulatorTest, GreedyAlsoRespectsConstraints) {
  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  const SimResult result = Run(options, 50, 30, /*seed=*/22);
  ASSERT_GT(result.orders_completed, 0);
  EXPECT_LE(result.max_wasted_time_violation_s, Seconds(1e-6));
}

TEST_F(SimulatorTest, UtilityMatchesRoundSum) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  const SimResult result = Run(options, 30, 20);
  Money round_sum;
  for (const RoundRecord& r : result.rounds) round_sum += r.round_utility;
  EXPECT_NEAR(result.total_utility.value(), round_sum.value(), 1e-9);
}

TEST_F(SimulatorTest, DeterministicGivenSeed) {
  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  options.seed = 9;
  const SimResult ra = Run(options, 25, 20);
  const SimResult rb = Run(options, 25, 20);
  EXPECT_EQ(ra.orders_dispatched, rb.orders_dispatched);
  EXPECT_DOUBLE_EQ(ra.total_utility.value(), rb.total_utility.value());
}

TEST_F(SimulatorTest, PricingProducesIndividuallyRationalPayments) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  options.run_pricing = true;
  options.engine_threads = 2;
  const SimResult result = Run(options, 25, 20, /*seed=*/31);
  ASSERT_GT(result.orders_dispatched, 0);
  // IR aggregated: requesters never pay more than their valuations.
  EXPECT_GE(result.requester_utility, Money(-1e-6));
  EXPECT_GE(result.total_payments, Money(0));
}

TEST_F(SimulatorTest, ShorterRoundsDispatchAtLeastAsEarly) {
  // More rounds = more dispatch opportunities before expiry; dispatch counts
  // should not collapse with shorter rounds.
  EngineOptions fast;
  fast.mechanism = MechanismKind::kGreedy;
  fast.round_duration_s = Seconds(5);
  EngineOptions slow = fast;
  slow.round_duration_s = Seconds(60);
  const SimResult ra = Run(fast, 40, 25, /*seed=*/41);
  const SimResult rb = Run(slow, 40, 25, /*seed=*/41);
  EXPECT_GT(ra.orders_dispatched, 0);
  EXPECT_GT(rb.orders_dispatched, 0);
  EXPECT_GT(ra.rounds.size(), rb.rounds.size());
}

TEST_F(SimulatorTest, ExpiredOrdersWhenNoVehicles) {
  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  const SimResult result = Run(options, 10, 0);
  EXPECT_EQ(result.orders_dispatched, 0);
  EXPECT_EQ(result.orders_expired, 10);
}

TEST_F(SimulatorTest, ChargeRatioTransfersUtilityToPlatform) {
  EngineOptions base;
  base.mechanism = MechanismKind::kRank;
  base.run_pricing = true;
  EngineOptions charged = base;
  charged.auction.charge_ratio = 0.3;
  const SimResult ra = Run(base, 30, 25, /*seed=*/51);
  const SimResult rb = Run(charged, 30, 25, /*seed=*/51);
  ASSERT_GT(ra.orders_dispatched, 0);
  ASSERT_GT(rb.orders_dispatched, 0);
  // With a charge the platform does strictly better per dispatched order.
  EXPECT_GT(rb.platform_utility / rb.orders_dispatched,
            ra.platform_utility / ra.orders_dispatched);
}

TEST_F(SimulatorTest, RiderExperienceMetricsArePopulated) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  const SimResult result = Run(options, 50, 35, /*seed=*/61);
  ASSERT_GT(result.orders_completed, 0);
  EXPECT_GE(result.mean_waiting_s, Seconds(0));
  // Detour can be 0 for solo direct rides but never negative on average.
  EXPECT_GE(result.mean_detour_s, Seconds(-1e-6));
  EXPECT_GE(result.shared_ride_fraction, 0);
  EXPECT_LE(result.shared_ride_fraction, 1);
  // Rank at shortage should produce at least some shared rides.
  EXPECT_GT(result.shared_ride_fraction, 0);
}

TEST_F(SimulatorTest, DriverUtilityFollowsBetaMinusAlpha) {
  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  options.auction.alpha_d_per_km = 3.0;
  options.auction.beta_d_per_km = 3.5;
  const SimResult result = Run(options, 30, 25, /*seed=*/62);
  ASSERT_GT(result.total_delivery_m, Meters(0));
  EXPECT_NEAR(result.driver_utility.value(),
              0.5 / 1000.0 * result.total_delivery_m.value(), 1e-6);
  // With beta = alpha the drivers break even.
  options.auction.beta_d_per_km = 3.0;
  EXPECT_NEAR(Run(options, 30, 25, /*seed=*/62).driver_utility.value(), 0,
              1e-9);
}

TEST_F(SimulatorTest, PendingBidEscalationImprovesDispatchRate) {
  // Starve the market so plenty of orders pend, then let pended orders
  // escalate their bids (§II-B): the dispatch rate must not drop and
  // should typically rise.
  EngineOptions base;
  base.mechanism = MechanismKind::kGreedy;
  base.auction.alpha_d_per_km = 3.6;
  EngineOptions escalating = base;
  escalating.pending_bid_increment = Money(1.0);
  const SimResult ra = Run(base, 60, 30, /*seed=*/63);
  const SimResult rb = Run(escalating, 60, 30, /*seed=*/63);
  EXPECT_GE(rb.orders_dispatched, ra.orders_dispatched);
  EXPECT_GT(rb.orders_dispatched, 0);
}

TEST_F(SimulatorTest, ReportSummaryAndCsvExports) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  options.run_pricing = true;
  const SimResult result = Run(options, 25, 20, /*seed=*/64);

  const std::string summary = FormatSummary(result);
  EXPECT_NE(summary.find("U_auc"), std::string::npos);
  EXPECT_NE(summary.find("dispatched"), std::string::npos);

  const std::string rounds_path = testing::TempDir() + "/rounds.csv";
  const std::string summary_path = testing::TempDir() + "/summary.csv";
  ASSERT_TRUE(WriteRoundsCsv(result, rounds_path).ok());
  ASSERT_TRUE(WriteSummaryCsv(result, summary_path).ok());

  StatusOr<std::vector<std::vector<std::string>>> rounds =
      ReadCsv(rounds_path);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(rounds->size(), result.rounds.size() + 1);  // header + rows
  EXPECT_EQ((*rounds)[0][0], "time_s");

  StatusOr<std::vector<std::vector<std::string>>> summary_rows =
      ReadCsv(summary_path);
  ASSERT_TRUE(summary_rows.ok());
  ASSERT_EQ(summary_rows->size(), 2u);
  EXPECT_EQ((*summary_rows)[0].size(), (*summary_rows)[1].size());
}

TEST_F(SimulatorTest, EventTraceIsConsistent) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  const SimResult result = Run(options, 40, 30, /*seed=*/71);

  // Per-order event sequences must follow the lifecycle state machine.
  std::map<OrderId, std::vector<OrderEventKind>> per_order;
  Seconds prev_time;
  for (const OrderEvent& event : result.events) {
    EXPECT_GE(event.time_s, Seconds(0));
    (void)prev_time;
    per_order[event.order].push_back(event.kind);
  }
  int issued = 0;
  int dispatched = 0;
  int expired = 0;
  for (const auto& [order, kinds] : per_order) {
    ASSERT_FALSE(kinds.empty());
    EXPECT_EQ(kinds.front(), OrderEventKind::kIssued) << "order " << order;
    issued += 1;
    const bool was_dispatched =
        std::find(kinds.begin(), kinds.end(), OrderEventKind::kDispatched) !=
        kinds.end();
    const bool was_expired =
        std::find(kinds.begin(), kinds.end(), OrderEventKind::kExpired) !=
        kinds.end();
    EXPECT_NE(was_dispatched, was_expired) << "order " << order;
    if (was_dispatched) {
      ++dispatched;
      EXPECT_EQ(kinds.back(), OrderEventKind::kDroppedOff)
          << "order " << order;
      // issued -> dispatched -> picked_up -> dropped_off, exactly once each.
      ASSERT_EQ(kinds.size(), 4u) << "order " << order;
      EXPECT_EQ(kinds[1], OrderEventKind::kDispatched);
      EXPECT_EQ(kinds[2], OrderEventKind::kPickedUp);
    } else {
      ++expired;
      EXPECT_EQ(kinds.size(), 2u) << "order " << order;
    }
  }
  EXPECT_EQ(issued, result.orders_total);
  EXPECT_EQ(dispatched, result.orders_dispatched);
  EXPECT_EQ(expired, result.orders_expired);
}

TEST_F(SimulatorTest, VerifyDispatchOptionRunsClean) {
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  options.verify_dispatch = true;  // ARIDE_ACHECK aborts on any violation
  options.auction.charge_ratio = 0.2;
  options.run_pricing = true;
  const SimResult result = Run(options, 30, 25, /*seed=*/72);
  EXPECT_GT(result.orders_dispatched, 0);
}

TEST_F(SimulatorTest, EventsCsvExport) {
  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  const SimResult result = Run(options, 20, 15, /*seed=*/73);
  const std::string path = testing::TempDir() + "/events.csv";
  ASSERT_TRUE(WriteEventsCsv(result, path).ok());
  StatusOr<std::vector<std::vector<std::string>>> rows = ReadCsv(path);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), result.events.size() + 1);
  EXPECT_EQ((*rows)[0][2], "event");
}

}  // namespace
}  // namespace auctionride
