// Engine determinism regression (docs/ENGINE.md): a one-shard run's
// payments, utilities, dispatch counts, per-round records and events are
// pinned by digest under every fault profile, and one- and multi-shard
// engines must be bit-identical to themselves at any thread count (with
// and without faults, with the rebalancer active).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/simulator.h"
#include "testutil.h"
#include "workload/generator.h"

namespace auctionride {
namespace {

class EngineDeterminismTest : public ::testing::Test {
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

  Workload MorningPeakWorkload(uint64_t seed) {
    WorkloadOptions options;
    options.seed = seed;
    options.num_orders = 60;
    options.num_vehicles = 40;
    options.duration_s = Seconds(300);
    options.gamma = 1.8;
    return GenerateWorkload(options, *oracle_, *nearest_);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<NearestNodeIndex> nearest_;
};

EngineOptions BaseOptions(MechanismKind mechanism, uint64_t seed) {
  EngineOptions options;
  options.mechanism = mechanism;
  options.run_pricing = true;
  options.verify_dispatch = true;
  options.seed = seed;
  return options;
}

// The one-shard engine run of the workload, pinned to the last bit: a
// digest of its economic totals, round records and events under every fault
// profile and both mechanisms. A change that moves any of them — including
// the budgeted tier loop the storm profile exercises — fails here.
TEST_F(EngineDeterminismTest, PinnedResultDigests) {
  struct Pin {
    MechanismKind mechanism;
    FaultProfile profile;
    uint64_t digest;
  };
  const Pin pins[] = {
      {MechanismKind::kRank, FaultProfile::kNone, 0x4042a58e5630194fULL},
      {MechanismKind::kRank, FaultProfile::kBreakdowns, 0xd88512d7ea1e2bebULL},
      {MechanismKind::kRank, FaultProfile::kCancellations,
       0x8e9abf7726d4fceaULL},
      {MechanismKind::kRank, FaultProfile::kStorm, 0xd37a3108abf12c7aULL},
      {MechanismKind::kGreedy, FaultProfile::kNone, 0x10b5e4fa85007c35ULL},
      {MechanismKind::kGreedy, FaultProfile::kBreakdowns,
       0xaeb42a8dacac48f3ULL},
      {MechanismKind::kGreedy, FaultProfile::kCancellations,
       0x0031562f654fc95dULL},
      {MechanismKind::kGreedy, FaultProfile::kStorm, 0x12600e666973ef7eULL},
  };
  const uint64_t seed = 7;
  const Workload workload = MorningPeakWorkload(seed);
  for (const Pin& pin : pins) {
    EngineOptions options = BaseOptions(pin.mechanism, seed);
    options.faults = FaultOptionsForProfile(pin.profile, seed);
    const SimResult result = RunSimulation(oracle_.get(), workload, options);
    EXPECT_EQ(testutil::SimResultDigest(result), pin.digest)
        << MechanismName(pin.mechanism) << " / "
        << FaultProfileName(pin.profile);
  }
}

TEST_F(EngineDeterminismTest, MultiShardResultsIdenticalAtAnyThreadCount) {
  const Workload workload = MorningPeakWorkload(7);
  for (const int shards : {1, 4}) {
    EngineOptions options = BaseOptions(MechanismKind::kRank, 7);
    options.num_shards = shards;
    options.engine_threads = 1;
    const SimResult baseline =
        RunSimulation(oracle_.get(), workload, options);
    EXPECT_EQ(baseline.orders_total, 60);
    EXPECT_EQ(baseline.orders_dispatched + baseline.orders_expired, 60);

    // The engine's one pool carries the shard fan-out and, nested inside
    // it, every shard's dispatch and pricing. Its size may not matter.
    for (const int threads : {2, 8, -1}) {
      options.engine_threads = threads;
      const SimResult run = RunSimulation(oracle_.get(), workload, options);
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      testutil::ExpectSameResult(baseline, run);
    }
  }
}

TEST_F(EngineDeterminismTest, MultiShardStormProfileIsThreadCountInvariant) {
  EngineOptions options = BaseOptions(MechanismKind::kRank, 11);
  options.faults = FaultOptionsForProfile(FaultProfile::kStorm, options.seed);
  const Workload workload = MorningPeakWorkload(11);

  options.num_shards = 4;
  options.rebalance_period_rounds = 2;
  // Serial everywhere against pools of every size: priced Rank under storm
  // faults nests dispatch and pricing inside the shard tasks.
  options.engine_threads = -1;
  const SimResult baseline = RunSimulation(oracle_.get(), workload, options);

  for (const int threads : {1, 2, 8}) {
    options.engine_threads = threads;
    const SimResult run = RunSimulation(oracle_.get(), workload, options);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    testutil::ExpectSameResult(baseline, run);
  }
}

}  // namespace
}  // namespace auctionride
