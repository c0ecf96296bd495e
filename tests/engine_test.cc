// Unit tests for the dispatch-engine building blocks: region partitioning,
// the ingestion queue's single-threaded contract, and the cross-shard
// rebalancer's bookkeeping. Concurrency is covered by
// engine_stress_test.cc; bit-identity by engine_determinism_test.cc.

#include <gtest/gtest.h>

#include <vector>

#include "engine/engine.h"
#include "engine/ingest.h"
#include "engine/partition.h"
#include "roadnet/oracle.h"
#include "testutil.h"

namespace auctionride {
namespace {

TEST(RegionPartitionTest, SingleShardMapsEverythingToZero) {
  RoadNetwork net = testutil::LatticeNetwork(6, 6, 500);
  RegionPartition partition(&net, 1);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_EQ(partition.ShardOfNode(n), 0);
  }
  EXPECT_EQ(partition.CenterNode(0) >= 0, true);
}

TEST(RegionPartitionTest, FourShardsCoverTheLatticeInQuadrants) {
  RoadNetwork net = testutil::LatticeNetwork(10, 10, 500);
  RegionPartition partition(&net, 4);

  std::vector<int> population(4, 0);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const int shard = partition.ShardOfNode(n);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    ++population[static_cast<std::size_t>(shard)];
  }
  // A uniform lattice splits into four populated quadrants.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(population[static_cast<std::size_t>(s)], 0) << s;
    const NodeId center = partition.CenterNode(s);
    ASSERT_GE(center, 0);
    ASSERT_LT(center, net.num_nodes());
    // Each shard's relocation anchor lies inside the shard it serves.
    EXPECT_EQ(partition.ShardOfNode(center), s) << s;
  }
  // Opposite lattice corners never share a shard.
  EXPECT_NE(partition.ShardOfNode(0), partition.ShardOfNode(99));
}

TEST(IngestQueueTest, DrainReturnsEverythingPushedOnce) {
  IngestQueue queue;
  EXPECT_EQ(queue.depth(), 0u);
  for (int i = 0; i < 10; ++i) {
    Order o;
    o.id = i;
    queue.Push(o);
  }
  EXPECT_EQ(queue.depth(), 10u);
  EXPECT_GE(queue.peak_depth(), 10u);

  std::vector<Order> out;
  EXPECT_EQ(queue.DrainTo(&out), 10u);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.DrainTo(&out), 0u);  // drained queue is empty
  EXPECT_EQ(out.size(), 10u);
}

TEST(EngineTest, RoundClockAdvancesByRoundDuration) {
  RoadNetwork net = testutil::LatticeNetwork(6, 6, 500);
  DistanceOracle oracle(&net);
  std::vector<Order> orders;  // empty catalog: rounds still tick
  std::vector<VehicleSpawn> vehicles;

  EngineOptions options;
  options.round_duration_s = Seconds(10);
  options.num_shards = 2;
  options.engine_threads = -1;
  Engine engine(&oracle, &orders, vehicles, options);

  EXPECT_EQ(engine.now_s(), Seconds(0));
  EXPECT_EQ(engine.round_index(), 0);
  engine.StepRound();
  engine.StepRound();
  EXPECT_EQ(engine.now_s(), Seconds(20));
  EXPECT_EQ(engine.round_index(), 2);
  EXPECT_EQ(engine.stats().rounds, 2u);
}

TEST(EngineDeathTest, SubmitOrderRejectsNodesOutsideTheNetwork) {
  RoadNetwork net = testutil::LatticeNetwork(4, 4, 500);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {testutil::MakeOrder(0, 0, 5, 20.0, oracle)};
  std::vector<VehicleSpawn> vehicles;
  // Pool-free, so the death test forks a single-threaded process.
  EngineOptions options;
  options.engine_threads = -1;
  options.run_pricing = false;
  Engine engine(&oracle, &orders, vehicles, options);

  Order bad_origin = orders[0];
  bad_origin.origin = net.num_nodes();
  EXPECT_DEATH(engine.SubmitOrder(bad_origin), "outside the network");
  Order bad_destination = orders[0];
  bad_destination.destination = -1;
  EXPECT_DEATH(engine.SubmitOrder(bad_destination), "outside the network");
  engine.SubmitOrder(orders[0]);  // in range: accepted
  engine.StepRound();
  EXPECT_EQ(engine.Finish().orders_total, 1);
}

TEST(EngineTest, RebalancerMigratesIdleVehiclesTowardDemand) {
  // Vehicles all spawn in the left half, every order originates in the
  // right half: the rebalancer must move idle supply across the boundary.
  RoadNetwork net = testutil::LatticeNetwork(12, 6, 500);
  DistanceOracle oracle(&net);

  std::vector<Order> orders;
  Rng rng(3);
  for (int j = 0; j < 30; ++j) {
    // Origins and destinations in columns 8..11 (right side).
    const NodeId s = static_cast<NodeId>(
        rng.UniformInt(uint64_t{6}) * 12 + 8 + rng.UniformInt(uint64_t{2}));
    const NodeId e = static_cast<NodeId>(
        rng.UniformInt(uint64_t{6}) * 12 + 10 + rng.UniformInt(uint64_t{2}));
    Order o = testutil::MakeOrder(j, s, e == s ? s + 1 : e, 25.0, oracle);
    o.issue_time_s = Seconds(2.0 * j);
    orders.push_back(o);
  }
  std::vector<VehicleSpawn> vehicles;
  for (int i = 0; i < 10; ++i) {
    VehicleSpawn spawn;
    spawn.vehicle = testutil::MakeVehicle(i, i % 4);  // left-edge columns
    spawn.online_s = Seconds(0);
    spawn.offline_s = Seconds(1e9);
    vehicles.push_back(spawn);
  }

  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  options.num_shards = 2;
  options.engine_threads = -1;
  options.rebalance_period_rounds = 1;
  options.rebalance_max_moves = 8;
  Engine engine(&oracle, &orders, vehicles, options);

  std::size_t next = 0;
  const Seconds horizon =
      orders.back().issue_time_s + options.max_pending_s +
      options.round_duration_s;
  while (engine.now_s() < horizon) {
    while (next < orders.size() &&
           orders[next].issue_time_s <= engine.now_s()) {
      engine.SubmitOrder(orders[next]);
      ++next;
    }
    engine.StepRound();
  }
  engine.DrainDeliveries();
  const SimResult result = engine.Finish();
  const EngineStats& stats = engine.stats();

  EXPECT_GT(stats.migrations, 0u);
  uint64_t in = 0;
  uint64_t out = 0;
  for (const ShardStats& s : stats.shards) {
    in += s.migrations_in;
    out += s.migrations_out;
  }
  EXPECT_EQ(in, stats.migrations);
  EXPECT_EQ(out, stats.migrations);
  // Supply actually reached the demand: some right-half orders dispatched.
  EXPECT_GT(result.orders_dispatched, 0);
  EXPECT_EQ(result.orders_total, 30);
}

}  // namespace
}  // namespace auctionride
