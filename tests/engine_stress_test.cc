// Concurrency stress for the sharded dispatch engine, meant to run under
// TSan (cmake --preset tsan): producer threads hammer the MPSC ingestion
// queues while the consumer drains, and a full engine runs dispatch rounds
// (including the cross-shard rebalancer) concurrently with live order
// submission.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/ingest.h"
#include "roadnet/oracle.h"
#include "testutil.h"

namespace auctionride {
namespace {

TEST(IngestQueueStressTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  constexpr int kTotal = kProducers * kPerProducer;

  IngestQueue queue;
  std::vector<Order> drained;
  std::atomic<bool> stop{false};

  // Consumer drains continuously while producers push — the engine's round
  // loop does the same thing against live SubmitOrder traffic.
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      queue.DrainTo(&drained);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Order order;
        order.id = static_cast<OrderId>(p * kPerProducer + i);
        queue.Push(order);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  consumer.join();
  queue.DrainTo(&drained);

  // Every order arrives exactly once, however the producers interleave.
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(kTotal));
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_GE(queue.peak_depth(), 1u);
  std::vector<OrderId> ids;
  ids.reserve(drained.size());
  for (const Order& o : drained) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(ids[static_cast<std::size_t>(i)], static_cast<OrderId>(i)) << i;
  }
}

TEST(EngineStressTest, ConcurrentSubmissionWithRebalancer) {
  // 12x12 lattice, orders clustered far from the vehicles so the
  // rebalancer has real work while producers race the round loop.
  RoadNetwork net = testutil::LatticeNetwork(12, 12, 500);
  DistanceOracle oracle(&net);
  const auto nodes = static_cast<uint64_t>(net.num_nodes());

  Rng rng(99);
  constexpr int kOrders = 400;
  std::vector<Order> orders;
  orders.reserve(kOrders);
  for (int j = 0; j < kOrders; ++j) {
    NodeId s = 0;
    NodeId e = 0;
    while (s == e) {
      s = static_cast<NodeId>(rng.UniformInt(nodes));
      e = static_cast<NodeId>(rng.UniformInt(nodes));
    }
    Order o = testutil::MakeOrder(j, s, e, rng.Uniform(10.0, 40.0), oracle,
                                  /*gamma=*/2.0);
    o.issue_time_s = Seconds(0.5 * j);  // spread over 200 s, already sorted
    orders.push_back(o);
  }

  std::vector<VehicleSpawn> vehicles;
  for (int i = 0; i < 40; ++i) {
    VehicleSpawn spawn;
    // All vehicles spawn in the bottom-left corner: cross-shard demand
    // imbalance by construction.
    spawn.vehicle = testutil::MakeVehicle(i, i % 24);
    spawn.online_s = Seconds(0);
    spawn.offline_s = Seconds(1e9);
    vehicles.push_back(spawn);
  }

  EngineOptions options;
  options.mechanism = MechanismKind::kGreedy;
  options.seed = 5;
  options.num_shards = 4;
  options.engine_threads = 2;
  options.rebalance_period_rounds = 1;  // rebalance every round
  options.rebalance_max_moves = 16;
  Engine engine(&oracle, &orders, vehicles, options);

  constexpr int kProducers = 4;
  std::vector<std::atomic<bool>> submitted(orders.size());
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &orders, &submitted, p] {
      for (std::size_t i = static_cast<std::size_t>(p); i < orders.size();
           i += kProducers) {
        while (engine.now_s() < orders[i].issue_time_s) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        engine.SubmitOrder(orders[i]);
        submitted[i].store(true, std::memory_order_release);
      }
    });
  }

  const Seconds horizon = orders.back().issue_time_s +
                          options.max_pending_s + options.round_duration_s;
  std::size_t caught_up = 0;  // orders [0, caught_up) are submitted
  while (engine.now_s() < horizon) {
    // The round loop leads the producers by at most one round. Rounds with
    // nothing pending take microseconds, so an unbounded lead can run past
    // every order's expiry before a producer wakes, and no order would
    // ever wait in a shard. Orders issued within the last round still
    // race this round's drain.
    const Seconds due_by = engine.now_s() - options.round_duration_s;
    while (caught_up < orders.size() &&
           orders[caught_up].issue_time_s <= due_by) {
      while (!submitted[caught_up].load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      ++caught_up;
    }
    engine.StepRound();
  }
  for (std::thread& t : producers) t.join();
  engine.StepRound();  // flush stragglers enqueued after the last drain
  engine.DrainDeliveries();

  const SimResult result = engine.Finish();
  const EngineStats& stats = engine.stats();

  // Nothing lost between producers, queues, shards, and the ledger (the
  // conservation contracts inside Finish() already checked the money).
  EXPECT_EQ(result.orders_total, kOrders);
  EXPECT_EQ(result.orders_dispatched + result.orders_expired, kOrders);
  uint64_t ingested = 0;
  uint64_t migrations_in = 0;
  uint64_t migrations_out = 0;
  for (const ShardStats& s : stats.shards) {
    ingested += s.ingested;
    migrations_in += s.migrations_in;
    migrations_out += s.migrations_out;
  }
  EXPECT_EQ(ingested, static_cast<uint64_t>(kOrders));
  EXPECT_EQ(stats.orders_submitted, static_cast<uint64_t>(kOrders));
  EXPECT_EQ(migrations_in, stats.migrations);
  EXPECT_EQ(migrations_out, stats.migrations);
  // The corner spawn forces the rebalancer to actually move vehicles.
  EXPECT_GT(stats.migrations, 0u);
}

}  // namespace
}  // namespace auctionride
