// Always-on sharded dispatch engine.
//
// The city is partitioned into region shards (engine/partition.h). Each
// shard owns its vehicles, its slice of the pending-order pool, and an
// auctioneer that runs batched RunMechanism rounds under exec/deadline.h
// budgets with the Rank → Greedy → FCFS degradation ladder. Orders arrive
// through one MPSC ingestion queue per shard (engine/ingest.h: one locked
// vector, drained and sorted by id at the start of each round), routed by
// pickup location; a periodic cross-shard rebalancer migrates idle vehicles
// toward demand with a deterministic fixed-order handoff.
//
// Rounds are lockstep: StepRound() fans the shard tasks out over the
// engine's exec::ThreadPool — the same pool each shard's dispatch and
// pricing nest on — then merges their buffered EffectBatches serially in
// ascending shard order, so a given seed and configuration produce
// bit-identical results at any engine thread count (docs/ENGINE.md).
//
// Clients drive the engine: the paper's round-based simulation
// (sim/simulator.h) and the replay/load-generator CLI
// (examples/engine_load.cpp) both submit orders and call StepRound().

#ifndef AUCTIONRIDE_ENGINE_ENGINE_H_
#define AUCTIONRIDE_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "auction/mechanism.h"
#include "common/stats.h"
#include "engine/faults.h"
#include "engine/ingest.h"
#include "engine/partition.h"
#include "engine/result.h"
#include "engine/world.h"
#include "exec/thread_pool.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

namespace auctionride {

struct EngineOptions {
  MechanismKind mechanism = MechanismKind::kRank;
  AuctionConfig auction;

  Seconds round_duration_s{10};  // t_rnd, paper default 10 s
  Seconds max_pending_s{300};    // orders are dropped after 5 minutes

  // Bonus escalation (paper §II-B: "the losing requesters in a round can
  // increase their bids in the next dispatch round"): every round an order
  // stays pended, its bid grows by this amount (yuan). 0 disables.
  Money pending_bid_increment;

  // Pricing (GPri/DnW) is much more expensive than dispatch; the
  // dispatch-only experiments (Figs 3-5, 8) turn it off.
  bool run_pricing = false;
  // Inert: engine_threads sizes the one pool that dispatch and pricing run
  // on. Kept only because perfbench/harness still assigns them.
  int pricing_threads = 0;
  int dispatch_threads = 0;

  // Re-validate every round's outcome with VerifyMechanismOutcome
  // (structure, Definition 4 feasibility, accounting, payments). Cheap
  // relative to dispatch; on in tests, available in production for
  // paranoia.
  bool verify_dispatch = false;

  uint64_t seed = 1;  // drives the idle random walk

  // Fault injection + degradation budgets (docs/ROBUSTNESS.md). Inactive by
  // default. Callers usually set this to FaultOptionsForProfile(profile,
  // seed) or FaultOptionsFromEnv(seed) — passing the run seed keeps one knob
  // reproducing the whole run.
  FaultOptions faults;

  // --- Sharding knobs ---
  int num_shards = 1;
  // Workers of the engine's one pool, on which the shard round tasks fan
  // out and each shard's dispatch and pricing run. 0 = hardware
  // concurrency, negative = everything serial on the caller thread. Never
  // changes results: shard tasks are independent, merges are serial
  // fixed-order, and dispatch and pricing are bit-identical to serial.
  int engine_threads = 0;
  // Cross-shard rebalance cadence (rounds); 0 disables. Idle vehicles are
  // migrated from surplus to deficit shards every period, lowest vehicle id
  // first, receivers ordered by (deficit desc, shard id asc).
  int rebalance_period_rounds = 6;
  // Global cap on vehicle migrations per rebalance pass.
  int rebalance_max_moves = 64;
};

/// Engine-maintained per-shard telemetry (plain counters + exact samples,
/// independent of the obs layer so BENCH engine objects work with
/// ARIDE_OBS=OFF).
struct ShardStats {
  uint64_t auction_rounds = 0;  // rounds where this shard ran a mechanism
  uint64_t ingested = 0;
  uint64_t migrations_in = 0;
  uint64_t migrations_out = 0;
  std::size_t peak_pending = 0;
  std::size_t peak_queue_depth = 0;
  // Per-tier auction-round counts (DispatchTier order: primary, greedy
  // fallback, FCFS fallback). A round is counted under the deepest tier
  // that contributed assignments.
  uint64_t tier_counts[kDispatchTierCount] = {0, 0, 0};
  // Auction rounds whose budget expired mid-dispatch.
  uint64_t truncated_rounds = 0;
  SampleSet round_s;  // wall latency of the shard's whole round task
};

struct EngineStats {
  uint64_t rounds = 0;  // StepRound calls
  uint64_t migrations = 0;
  uint64_t orders_submitted = 0;
  // Peak of Σ_shards (pending pool + ingest queue depth), sampled once per
  // round at the merge barrier.
  std::size_t peak_concurrent_orders = 0;
  uint64_t tier_counts[kDispatchTierCount] = {0, 0, 0};
  uint64_t truncated_rounds = 0;
  std::vector<ShardStats> shards;
};

class Engine {
 public:
  /// `oracle` and `orders` (the immutable catalog, dense ids == index) must
  /// outlive the engine. Vehicles are assigned to shards by spawn location.
  Engine(const DistanceOracle* oracle, const std::vector<Order>* orders,
         const std::vector<VehicleSpawn>& vehicles, EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int num_shards() const { return options_.num_shards; }
  const RegionPartition& partition() const { return partition_; }

  /// Current virtual time. Thread-safe (producers poll it to pace
  /// submissions against the round clock).
  Seconds now_s() const {
    return Seconds(now_atomic_.load(std::memory_order_relaxed));
  }
  int round_index() const { return round_index_; }

  /// Routes the order to its pickup-location shard's ingestion queue.
  /// Aborts when the order's id is outside the catalog or its origin or
  /// destination is outside the network. Thread-safe; may be called
  /// concurrently with StepRound().
  void SubmitOrder(const Order& order);

  /// Runs one lockstep dispatch round at the current virtual time: drain
  /// ingestion → inject faults → pending pass → per-shard auction → serial
  /// merge → rebalance (at cadence) → advance vehicles → clock += t_rnd.
  /// Must be called from one driver thread.
  void StepRound();

  /// Post-horizon drain: movement only, no auctions, capped at 2 h.
  void DrainDeliveries();

  /// Final aggregation + the always-on conservation contracts. The engine
  /// is unusable afterwards. Every ingestion queue must be empty (drive
  /// enough rounds to consume all submitted orders first).
  SimResult Finish();

  const EngineStats& stats() const { return stats_; }

 private:
  struct Shard;

  void RunShardRound(std::size_t shard_index, Seconds now_s);
  void Rebalance(Seconds now_s);

  const DistanceOracle* oracle_;
  const std::vector<Order>* orders_;
  EngineOptions options_;
  RegionPartition partition_;
  FaultPlan fault_plan_;

  std::vector<OrderLedgerEntry> ledger_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> engine_pool_;
  // Per-shard warm-start caches live in Shard; they only carry hints when a
  // budget can truncate a round, which keeps budget-free runs independent
  // of the cache.
  bool warm_enabled_ = false;

  Seconds clock_s_;
  // Raw representation of clock_s_, for lock-free producer polling.
  std::atomic<double> now_atomic_{0};
  int round_index_ = 0;
  std::atomic<uint64_t> orders_submitted_{0};
  SimResult result_;
  EngineStats stats_;
  bool finished_ = false;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ENGINE_ENGINE_H_
