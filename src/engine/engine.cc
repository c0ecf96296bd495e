#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "auction/warm_start.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auctionride {

// All per-shard state one round task touches. Between the fan-out and the
// serial merge barrier, a shard's fields are written only by its own task.
struct Engine::Shard {
  std::unique_ptr<ShardWorld> world;
  IngestQueue queue;

  // Round-task output slots, merged serially in shard order.
  EffectBatch fault_fx;
  EffectBatch pending_fx;
  EffectBatch auction_fx;
  EffectBatch advance_fx;
  bool advance_busy = false;
  // This round's auction record; empty when the shard ran no auction.
  std::optional<RoundRecord> record;
  // Warm-start hints carried between this shard's rounds. Shard-local:
  // written only by this shard's round task and at serial barriers
  // (migration), so the cache is a pure function of the shard's own event
  // sequence at any engine thread count.
  WarmStartCache warm;
  Money platform_utility;
  Money requester_utility;

  ShardStats stats;
};

Engine::Engine(const DistanceOracle* oracle, const std::vector<Order>* orders,
               const std::vector<VehicleSpawn>& vehicles,
               EngineOptions options)
    : oracle_(oracle),
      orders_(orders),
      options_(options),
      partition_(&oracle->network(), options.num_shards),
      fault_plan_(options.faults) {
  ARIDE_ACHECK(oracle_ != nullptr);
  ARIDE_ACHECK(orders_ != nullptr);
  ARIDE_ACHECK(options_.round_duration_s > Seconds(0));
  ARIDE_ACHECK(options_.num_shards >= 1);
  for (std::size_t j = 0; j < orders_->size(); ++j) {
    ARIDE_ACHECK((*orders_)[j].id == static_cast<OrderId>(j))
        << "order ids must be dense and index-aligned";
  }
  ledger_.resize(orders_->size());

  WorldOptions world_options;
  world_options.round_duration_s = options_.round_duration_s;
  world_options.max_pending_s = options_.max_pending_s;
  world_options.pending_bid_increment = options_.pending_bid_increment;

  shards_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Shard 0 inherits the engine seed unchanged (a one-shard run's idle
    // walk is the seed's own stream); the others get independent
    // splitmix-stepped streams.
    const uint64_t shard_seed =
        options_.seed +
        static_cast<uint64_t>(s) * 0x9e3779b97f4a7c15ULL;
    shard->world = std::make_unique<ShardWorld>(
        oracle_, orders_, &ledger_, world_options, shard_seed);
    shards_.push_back(std::move(shard));
  }
  for (const VehicleSpawn& spawn : vehicles) {
    const int s = partition_.ShardOfNode(spawn.vehicle.next_node);
    shards_[static_cast<std::size_t>(s)]->world->AddVehicle(spawn);
  }

  warm_enabled_ = options_.faults.round_budget_s > 0;

  if (options_.engine_threads >= 0) {
    const int threads =
        options_.engine_threads > 0
            ? options_.engine_threads
            : static_cast<int>(std::thread::hardware_concurrency());
    engine_pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(std::max(1, threads)));
  }
  stats_.shards.resize(shards_.size());
}

Engine::~Engine() = default;

void Engine::SubmitOrder(const Order& order) {
  ARIDE_ACHECK(order.id >= 0 &&
               static_cast<std::size_t>(order.id) < orders_->size())
      << "order id " << order.id << " outside the catalog";
  // ShardOfNode indexes the network's node positions unchecked.
  const NodeId num_nodes = oracle_->network().num_nodes();
  ARIDE_ACHECK(order.origin >= 0 && order.origin < num_nodes &&
               order.destination >= 0 && order.destination < num_nodes)
      << "order " << order.id << " has a node outside the network";
  const int s = partition_.ShardOfNode(order.origin);
  shards_[static_cast<std::size_t>(s)]->queue.Push(order);
  orders_submitted_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNTER_INC("engine.orders.submitted");
}

void Engine::RunShardRound(std::size_t shard_index, Seconds now_s) {
  Shard& sh = *shards_[shard_index];
  WallTimer timer;
  sh.fault_fx = EffectBatch();
  sh.pending_fx = EffectBatch();
  sh.auction_fx = EffectBatch();
  sh.record.reset();

  // Drain ingestion into the pending pool (sorted by id — the producers'
  // arrival interleaving cannot change the auction input).
  std::vector<Order> drained_orders;
  const std::size_t drained = sh.queue.DrainTo(&drained_orders);
  sh.stats.ingested += drained;
  sh.world->EnqueueBatch(std::move(drained_orders));
  OBS_COUNTER_ADD("engine.orders.ingested", static_cast<int64_t>(drained));

  if (options_.faults.any()) {
    sh.fault_fx = sh.world->InjectFaults(fault_plan_, round_index_, now_s);
    if (warm_enabled_) InvalidateWarmStart(sh.fault_fx, &sh.warm);
  }

  PendingPass pass = sh.world->CollectPending(now_s);
  sh.pending_fx = std::move(pass.fx);
  if (warm_enabled_) InvalidateWarmStart(sh.pending_fx, &sh.warm);
  sh.stats.peak_pending =
      std::max(sh.stats.peak_pending, sh.world->pending_size());

  if (!pass.submitted.empty()) {
    std::vector<std::size_t> online_idx;
    const std::vector<Vehicle> online =
        sh.world->OnlineSnapshot(now_s, &online_idx);
    if (!online.empty()) {
      AuctionInstance instance;
      instance.orders = &pass.submitted;
      instance.vehicles = &online;
      instance.now_s = now_s;
      instance.oracle = oracle_;
      instance.config = options_.auction;
      instance.warm_start = warm_enabled_ ? &sh.warm : nullptr;

      MechanismOptions mech_options;
      mech_options.run_pricing = options_.run_pricing;
      if (options_.faults.round_budget_s > 0) {
        const bool spike = fault_plan_.IsSpikeRound(round_index_);
        if (options_.faults.wall_clock_budget || spike) {
          mech_options.budget.budget_s = options_.faults.round_budget_s;
          mech_options.budget.wall_clock = options_.faults.wall_clock_budget;
          if (spike) {
            mech_options.budget.query_penalty_s =
                options_.faults.spike_query_penalty_s;
            OBS_COUNTER_INC("sim.faults.spike_rounds");
          }
        }
      }
      // Dispatch and pricing fan out over the pool this shard task may
      // itself be running on.
      const MechanismOutcome outcome =
          RunMechanism(options_.mechanism, instance, mech_options,
                       engine_pool_.get(), engine_pool_.get());

      if (options_.verify_dispatch) {
        const Status verified = VerifyMechanismOutcome(instance, outcome);
        ARIDE_ACHECK(verified.ok()) << verified.ToString();
      }

      sh.auction_fx = sh.world->ApplyOutcome(outcome.dispatch,
                                             outcome.payments, now_s,
                                             online_idx);
      sh.platform_utility = outcome.platform_utility;
      sh.requester_utility = outcome.requester_utility;
      if (warm_enabled_) {
        // This round's surviving candidates become next round's hints,
        // minus whatever the outcome itself just invalidated: dispatched
        // orders leave the pool, and a vehicle with a new plan makes its
        // old hints stale.
        sh.warm.Clear();
        for (const auto& [order, vehicle] :
             outcome.dispatch.surviving_pairs) {
          sh.warm.Note(order, vehicle);
        }
        for (const Assignment& a : outcome.dispatch.assignments) {
          sh.warm.InvalidateOrder(a.order);
        }
        for (const auto& [veh_idx, plan] : outcome.dispatch.updated_plans) {
          sh.warm.InvalidateVehicle(online[veh_idx].id);
        }
      }

      RoundRecord& record = sh.record.emplace();
      record.time_s = now_s;
      record.pending_orders = static_cast<int>(pass.submitted.size());
      record.online_vehicles = static_cast<int>(online.size());
      record.dispatched =
          static_cast<int>(outcome.dispatch.assignments.size());
      record.round_utility = outcome.dispatch.total_utility;
      record.dispatch_seconds = outcome.dispatch_seconds;
      record.pricing_seconds = outcome.pricing_seconds;
      record.dispatch_tier = outcome.tier;
      for (int t = 0; t < kDispatchTierCount; ++t) {
        record.dispatched_by_tier[t] = outcome.dispatched_by_tier[t];
      }
      record.truncated = outcome.truncated;
      record.shard = static_cast<int>(shard_index);
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  sh.stats.round_s.Add(elapsed);
  OBS_HISTOGRAM_OBSERVE("engine.shard.round_s", elapsed);
}

void Engine::StepRound() {
  ARIDE_ACHECK(!finished_);
  OBS_TRACE_SPAN("engine.round");
  OBS_COUNTER_INC("engine.rounds");
  const Seconds now = clock_s_;
  const std::size_t n = shards_.size();

  ParallelForOrSerial(engine_pool_.get(), n, [this, now](std::size_t s) {
    RunShardRound(s, now);
  });

  // Serial merge in ascending shard order: the one place shared state
  // mutates, so results are independent of engine thread count.
  std::size_t concurrent = 0;
  for (std::size_t s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    ApplyEffects(sh.fault_fx, &result_);
    ApplyEffects(sh.pending_fx, &result_);
    if (sh.record) {
      const RoundRecord& record = *sh.record;
      const int tier = static_cast<int>(record.dispatch_tier);
      ApplyEffects(sh.auction_fx, &result_);
      result_.total_utility += record.round_utility;
      result_.platform_utility += sh.platform_utility;
      result_.requester_utility += sh.requester_utility;
      if (record.dispatch_tier != DispatchTier::kPrimary) {
        ++result_.degraded_rounds;
      }
      if (record.truncated) {
        ++result_.truncated_rounds;
        ++sh.stats.truncated_rounds;
        ++stats_.truncated_rounds;
      }
      result_.rounds.push_back(record);
      ++sh.stats.auction_rounds;
      ++sh.stats.tier_counts[tier];
      ++stats_.tier_counts[tier];
    }
    sh.stats.peak_queue_depth =
        std::max(sh.stats.peak_queue_depth, sh.queue.peak_depth());
    concurrent += sh.world->pending_size() + sh.queue.depth();
  }
  stats_.peak_concurrent_orders =
      std::max(stats_.peak_concurrent_orders, concurrent);
  OBS_GAUGE_MAX("engine.concurrent_orders.peak",
                static_cast<double>(concurrent));

  if (options_.num_shards > 1 && options_.rebalance_period_rounds > 0 &&
      (round_index_ + 1) % options_.rebalance_period_rounds == 0) {
    Rebalance(now);
  }

  ParallelForOrSerial(engine_pool_.get(), n, [this, now](std::size_t s) {
    Shard& sh = *shards_[s];
    sh.advance_fx = sh.world->AdvanceRound(now);
    if (warm_enabled_) InvalidateWarmStart(sh.advance_fx, &sh.warm);
  });
  for (std::size_t s = 0; s < n; ++s) {
    ApplyEffects(shards_[s]->advance_fx, &result_);
  }

  clock_s_ += options_.round_duration_s;
  now_atomic_.store(
      clock_s_.value(),  // NOLINT-ARIDE(unsafe-unit-cast): atomic clock
      std::memory_order_relaxed);
  ++round_index_;
  ++stats_.rounds;
}

void Engine::Rebalance(Seconds now_s) {
  OBS_TRACE_SPAN("engine.rebalance");
  const int n = options_.num_shards;
  std::vector<long> deficit(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < n; ++s) {
    const Shard& sh = *shards_[static_cast<std::size_t>(s)];
    deficit[static_cast<std::size_t>(s)] =
        static_cast<long>(sh.world->pending_size()) -
        static_cast<long>(sh.world->IdleCount(now_s));
  }

  // Receivers by (deficit desc, shard id asc); donors scanned in shard-id
  // order, lowest vehicle id first. Entirely serial and order-fixed: the
  // handoff is deterministic at any thread count.
  std::vector<int> receivers;
  for (int s = 0; s < n; ++s) {
    if (deficit[static_cast<std::size_t>(s)] > 0) receivers.push_back(s);
  }
  std::sort(receivers.begin(), receivers.end(), [&deficit](int a, int b) {
    const long da = deficit[static_cast<std::size_t>(a)];
    const long db = deficit[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });

  int moves_left = options_.rebalance_max_moves;
  for (const int r : receivers) {
    if (moves_left <= 0) break;
    long need = deficit[static_cast<std::size_t>(r)];
    for (int d = 0; d < n && need > 0 && moves_left > 0; ++d) {
      if (d == r) continue;
      long surplus = -deficit[static_cast<std::size_t>(d)];
      if (surplus <= 0) continue;
      Shard& donor = *shards_[static_cast<std::size_t>(d)];
      Shard& recv = *shards_[static_cast<std::size_t>(r)];
      const std::vector<VehicleId> idle =
          donor.world->MigratableIdleVehicles(now_s);
      const long take =
          std::min({surplus, need, static_cast<long>(moves_left),
                    static_cast<long>(idle.size())});
      for (long i = 0; i < take; ++i) {
        const VehicleId moved = idle[static_cast<std::size_t>(i)];
        WorldVehicle vehicle = donor.world->ExtractVehicle(moved);
        recv.world->InsertVehicle(std::move(vehicle),
                                  partition_.CenterNode(r));
        // The vehicle left the donor shard; hints pointing at it are stale.
        if (warm_enabled_) donor.warm.InvalidateVehicle(moved);
        ++donor.stats.migrations_out;
        ++recv.stats.migrations_in;
        ++stats_.migrations;
        OBS_COUNTER_INC("engine.rebalance.migrations");
      }
      need -= take;
      moves_left -= static_cast<int>(take);
      deficit[static_cast<std::size_t>(d)] += take;
      deficit[static_cast<std::size_t>(r)] -= take;
    }
  }
}

void Engine::DrainDeliveries() {
  ARIDE_ACHECK(!finished_);
  OBS_TRACE_SPAN("engine.drain");
  const std::size_t n = shards_.size();
  const Seconds drain_cap_s = clock_s_ + Seconds(7200);
  while (clock_s_ < drain_cap_s) {
    const Seconds now = clock_s_;
    ParallelForOrSerial(engine_pool_.get(), n, [this, now](std::size_t s) {
      Shard& sh = *shards_[s];
      sh.advance_fx = EffectBatch();
      sh.advance_busy = sh.world->AdvanceBusy(now, &sh.advance_fx);
    });
    bool any_busy = false;
    for (std::size_t s = 0; s < n; ++s) {
      ApplyEffects(shards_[s]->advance_fx, &result_);
      any_busy = any_busy || shards_[s]->advance_busy;
    }
    clock_s_ += options_.round_duration_s;
    now_atomic_.store(
        clock_s_.value(),  // NOLINT-ARIDE(unsafe-unit-cast): atomic clock
        std::memory_order_relaxed);
    if (!any_busy) break;
  }
}

SimResult Engine::Finish() {
  ARIDE_ACHECK(!finished_);
  finished_ = true;
  Meters delivery_m;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    ARIDE_ACHECK(sh.queue.depth() == 0)
        << "shard " << s << " still has queued orders; drive more rounds "
        << "before Finish()";
    delivery_m += sh.world->DeliveryDistanceSum();
    stats_.shards[s] = sh.stats;
    stats_.shards[s].peak_queue_depth =
        std::max(stats_.shards[s].peak_queue_depth, sh.queue.peak_depth());
  }
  stats_.orders_submitted = orders_submitted_.load(std::memory_order_relaxed);
  result_.orders_total = static_cast<int>(stats_.orders_submitted);
  FinalizeResult(options_.auction, *orders_, ledger_, delivery_m, &result_);
  return std::move(result_);
}

}  // namespace auctionride
