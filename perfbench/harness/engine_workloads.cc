// Engine-replay workloads (city_rank, storm_greedy).
//
// The replay loop follows the submission protocol of sim/engine_client.h:
// before each StepRound every order whose issue time is due is submitted,
// all from one thread, so a replay is deterministic. An iteration is one
// full set-up (network, CH, nearest-node index, workload generation, engine
// construction) followed by one timed replay (submit/step to the horizon,
// DrainDeliveries, Finish).

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "engine/engine.h"
#include "engine/faults.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "workloads.h"

namespace auctionride {
namespace perfbench {

namespace {

constexpr std::size_t kMinSetups = 3;

struct EngineSpec {
  MechanismKind mechanism = MechanismKind::kRank;
  int orders = 0;
  int vehicles = 0;
  double duration_s = 0;
  int shards = 1;
  bool storm = false;
  double probe_window_s = 0;  // orders issued in [0, window) form the probe
};

EngineSpec SpecFor(const RunConfig& config) {
  if (config.workload == "city_rank") {
    return config.tiny
               ? EngineSpec{MechanismKind::kRank, 150, 210, 300, 4, false, 60}
               : EngineSpec{MechanismKind::kRank, 5000, 7000, 1800, 4, false,
                            120};
  }
  return config.tiny
             ? EngineSpec{MechanismKind::kGreedy, 100, 140, 300, 1, true, 60}
             : EngineSpec{MechanismKind::kGreedy, 1000, 1400, 1800, 1, true,
                          300};
}

EngineOptions MakeOptions(const EngineSpec& spec, const RunConfig& config) {
  EngineOptions options;
  options.mechanism = spec.mechanism;
  options.auction = PaperAuctionConfig();
  options.round_duration_s = Seconds(10);
  options.run_pricing = true;
  options.seed = config.seed;
  options.num_shards = spec.shards;
  // Multi-shard engines run each shard's mechanism serially on the engine
  // pool; the one-shard engine owns a dispatch and a pricing pool that run
  // one after the other. Either way kWorkerThreads are runnable at once.
  options.engine_threads = kWorkerThreads;
  options.dispatch_threads = kWorkerThreads;
  options.pricing_threads = kWorkerThreads;
  if (spec.storm) {
    // The fault schedule belongs to the city, like its demand layout: the
    // spike rounds stay fixed, while the run seed decides which sampled
    // vehicles and orders the per-entity faults hit.
    options.faults = FaultOptionsForProfile(FaultProfile::kStorm, kCitySeed);
  }
  options.verify_dispatch = options.faults.any();
  return options;
}

struct Replay {
  SimResult result;
  EngineStats stats;
  std::vector<double> step_ms;      // wall time of each StepRound
  std::vector<double> round_now_s;  // virtual time each StepRound ran at
  std::vector<double> round_end_s;  // end of each StepRound, replay clock
  std::vector<double> submit_us;    // wall time of each SubmitOrder
  std::vector<double> submit_at_s;  // by order id, replay clock
  double wall_s = 0;
  double drain_s = 0;
  double finish_s = 0;
  int64_t sp_queries = 0;
  int64_t sp_hits = 0;
  int64_t sp_trivial = 0;
  bool all_submitted = true;
};

Replay RunReplay(const DistanceOracle& oracle, const Workload& workload,
                 const EngineOptions& options, Engine* engine,
                 SpanRecorder* spans) {
  Replay rep;
  const std::size_t n = workload.orders.size();
  rep.submit_at_s.assign(n, 0);
  Seconds horizon;
  for (const Order& o : workload.orders) {
    horizon = std::max(horizon, o.issue_time_s);
  }
  horizon += options.max_pending_s + options.round_duration_s;
  const int64_t q0 = oracle.num_queries();
  const int64_t h0 = oracle.num_cache_hits();
  const int64_t t0 = oracle.num_trivial_queries();

  const double start = NowSeconds();
  {
    ScopedSpan replay_span(spans, "replay");
    std::size_t next = 0;
    while (engine->now_s() < horizon) {
      const Seconds now = engine->now_s();
      while (next < n && workload.orders[next].issue_time_s <= now) {
        const Order& order = workload.orders[next];
        const double s = NowSeconds();
        {
          ScopedSpan span(spans, "engine.submit");
          engine->SubmitOrder(order);
        }
        rep.submit_us.push_back((NowSeconds() - s) * 1e6);
        rep.submit_at_s[static_cast<std::size_t>(order.id)] = s - start;
        ++next;
      }
      const double s = NowSeconds();
      {
        ScopedSpan span(spans, "engine.step_round");
        engine->StepRound();
      }
      const double e = NowSeconds();
      rep.step_ms.push_back((e - s) * 1e3);
      rep.round_now_s.push_back(now.value());
      rep.round_end_s.push_back(e - start);
    }
    rep.all_submitted = next == n;
    double s = NowSeconds();
    {
      ScopedSpan span(spans, "engine.drain");
      engine->DrainDeliveries();
    }
    rep.drain_s = NowSeconds() - s;
    s = NowSeconds();
    {
      ScopedSpan span(spans, "engine.finish");
      rep.result = engine->Finish();
    }
    rep.finish_s = NowSeconds() - s;
  }
  rep.wall_s = NowSeconds() - start;
  rep.stats = engine->stats();
  rep.sp_queries = oracle.num_queries() - q0;
  rep.sp_hits = oracle.num_cache_hits() - h0;
  rep.sp_trivial = oracle.num_trivial_queries() - t0;
  return rep;
}

// Outcome digest, output checks and derived per-round series of a replay.
struct Analysis {
  obs::Json digest = obs::Json::Object();
  std::string digest_key;  // compared across the replays of a run
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<double> s2d_ms;          // per dispatched order
  std::vector<double> critical_ms;     // per StepRound
  std::vector<double> non_auction_ms;  // per StepRound
  std::vector<double> dispatch_ms;     // per shard-round RoundRecord
  std::vector<double> pricing_ms;
  double max_identity_err_ms = 0;
  double shard_skew = 0;
  double shard_efficiency = 0;
  double pricing_share = 0;
};

Analysis Analyze(const Replay& rep, const Workload& workload,
                 const EngineOptions& options) {
  Analysis a;
  const int shards = options.num_shards;
  // Rounds that ran under a round budget price each tier inside the
  // dispatch timer, so their RoundRecord::dispatch_seconds already holds
  // the pricing time. Under the storm profile those are the spike rounds.
  const FaultPlan plan(options.faults);
  const auto budgeted = [&](std::size_t round) {
    return options.faults.round_budget_s > 0 &&
           (options.faults.wall_clock_budget ||
            plan.IsSpikeRound(static_cast<int>(round)));
  };
  const SimResult& result = rep.result;
  const std::size_t n = workload.orders.size();
  const std::size_t rounds = rep.step_ms.size();
  std::map<double, std::size_t> round_of;
  for (std::size_t r = 0; r < rounds; ++r) round_of[rep.round_now_s[r]] = r;

  // Per-order lifecycle from the event stream.
  enum State { kPending, kDispatched, kExpired };
  std::vector<State> state(n, kPending);
  std::vector<int64_t> first_round(n, -1);
  bool structural_ok = rep.all_submitted;
  if (!rep.all_submitted) {
    a.problems.push_back("orders issued beyond the replay horizon");
  }
  for (const OrderEvent& ev : result.events) {
    if (ev.order < 0 || static_cast<std::size_t>(ev.order) >= n) {
      a.problems.push_back("event for an order outside the catalog");
      structural_ok = false;
      continue;
    }
    const auto j = static_cast<std::size_t>(ev.order);
    switch (ev.kind) {
      case OrderEventKind::kDispatched: {
        state[j] = kDispatched;
        if (first_round[j] >= 0) break;
        const auto it = round_of.find(ev.time_s.value());
        if (it == round_of.end()) {
          a.problems.push_back("dispatch event at a time no round ran");
          structural_ok = false;
        } else {
          first_round[j] = static_cast<int64_t>(it->second);
        }
        break;
      }
      case OrderEventKind::kExpired:
        state[j] = kExpired;
        break;
      case OrderEventKind::kStranded:
      case OrderEventKind::kCancelled:
        state[j] = kPending;
        break;
      default:
        break;
    }
  }
  int64_t dispatched = 0;
  int64_t expired = 0;
  for (const State s : state) {
    dispatched += s == kDispatched ? 1 : 0;
    expired += s == kExpired ? 1 : 0;
  }
  const int64_t unresolved = static_cast<int64_t>(n) - dispatched - expired;
  if (result.orders_total != static_cast<int>(n) ||
      rep.stats.orders_submitted != n) {
    a.problems.push_back("submitted orders differ from the catalog");
    structural_ok = false;
  }
  if (dispatched != result.orders_dispatched ||
      expired != result.orders_expired) {
    a.problems.push_back("event stream disagrees with SimResult counts");
    structural_ok = false;
  }
  if (unresolved != 0) {
    a.problems.push_back(std::to_string(unresolved) +
                         " orders neither dispatched nor expired");
  }
  a.failed = structural_ok ? unresolved : static_cast<int64_t>(n);

  for (std::size_t j = 0; j < n; ++j) {
    if (first_round[j] < 0) continue;
    const auto r = static_cast<std::size_t>(first_round[j]);
    a.s2d_ms.push_back((rep.round_end_s[r] - rep.submit_at_s[j]) * 1e3);
  }

  // Auction time per StepRound: the slowest shard's dispatch + pricing.
  std::vector<double> crit_s(rounds, 0);
  std::vector<double> sum_s(rounds, 0);
  double dispatch_total = 0;
  double pricing_total = 0;
  for (const RoundRecord& rec : result.rounds) {
    const auto it = round_of.find(rec.time_s.value());
    if (it == round_of.end()) {
      a.problems.push_back("round record at a time no round ran");
      continue;
    }
    const double p = rec.pricing_seconds.value();
    const double auction = budgeted(it->second)
                               ? rec.dispatch_seconds.value()
                               : rec.dispatch_seconds.value() + p;
    const double d = auction - p;
    a.dispatch_ms.push_back(d * 1e3);
    a.pricing_ms.push_back(p * 1e3);
    dispatch_total += d;
    pricing_total += p;
    crit_s[it->second] = std::max(crit_s[it->second], auction);
    sum_s[it->second] += auction;
  }
  double skew_sum = 0;
  int skew_rounds = 0;
  double busy_total = 0;
  double step_total_s = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const double crit_ms = crit_s[r] * 1e3;
    const double non_ms = rep.step_ms[r] - crit_ms;
    a.critical_ms.push_back(crit_ms);
    a.non_auction_ms.push_back(non_ms);
    // The split is exhaustive by construction; what can fail is the
    // auction claiming more time than the round took.
    a.max_identity_err_ms = std::max(
        {a.max_identity_err_ms, std::abs(crit_ms + non_ms - rep.step_ms[r]),
         -non_ms});
    if (sum_s[r] > 0) {
      skew_sum += crit_s[r] / (sum_s[r] / shards);
      ++skew_rounds;
    }
    busy_total += sum_s[r];
    step_total_s += rep.step_ms[r] / 1e3;
  }
  if (a.max_identity_err_ms > 1e-3) {
    a.problems.push_back("auction critical time exceeds StepRound wall time");
  }
  a.shard_skew = skew_rounds > 0 ? skew_sum / skew_rounds : 0;
  a.shard_efficiency =
      step_total_s > 0 ? busy_total / (shards * step_total_s) : 0;
  a.pricing_share = dispatch_total + pricing_total > 0
                        ? pricing_total / (dispatch_total + pricing_total)
                        : 0;

  Fnv64 per_order;
  for (const int64_t r : first_round) per_order.Add(static_cast<uint64_t>(r));
  a.digest["dispatched"] = static_cast<int64_t>(result.orders_dispatched);
  a.digest["expired"] = static_cast<int64_t>(result.orders_expired);
  a.digest["u_auc"] = result.total_utility.value();
  a.digest["u_plf"] = result.platform_utility.value();
  a.digest["payments"] = result.total_payments.value();
  a.digest["dispatch_round_fnv"] = per_order.Hex();
  a.digest_key = a.digest.Dump();
  return a;
}

struct Iteration {
  SetupTimes setup;
  std::unique_ptr<World> world;  // kept for the probes of a traced run
  Workload workload;
  Replay replay;
  Analysis analysis;
};

// Set-up of one iteration; returns the engine, ready for the replay.
std::unique_ptr<Engine> SetUp(const EngineSpec& spec,
                              const EngineOptions& options,
                              const RunConfig& config, SpanRecorder* spans,
                              Iteration* it) {
  std::unique_ptr<Engine> engine;
  {
    ScopedSpan span(spans, "setup");
    it->world = BuildWorld(spans, &it->setup);
    double t0 = NowSeconds();
    {
      ScopedSpan gen(spans, "setup.generate");
      const Workload pool = GenerateWorkload(
          PaperWorkloadOptions(kCitySeed, PoolSize(spec.orders),
                               PoolSize(spec.vehicles),
                               Seconds(spec.duration_s)),
          *it->world->oracle, *it->world->nearest);
      it->workload =
          SampleWorkload(pool, spec.orders, spec.vehicles, config.seed);
    }
    it->setup.generate_s = NowSeconds() - t0;
    t0 = NowSeconds();
    {
      ScopedSpan construct(spans, "setup.engine");
      engine = std::make_unique<Engine>(it->world->oracle.get(),
                                        &it->workload.orders,
                                        it->workload.vehicles, options);
    }
    it->setup.construct_s = NowSeconds() - t0;
  }
  return engine;
}

Iteration RunIteration(const EngineSpec& spec, const EngineOptions& options,
                       const RunConfig& config, bool tracing,
                       SpanRecorder* spans) {
  Iteration it;
  std::unique_ptr<Engine> engine = SetUp(spec, options, config, spans, &it);
  // Layer counters of a traced iteration cover its replay alone.
  if (tracing) obs::MetricRegistry::Global().ResetAll();
  it.replay = RunReplay(*it.world->oracle, it.workload, options, engine.get(),
                        spans);
  it.analysis = Analyze(it.replay, it.workload, options);
  return it;
}

// Single-round probe instance drawn from the workload: the orders issued in
// the probe window, dispatched at the window's end against every vehicle
// online by then, idle at its spawn node.
ProbeInput MakeProbeInput(const World& world, const Workload& workload,
                          const EngineSpec& spec, const RunConfig& config,
                          ThreadPool* pool) {
  ProbeInput in;
  in.network = &world.network;
  in.now_s = Seconds(spec.probe_window_s);
  for (const Order& o : workload.orders) {
    if (o.issue_time_s < in.now_s) in.orders.push_back(o);
  }
  for (const VehicleSpawn& v : workload.vehicles) {
    if (v.online_s <= in.now_s) in.vehicles.push_back(v.vehicle);
  }
  in.config = PaperAuctionConfig();
  in.pool = pool;
  in.seed = config.seed;
  in.tiny = config.tiny;
  return in;
}

}  // namespace

RunOutput RunEngineWorkload(const RunConfig& config) {
  RunOutput out;
  const EngineSpec spec = SpecFor(config);
  const EngineOptions options = MakeOptions(spec, config);
  SpanRecorder spans;
  // Untraced iterations until their timed replays fill the run; a traced
  // run then adds one traced iteration and the layer probes.
  std::vector<Iteration> untraced;
  double timed_s = 0;
  while (untraced.empty() || timed_s < config.seconds) {
    Iteration it = RunIteration(spec, options, config, false, &spans);
    it.world.reset();
    timed_s += it.replay.wall_s;
    untraced.push_back(std::move(it));
  }
  // Set-up is timed at least kMinSetups times per run (median reported).
  std::vector<double> setup_s;
  for (const Iteration& it : untraced) setup_s.push_back(it.setup.total());
  while (!config.trace && setup_s.size() < kMinSetups) {
    Iteration extra;
    SetUp(spec, options, config, &spans, &extra);
    setup_s.push_back(extra.setup.total());
  }
  Iteration traced;
  if (config.trace) {
    obs::Tracer::Clear();
    obs::Tracer::SetEnabled(true);
    spans.SetEnabled(true);
    traced = RunIteration(spec, options, config, true, &spans);
    AddLayerCounters(&out.per_layer);
  }

  // Digest identity and output checks over every replay of the run.
  std::vector<const Iteration*> all;
  for (const Iteration& it : untraced) all.push_back(&it);
  if (config.trace) all.push_back(&traced);
  const std::string& reference = all.front()->analysis.digest_key;
  obs::Json digests = obs::Json::Array();
  for (const Iteration* it : all) {
    const Analysis& a = it->analysis;
    const auto n = static_cast<int64_t>(it->workload.orders.size());
    out.attempted += n;
    int64_t failed = a.failed;
    for (const std::string& p : a.problems) out.problems.push_back(p);
    if (a.digest_key != reference) {
      out.problems.push_back("outcome digest differs between replays");
      failed = n;
    }
    out.failed += failed;
    digests.push_back(a.digest);
  }
  out.correct = out.problems.empty() && out.failed == 0;
  out.detail["digest"] = all.front()->analysis.digest;
  out.detail["replay_digests"] = digests;
  out.detail["replays"] = static_cast<int64_t>(all.size());

  const SimResult& first = all.front()->replay.result;
  if (!config.trace) {
    std::vector<double> step_ms, s2d_ms, orders_per_s;
    for (const Iteration& it : untraced) {
      step_ms.insert(step_ms.end(), it.replay.step_ms.begin(),
                     it.replay.step_ms.end());
      s2d_ms.insert(s2d_ms.end(), it.analysis.s2d_ms.begin(),
                    it.analysis.s2d_ms.end());
      orders_per_s.push_back(it.replay.result.orders_total /
                             it.replay.wall_s);
    }
    Metrics& m = out.end_to_end;
    m["setup_s"] = {Median(setup_s), "s"};
    m["round_p50_ms"] = {Quantile(step_ms, 0.5), "ms"};
    m["round_p95_ms"] = {Quantile(step_ms, 0.95), "ms"};
    m["orders_per_s"] = {Median(orders_per_s), "1/s"};
    m["submit_to_dispatch_p50_ms"] = {Quantile(s2d_ms, 0.5), "ms"};
    m["submit_to_dispatch_p95_ms"] = {Quantile(s2d_ms, 0.95), "ms"};
    m["dispatch_rate"] = {first.dispatch_rate(), "ratio"};
    m["utility_auc"] = {first.total_utility.value(), "yuan"};
    out.detail["samples"]["rounds"] = static_cast<int64_t>(step_ms.size());
    out.detail["samples"]["dispatched_orders"] =
        static_cast<int64_t>(s2d_ms.size());
    out.detail["samples"]["setups"] = static_cast<int64_t>(setup_s.size());
    return out;
  }

  // Per-layer metrics of the traced iteration.
  Metrics& m = out.per_layer;
  const Replay& rep = traced.replay;
  const Analysis& a = traced.analysis;
  std::vector<SetupTimes> setups;
  for (const Iteration* it : all) setups.push_back(it->setup);
  AddSetupMetrics(setups, &m);
  m["engine.submit_us_p50"] = {Quantile(rep.submit_us, 0.5), "us"};
  m["engine.submit_us_p99"] = {Quantile(rep.submit_us, 0.99), "us"};
  m["engine.auction_critical_ms_p50"] = {Quantile(a.critical_ms, 0.5), "ms"};
  m["engine.auction_critical_ms_p95"] = {Quantile(a.critical_ms, 0.95), "ms"};
  m["engine.non_auction_ms_p50"] = {Quantile(a.non_auction_ms, 0.5), "ms"};
  m["engine.non_auction_ms_p95"] = {Quantile(a.non_auction_ms, 0.95), "ms"};
  m["engine.shard_skew"] = {a.shard_skew, "ratio"};
  m["engine.shard_efficiency"] = {a.shard_efficiency, "ratio"};
  m["engine.drain_s"] = {rep.drain_s, "s"};
  m["engine.finish_s"] = {rep.finish_s, "s"};
  m["engine.migrations"] = {static_cast<double>(rep.stats.migrations),
                            "count"};
  m["engine.peak_concurrent_orders"] = {
      static_cast<double>(rep.stats.peak_concurrent_orders), "count"};
  std::size_t peak_queue = 0;
  for (const ShardStats& sh : rep.stats.shards) {
    peak_queue = std::max(peak_queue, sh.peak_queue_depth);
  }
  m["engine.peak_queue_depth"] = {static_cast<double>(peak_queue), "count"};
  m["engine.truncated_rounds"] = {
      static_cast<double>(rep.stats.truncated_rounds), "count"};
  m["engine.tier_rounds.primary"] = {
      static_cast<double>(rep.stats.tier_counts[0]), "count"};
  m["engine.tier_rounds.greedy_fallback"] = {
      static_cast<double>(rep.stats.tier_counts[1]), "count"};
  m["engine.tier_rounds.fcfs_fallback"] = {
      static_cast<double>(rep.stats.tier_counts[2]), "count"};
  m["auction.dispatch_ms_p50"] = {Quantile(a.dispatch_ms, 0.5), "ms"};
  m["auction.dispatch_ms_p95"] = {Quantile(a.dispatch_ms, 0.95), "ms"};
  m["auction.pricing_ms_p50"] = {Quantile(a.pricing_ms, 0.5), "ms"};
  m["auction.pricing_ms_p95"] = {Quantile(a.pricing_ms, 0.95), "ms"};
  m["auction.pricing_share"] = {a.pricing_share, "ratio"};
  AddOracleMetrics(rep.sp_queries, rep.sp_hits, rep.sp_trivial,
                   static_cast<double>(rep.step_ms.size()), &m);

  // Trace overhead: traced vs untraced round p50 within this run.
  std::vector<double> untraced_steps;
  for (const Iteration& it : untraced) {
    untraced_steps.insert(untraced_steps.end(), it.replay.step_ms.begin(),
                          it.replay.step_ms.end());
  }
  const double base_p50 = Quantile(untraced_steps, 0.5);
  m["trace_overhead_frac"] = {
      base_p50 > 0 ? Quantile(rep.step_ms, 0.5) / base_p50 - 1 : 0, "ratio"};
  const double coverage = spans.Coverage("replay");
  m["trace.coverage"] = {coverage, "ratio"};
  if (coverage < 0.95) {
    out.problems.push_back("harness spans cover less than 95% of the replay");
    out.correct = false;
  }
  out.detail["checks"]["round_identity_max_err_ms"] = a.max_identity_err_ms;

  ThreadPool probe_pool(kWorkerThreads);
  RunLayerProbes(MakeProbeInput(*traced.world, traced.workload, spec, config,
                                &probe_pool),
                 &spans, &out);
  obs::Tracer::SetEnabled(false);
  out.detail["spans"] = spans.SelfTimes();
  WriteTrace(config, &out);
  return out;
}

}  // namespace perfbench
}  // namespace auctionride
