// fig8_round: the paper's Fig. 8b single dispatch round.
//
// One GenerateSingleRound instance (all orders issued at t = 0, all
// vehicles idle) goes through RunMechanism(kRank) with DnW pricing, on one
// worker pool shared by dispatch and pricing; §V-E k-means clustering
// engages at cluster_threshold. The engine is bypassed. An iteration is one
// set-up (network, CH for generation, nearest-node index, generation, and a
// second, freshly built oracle so the round starts with an empty cache)
// followed by one timed round and its verification.

#include <algorithm>
#include <memory>
#include <string>

#include "auction/mechanism.h"
#include "auction/verifier.h"
#include "engine/engine.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "workloads.h"

namespace auctionride {
namespace perfbench {

namespace {

constexpr std::size_t kMinSetups = 3;

struct RoundSpec {
  int orders = 0;  // and as many vehicles
  int cluster_threshold = 0;
  int cluster_target_size = 0;
};

RoundSpec SpecFor(const RunConfig& config) {
  return config.tiny ? RoundSpec{300, 300, 100} : RoundSpec{5000, 5000, 1000};
}

struct Iteration {
  SetupTimes setup;
  std::unique_ptr<World> world;
  std::unique_ptr<DistanceOracle> oracle;  // the round's cold oracle
  Workload workload;
  std::vector<Vehicle> vehicles;
  AuctionInstance instance;
  MechanismOutcome outcome;
  double wall_ms = 0;  // RunMechanism
  double timed_s = 0;  // RunMechanism + verification
  int64_t sp_queries = 0;
  int64_t sp_hits = 0;
  int64_t sp_trivial = 0;
  obs::Json digest = obs::Json::Object();
  std::string digest_key;
  std::string problem;  // empty when verification passed
};

void SetUp(const RoundSpec& spec, const RunConfig& config, ThreadPool* pool,
           SpanRecorder* spans, Iteration* it) {
  ScopedSpan span(spans, "setup");
  it->world = BuildWorld(spans, &it->setup);
  double t0 = NowSeconds();
  {
    ScopedSpan gen(spans, "setup.generate");
    const Workload pool = GenerateSingleRound(
        PaperWorkloadOptions(kCitySeed, PoolSize(spec.orders),
                             PoolSize(spec.orders), Seconds(0)),
        *it->world->oracle, *it->world->nearest);
    it->workload =
        SampleWorkload(pool, spec.orders, spec.orders, config.seed);
  }
  it->setup.generate_s = NowSeconds() - t0;
  t0 = NowSeconds();
  {
    ScopedSpan ch(spans, "setup.ch");
    it->oracle = std::make_unique<DistanceOracle>(
        &it->world->network, DistanceOracle::Backend::kContractionHierarchy);
  }
  it->setup.ch_s += NowSeconds() - t0;
  t0 = NowSeconds();
  {
    ScopedSpan construct(spans, "setup.instance");
    it->vehicles.reserve(it->workload.vehicles.size());
    for (const VehicleSpawn& spawn : it->workload.vehicles) {
      it->vehicles.push_back(spawn.vehicle);
    }
    it->instance.orders = &it->workload.orders;
    it->instance.vehicles = &it->vehicles;
    it->instance.oracle = it->oracle.get();
    it->instance.config = PaperAuctionConfig();
    it->instance.config.cluster_threshold = spec.cluster_threshold;
    it->instance.config.cluster_target_size = spec.cluster_target_size;
    it->instance.dispatch_pool = pool;
  }
  it->setup.construct_s = NowSeconds() - t0;
}

void RunRound(ThreadPool* pool, SpanRecorder* spans, Iteration* it) {
  const double start = NowSeconds();
  {
    ScopedSpan round(spans, "round");
    MechanismOptions options;
    options.run_pricing = true;
    {
      ScopedSpan span(spans, "auction.run_mechanism");
      it->outcome =
          RunMechanism(MechanismKind::kRank, it->instance, options, pool, pool);
    }
    it->wall_ms = (NowSeconds() - start) * 1e3;

    // The mechanism ran on deducted bids; verify against the same.
    ScopedSpan span(spans, "auction.verify");
    std::vector<Order> deducted = it->workload.orders;
    for (Order& o : deducted) {
      o.bid *= (1.0 - it->instance.config.charge_ratio);
    }
    AuctionInstance charged = it->instance;
    charged.orders = &deducted;
    Status verified = VerifyDispatch(charged, it->outcome.dispatch);
    if (verified.ok()) {
      verified = VerifyPayments(charged, it->outcome.dispatch,
                                it->outcome.payments);
    }
    if (!verified.ok()) it->problem = verified.ToString();
  }
  it->timed_s = NowSeconds() - start;
  it->sp_queries = it->oracle->num_queries();
  it->sp_hits = it->oracle->num_cache_hits();
  it->sp_trivial = it->oracle->num_trivial_queries();

  const DispatchResult& d = it->outcome.dispatch;
  Fnv64 per_order;
  for (const Assignment& a : d.assignments) {
    per_order.Add(static_cast<uint64_t>(a.order));
    per_order.Add(static_cast<uint64_t>(a.vehicle));
  }
  Money payments;
  for (const Payment& p : it->outcome.payments) {
    payments += p.payment;
    per_order.Add(p.payment.value());
  }
  it->digest["dispatched"] = static_cast<int64_t>(d.assignments.size());
  it->digest["u_auc"] = d.total_utility.value();
  it->digest["u_plf"] = it->outcome.platform_utility.value();
  it->digest["payments"] = payments.value();
  it->digest["assignment_fnv"] = per_order.Hex();
  it->digest_key = it->digest.Dump();
  // Pack universes are only needed by pricing; drop them so kept
  // iterations stay small.
  it->outcome.rank_artifacts = RankArtifacts{};
}

// The round bypasses the engine, so the engine's per-call costs are probed
// on a one-shard engine over the first kEngineProbeSize orders and vehicles
// of the instance (all due at t = 0): SubmitOrder each, one StepRound,
// DrainDeliveries, Finish.
constexpr std::size_t kEngineProbeSize = 200;

void ProbeEngine(const Iteration& it, const RunConfig& config,
                 SpanRecorder* spans, Metrics* m) {
  ScopedSpan probe(spans, "probe.engine");
  const std::size_t n =
      std::min({kEngineProbeSize, it.workload.orders.size(),
                it.workload.vehicles.size()});
  const std::vector<Order> orders(it.workload.orders.begin(),
                                  it.workload.orders.begin() + n);
  const std::vector<VehicleSpawn> vehicles(it.workload.vehicles.begin(),
                                           it.workload.vehicles.begin() + n);
  EngineOptions options;
  options.mechanism = MechanismKind::kRank;
  options.auction = it.instance.config;
  options.run_pricing = true;
  options.seed = config.seed;
  options.dispatch_threads = kWorkerThreads;
  options.pricing_threads = kWorkerThreads;
  Engine engine(it.oracle.get(), &orders, vehicles, options);
  std::vector<double> submit_us;
  for (const Order& o : orders) {
    const double s = NowSeconds();
    {
      ScopedSpan span(spans, "engine.submit");
      engine.SubmitOrder(o);
    }
    submit_us.push_back((NowSeconds() - s) * 1e6);
  }
  {
    ScopedSpan span(spans, "engine.step_round");
    engine.StepRound();
  }
  double t0 = NowSeconds();
  {
    ScopedSpan span(spans, "engine.drain");
    engine.DrainDeliveries();
  }
  (*m)["engine.drain_s"] = {NowSeconds() - t0, "s"};
  t0 = NowSeconds();
  {
    ScopedSpan span(spans, "engine.finish");
    engine.Finish();
  }
  (*m)["engine.finish_s"] = {NowSeconds() - t0, "s"};
  (*m)["engine.submit_us_p50"] = {Quantile(submit_us, 0.5), "us"};
  (*m)["engine.submit_us_p99"] = {Quantile(submit_us, 0.99), "us"};
}

// Heap-held: the instance points into the iteration's own vectors.
std::unique_ptr<Iteration> RunIteration(const RoundSpec& spec,
                                        const RunConfig& config, bool tracing,
                                        ThreadPool* pool,
                                        SpanRecorder* spans) {
  auto it = std::make_unique<Iteration>();
  SetUp(spec, config, pool, spans, it.get());
  if (tracing) obs::MetricRegistry::Global().ResetAll();
  RunRound(pool, spans, it.get());
  return it;
}

}  // namespace

RunOutput RunRoundWorkload(const RunConfig& config) {
  RunOutput out;
  const RoundSpec spec = SpecFor(config);
  ThreadPool pool(kWorkerThreads);
  SpanRecorder spans;

  std::vector<std::unique_ptr<Iteration>> untraced;
  double timed_s = 0;
  while (untraced.empty() || timed_s < config.seconds) {
    untraced.push_back(RunIteration(spec, config, false, &pool, &spans));
    untraced.back()->world.reset();
    untraced.back()->oracle.reset();
    timed_s += untraced.back()->timed_s;
  }
  // Set-up is timed at least kMinSetups times per run (median reported).
  std::vector<double> setup_s;
  for (const auto& it : untraced) setup_s.push_back(it->setup.total());
  while (!config.trace && setup_s.size() < kMinSetups) {
    Iteration extra;
    SetUp(spec, config, &pool, &spans, &extra);
    setup_s.push_back(extra.setup.total());
  }
  std::unique_ptr<Iteration> traced_it;
  if (config.trace) {
    obs::Tracer::Clear();
    obs::Tracer::SetEnabled(true);
    spans.SetEnabled(true);
    traced_it = RunIteration(spec, config, true, &pool, &spans);
    AddLayerCounters(&out.per_layer);
  }

  std::vector<const Iteration*> all;
  for (const auto& it : untraced) all.push_back(it.get());
  if (traced_it) all.push_back(traced_it.get());
  const std::string& reference = all.front()->digest_key;
  obs::Json digests = obs::Json::Array();
  for (const Iteration* it : all) {
    const auto n = static_cast<int64_t>(it->workload.orders.size());
    out.attempted += n;
    bool ok = true;
    if (!it->problem.empty()) {
      out.problems.push_back("verification: " + it->problem);
      ok = false;
    }
    if (it->digest_key != reference) {
      out.problems.push_back("outcome digest differs between rounds");
      ok = false;
    }
    out.failed += ok ? 0 : n;
    digests.push_back(it->digest);
  }
  out.correct = out.problems.empty();
  out.detail["digest"] = all.front()->digest;
  out.detail["round_digests"] = digests;
  out.detail["rounds"] = static_cast<int64_t>(all.size());

  const Iteration& first = *all.front();
  if (!config.trace) {
    std::vector<double> round_ms, orders_per_s, s2d_ms;
    for (const Iteration* it : all) {
      round_ms.push_back(it->wall_ms);
      orders_per_s.push_back(static_cast<double>(it->workload.orders.size()) /
                             (it->wall_ms / 1e3));
      // Every order is submitted when the round starts and learns its
      // outcome when RunMechanism returns.
      s2d_ms.insert(s2d_ms.end(), it->outcome.dispatch.assignments.size(),
                    it->wall_ms);
    }
    const std::size_t n = first.workload.orders.size();
    Metrics& m = out.end_to_end;
    m["setup_s"] = {Median(setup_s), "s"};
    m["round_p50_ms"] = {Quantile(round_ms, 0.5), "ms"};
    m["round_p95_ms"] = {Quantile(round_ms, 0.95), "ms"};
    m["orders_per_s"] = {Median(orders_per_s), "1/s"};
    m["submit_to_dispatch_p50_ms"] = {Quantile(s2d_ms, 0.5), "ms"};
    m["submit_to_dispatch_p95_ms"] = {Quantile(s2d_ms, 0.95), "ms"};
    m["dispatch_rate"] = {
        static_cast<double>(first.outcome.dispatch.assignments.size()) /
            static_cast<double>(n),
        "ratio"};
    m["utility_auc"] = {first.outcome.dispatch.total_utility.value(), "yuan"};
    out.detail["samples"]["rounds"] = static_cast<int64_t>(round_ms.size());
    out.detail["samples"]["setups"] = static_cast<int64_t>(setup_s.size());
    return out;
  }

  Metrics& m = out.per_layer;
  std::vector<SetupTimes> setups;
  for (const Iteration* it : all) setups.push_back(it->setup);
  AddSetupMetrics(setups, &m);

  // The engine is bypassed: the round is one RunMechanism call, so its
  // auction-critical time is the outcome's dispatch + pricing and the rest
  // of the call (bid deduction, accounting) is the non-auction part.
  const Iteration& traced = *traced_it;
  const MechanismOutcome& o = traced.outcome;
  const double dispatch_ms = o.dispatch_seconds.value() * 1e3;
  const double pricing_ms = o.pricing_seconds.value() * 1e3;
  const double critical_ms = dispatch_ms + pricing_ms;
  m["engine.auction_critical_ms_p50"] = {critical_ms, "ms"};
  m["engine.auction_critical_ms_p95"] = {critical_ms, "ms"};
  m["engine.non_auction_ms_p50"] = {traced.wall_ms - critical_ms, "ms"};
  m["engine.non_auction_ms_p95"] = {traced.wall_ms - critical_ms, "ms"};
  m["engine.shard_skew"] = {1, "ratio"};
  m["engine.shard_efficiency"] = {critical_ms / traced.wall_ms, "ratio"};
  for (const char* name :
       {"engine.migrations", "engine.peak_concurrent_orders",
        "engine.peak_queue_depth", "engine.truncated_rounds",
        "engine.tier_rounds.greedy_fallback",
        "engine.tier_rounds.fcfs_fallback"}) {
    m[name] = {0, "count"};
  }
  m["engine.tier_rounds.primary"] = {1, "count"};
  m["auction.dispatch_ms_p50"] = {dispatch_ms, "ms"};
  m["auction.dispatch_ms_p95"] = {dispatch_ms, "ms"};
  m["auction.pricing_ms_p50"] = {pricing_ms, "ms"};
  m["auction.pricing_ms_p95"] = {pricing_ms, "ms"};
  m["auction.pricing_share"] = {critical_ms > 0 ? pricing_ms / critical_ms : 0,
                                "ratio"};
  AddOracleMetrics(traced.sp_queries, traced.sp_hits, traced.sp_trivial, 1,
                   &m);

  std::vector<double> untraced_ms;
  for (const auto& it : untraced) untraced_ms.push_back(it->wall_ms);
  m["trace_overhead_frac"] = {traced.wall_ms / Median(untraced_ms) - 1,
                              "ratio"};
  const double coverage = spans.Coverage("round");
  m["trace.coverage"] = {coverage, "ratio"};
  if (coverage < 0.95) {
    out.problems.push_back("harness spans cover less than 95% of the round");
    out.correct = false;
  }

  ProbeInput probe;
  probe.network = &traced.world->network;
  probe.orders = traced.workload.orders;
  probe.vehicles = traced.vehicles;
  probe.config = traced.instance.config;
  probe.pool = &pool;
  probe.seed = config.seed;
  probe.tiny = config.tiny;
  RunLayerProbes(probe, &spans, &out);
  ProbeEngine(traced, config, &spans, &m);
  obs::Tracer::SetEnabled(false);
  out.detail["spans"] = spans.SelfTimes();
  WriteTrace(config, &out);
  return out;
}

}  // namespace perfbench
}  // namespace auctionride
