#include "probes.h"

#include <memory>

#include "auction/dnw.h"
#include "auction/rank.h"
#include "auction/verifier.h"
#include "common/rng.h"
#include "planner/insertion.h"
#include "roadnet/oracle.h"

namespace auctionride {
namespace perfbench {

namespace {

void ProbeSplitRoundAndInsertion(const ProbeInput& in, SpanRecorder* spans,
                                 RunOutput* out) {
  const DistanceOracle oracle(in.network,
                              DistanceOracle::Backend::kContractionHierarchy);
  std::vector<Order> deducted = in.orders;
  for (Order& o : deducted) o.bid *= (1.0 - in.config.charge_ratio);
  AuctionInstance instance;
  instance.orders = &deducted;
  instance.vehicles = &in.vehicles;
  instance.now_s = in.now_s;
  instance.oracle = &oracle;
  instance.config = in.config;
  instance.dispatch_pool = in.pool;

  double t0 = NowSeconds();
  RankRunResult run;
  {
    ScopedSpan span(spans, "probe.rank_dispatch");
    run = RankDispatch(instance);
  }
  const double rank_s = NowSeconds() - t0;

  t0 = NowSeconds();
  std::vector<Payment> payments;
  {
    ScopedSpan span(spans, "probe.dnw_price_all");
    payments = DnWPriceAll(instance, run.artifacts, run.result, in.pool);
  }
  const double dnw_s = NowSeconds() - t0;

  t0 = NowSeconds();
  Status verified;
  {
    ScopedSpan span(spans, "probe.verify");
    verified = VerifyDispatch(instance, run.result);
    if (verified.ok()) {
      verified = VerifyPayments(instance, run.result, payments);
    }
  }
  const double verify_s = NowSeconds() - t0;
  if (!verified.ok()) {
    out->correct = false;
    out->problems.push_back("split-round probe: " + verified.ToString());
  }
  out->per_layer["auction.rank_dispatch_s"] = {rank_s, "s"};
  out->per_layer["auction.dnw_price_s"] = {dnw_s, "s"};
  out->per_layer["auction.verify_s"] = {verify_s, "s"};

  // Vehicles with the plans this dispatch gave them (non-empty plans) and
  // room for another rider, each paired with the orders a dispatcher would
  // try on it: those within the order's pickup radius (the necessary
  // condition MaxPickupRadiusM, on the oracle's admissible lower bound).
  struct Candidate {
    Vehicle vehicle;
    std::vector<std::size_t> orders;
  };
  std::vector<Candidate> loaded;
  for (const auto& [idx, plan] : run.result.updated_plans) {
    Candidate c{in.vehicles[idx], {}};
    c.vehicle.plan.stops = plan;
    if (c.vehicle.CommittedRiders() >= c.vehicle.capacity) continue;
    for (std::size_t j = 0; j < deducted.size(); ++j) {
      const Order& o = deducted[j];
      if (oracle.LowerBoundDistance(c.vehicle.next_node, o.origin) <=
          MaxPickupRadiusM(o, oracle.speed_mps()).value()) {
        c.orders.push_back(j);
      }
    }
    if (!c.orders.empty()) loaded.push_back(std::move(c));
  }
  Rng rng(in.seed ^ 0x1a5e47105eedULL);
  std::vector<double> us;
  const int samples = in.tiny ? 200 : 2000;
  us.reserve(static_cast<std::size_t>(samples));
  int feasible = 0;
  {
    ScopedSpan span(spans, "probe.best_insertion");
    for (int k = 0; k < samples && !loaded.empty(); ++k) {
      const Candidate& c = loaded[rng.UniformInt(loaded.size())];
      const Vehicle& v = c.vehicle;
      const Order& o = deducted[c.orders[rng.UniformInt(c.orders.size())]];
      const double s = NowSeconds();
      const InsertionResult r = BestInsertion(v, o, in.now_s, oracle);
      us.push_back((NowSeconds() - s) * 1e6);
      feasible += r.feasible ? 1 : 0;
    }
  }
  out->per_layer["planner.best_insertion_us_p50"] = {Quantile(us, 0.5), "us"};
  out->per_layer["planner.best_insertion_us_p95"] = {Quantile(us, 0.95), "us"};
  out->detail["probe"]["split_round_dispatched"] =
      static_cast<int64_t>(run.result.assignments.size());
  out->detail["probe"]["insertion_samples"] = static_cast<int64_t>(us.size());
  out->detail["probe"]["insertion_feasible"] = feasible;
}

void ProbeDistance(const ProbeInput& in, SpanRecorder* spans,
                   RunOutput* out) {
  // Node pairs drawn from the workload: order origins/destinations and
  // vehicle positions, the endpoints the auction queries between.
  std::vector<NodeId> nodes;
  for (const Order& o : in.orders) {
    nodes.push_back(o.origin);
    nodes.push_back(o.destination);
  }
  for (const Vehicle& v : in.vehicles) nodes.push_back(v.next_node);
  Rng rng(in.seed ^ 0xd15ea5eULL);
  std::vector<DistanceOracle::NodePair> pairs;
  const std::size_t samples = in.tiny ? 2000 : 20000;
  pairs.reserve(samples);
  while (pairs.size() < samples) {
    const NodeId a = nodes[rng.UniformInt(nodes.size())];
    const NodeId b = nodes[rng.UniformInt(nodes.size())];
    if (a != b) pairs.push_back({a, b});
  }

  const DistanceOracle oracle(in.network,
                              DistanceOracle::Backend::kContractionHierarchy);
  double checksum_cold = 0;
  double checksum_warm = 0;
  double t0 = NowSeconds();
  {
    ScopedSpan span(spans, "probe.distance_cold");
    for (const auto& p : pairs) {
      checksum_cold += oracle.Distance(p.source, p.target);
    }
  }
  const double cold_s = NowSeconds() - t0;
  t0 = NowSeconds();
  {
    ScopedSpan span(spans, "probe.distance_warm");
    for (const auto& p : pairs) {
      checksum_warm += oracle.Distance(p.source, p.target);
    }
  }
  const double warm_s = NowSeconds() - t0;
  std::vector<double> batch(pairs.size());
  t0 = NowSeconds();
  {
    ScopedSpan span(spans, "probe.distance_batch_warm");
    oracle.DistanceBatch(pairs, batch);
  }
  const double batch_s = NowSeconds() - t0;
  double checksum_batch = 0;
  for (const double d : batch) checksum_batch += d;
  if (checksum_cold != checksum_warm || checksum_cold != checksum_batch) {
    out->correct = false;
    out->problems.push_back("distance probe: cold, warm and batch passes "
                            "returned different distances");
  }
  const double n = static_cast<double>(pairs.size());
  out->per_layer["roadnet.distance_cold_us"] = {cold_s / n * 1e6, "us"};
  out->per_layer["roadnet.distance_warm_ns"] = {warm_s / n * 1e9, "ns"};
  out->per_layer["roadnet.distance_batch_warm_ns"] = {batch_s / n * 1e9, "ns"};
}

}  // namespace

void RunLayerProbes(const ProbeInput& input, SpanRecorder* spans,
                    RunOutput* out) {
  ScopedSpan span(spans, "probes");
  ProbeSplitRoundAndInsertion(input, spans, out);
  ProbeDistance(input, spans, out);
}

}  // namespace perfbench
}  // namespace auctionride
