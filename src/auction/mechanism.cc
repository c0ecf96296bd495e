#include "auction/mechanism.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "auction/baselines.h"
#include "auction/dnw.h"
#include "auction/gpri.h"
#include "auction/greedy.h"
#include "auction/verifier.h"
#include "common/check.h"
#include "common/timer.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auctionride {

std::string_view MechanismName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kGreedy:
      return "Greedy+GPri";
    case MechanismKind::kRank:
      return "Rank+DnW";
  }
  return "unknown";
}

namespace {

// Tier sequence of the quality curve for a primary mechanism.
std::vector<DispatchTier> LadderTiers(MechanismKind kind) {
  std::vector<DispatchTier> tiers = {DispatchTier::kPrimary};
  if (kind == MechanismKind::kRank) {
    tiers.push_back(DispatchTier::kGreedyFallback);
  }
  tiers.push_back(DispatchTier::kFcfsFallback);
  return tiers;
}

// The §V-C dispatch fee: the algorithms auction every bid net of CR·bid.
std::vector<Order> DeductCharge(const AuctionInstance& instance) {
  ARIDE_ACHECK(instance.orders != nullptr);
  const double cr = instance.config.charge_ratio;
  ARIDE_ACHECK(cr >= 0 && cr < 1) << "charge ratio must be in [0, 1)";
  std::vector<Order> deducted = *instance.orders;
  for (Order& o : deducted) o.bid *= (1.0 - cr);
  return deducted;
}

// Appends one tier's dispatch to the round's. A vehicle that won in an
// earlier tier and again in this one carries this tier's plan, which was
// built on top of the earlier one.
void MergeTier(DispatchResult&& tier, DispatchResult* round) {
  round->assignments.insert(round->assignments.end(),
                            tier.assignments.begin(), tier.assignments.end());
  round->total_utility += tier.total_utility;
  round->total_delta_delivery_m += tier.total_delta_delivery_m;
  round->elapsed_seconds += tier.elapsed_seconds;
  for (auto& [idx, plan] : tier.updated_plans) {
    const auto it = std::find_if(
        round->updated_plans.begin(), round->updated_plans.end(),
        [idx = idx](const auto& entry) { return entry.first == idx; });
    if (it != round->updated_plans.end()) {
      it->second = std::move(plan);
    } else {
      round->updated_plans.push_back({idx, std::move(plan)});
    }
  }
  round->surviving_pairs.insert(round->surviving_pairs.end(),
                                tier.surviving_pairs.begin(),
                                tier.surviving_pairs.end());
}

}  // namespace

MechanismOutcome RunMechanism(MechanismKind kind,
                              const AuctionInstance& instance,
                              const MechanismOptions& options,
                              ThreadPool* pricing_pool,
                              ThreadPool* dispatch_pool) {
  const std::vector<Order> deducted = DeductCharge(instance);
  AuctionInstance charged = instance;
  charged.orders = &deducted;
  if (dispatch_pool != nullptr) charged.dispatch_pool = dispatch_pool;
  OBS_GAUGE_SET("auction.dispatch.pool_threads",
                charged.dispatch_pool != nullptr
                    ? static_cast<double>(charged.dispatch_pool->num_threads())
                    : 0.0);

  MechanismOutcome outcome;
  WallTimer dispatch_timer;
  Seconds pricing_elapsed;  // accumulated across tiers
  {
    OBS_TRACE_SPAN("auction.dispatch");
    // Quality curve (docs/ROBUSTNESS.md): every budgeted tier shares one
    // deadline; a truncated tier keeps its finalized winners and only the
    // unassigned remainder falls through with the residual budget. Without
    // a budget there is no deadline, so the primary tier completes and the
    // loop ends there. Each priced tier is priced immediately — GPri/DnW
    // must see exactly the orders and vehicle plans that tier's dispatch
    // saw, before the next tier's plans land.
    Deadline budget_dl =
        options.budget.wall_clock
            ? Deadline::WallClock(options.budget.budget_s)
            : Deadline::Synthetic(options.budget.budget_s,
                                  options.budget.query_penalty_s);
    Deadline* const dl = options.budget.active() ? &budget_dl : nullptr;
    // The next tier's input after a cut: the unassigned remainder, on the
    // vehicles with every earlier tier's plans patched in.
    std::vector<Order> residual;
    std::vector<Vehicle> patched;
    AuctionInstance sub = charged;
    DispatchTier deepest_ran = DispatchTier::kPrimary;
    for (const DispatchTier tier : LadderTiers(kind)) {
      // The terminal FCFS tier is unbudgeted: it always completes.
      sub.deadline = tier != DispatchTier::kFcfsFallback ? dl : nullptr;
      deepest_ran = tier;
      DispatchResult tier_result;
      // The tier's pricing inputs: Greedy's seed table for GPri, Rank's
      // artifacts for DnW.
      GreedySeedTable seeds;
      RankArtifacts artifacts;
      if (tier == DispatchTier::kFcfsFallback) {
        // serve_all=false keeps FCFS inside the mechanism's individual-
        // rationality envelope (only nonnegative-utility pairs dispatch).
        tier_result = FcfsDispatch(sub, /*serve_all=*/false);
      } else if (kind == MechanismKind::kGreedy ||
                 tier == DispatchTier::kGreedyFallback) {
        GreedyRunResult run = GreedyDispatch(sub);
        tier_result = std::move(run.result);
        seeds = std::move(run.seeds);
      } else {
        RankRunResult run = RankDispatch(sub);
        tier_result = std::move(run.result);
        artifacts = std::move(run.artifacts);
      }
      // FCFS-tier winners skip pricing: neither GPri nor DnW is defined for
      // an FCFS dispatch, and a degraded round's goal is just to keep
      // serving.
      if (options.run_pricing && tier != DispatchTier::kFcfsFallback &&
          !tier_result.assignments.empty()) {
        OBS_TRACE_SPAN("auction.pricing");
        WallTimer pricing_timer;
        AuctionInstance price_in = sub;
        price_in.deadline = nullptr;  // pricing is unbudgeted
        price_in.warm_start = nullptr;
        std::vector<Payment> tier_payments;
        if (kind == MechanismKind::kGreedy ||
            tier == DispatchTier::kGreedyFallback) {
          // Greedy-tier winners price with GPri: DnW needs Rank
          // artifacts that a fallback dispatch does not have.
          tier_payments = GPriPriceAll(price_in, std::move(seeds),
                                       tier_result, pricing_pool);
        } else {
          tier_payments =
              DnWPriceAll(price_in, artifacts, tier_result, pricing_pool);
        }
        outcome.payments.insert(outcome.payments.end(),
                                tier_payments.begin(), tier_payments.end());
        pricing_elapsed += Seconds(pricing_timer.ElapsedSeconds());
      }
      if (tier == DispatchTier::kPrimary) {
        outcome.rank_artifacts = std::move(artifacts);
      }
      outcome.dispatched_by_tier[static_cast<int>(tier)] +=
          static_cast<int>(tier_result.assignments.size());
      for (Assignment& a : tier_result.assignments) a.tier = tier;
      const bool complete = tier_result.anytime.complete;
      if (!complete) {
        outcome.truncated = true;
        OBS_COUNTER_ADD(
            "auction.dispatch.anytime.partial_winners",
            static_cast<int64_t>(tier_result.assignments.size()));
        std::vector<Order> next;
        for (const Order& o : *sub.orders) {
          if (!tier_result.IsDispatched(o.id)) next.push_back(o);
        }
        residual = std::move(next);
        OBS_COUNTER_ADD("auction.dispatch.anytime.residual_orders",
                        static_cast<int64_t>(residual.size()));
        if (patched.empty()) patched = *instance.vehicles;
        for (const auto& [idx, plan] : tier_result.updated_plans) {
          patched[idx].plan.stops = plan;
        }
        sub.orders = &residual;
        sub.vehicles = &patched;
      }
      MergeTier(std::move(tier_result), &outcome.dispatch);
      if (complete || residual.empty()) break;
    }
    outcome.dispatch.anytime.complete = !outcome.truncated;
    // Deepest tier that contributed winners — or, when nothing dispatched
    // at all, the deepest tier that ran.
    outcome.tier = deepest_ran;
    for (int t = kDispatchTierCount - 1; t >= 0; --t) {
      if (outcome.dispatched_by_tier[t] > 0) {
        outcome.tier = static_cast<DispatchTier>(t);
        break;
      }
    }
    if (outcome.truncated) {
      OBS_COUNTER_INC("auction.dispatch.anytime.truncated_rounds");
    }
  }
  if (outcome.tier != DispatchTier::kPrimary) {
    OBS_COUNTER_INC("auction.degraded_rounds");
  }
  outcome.dispatch_seconds = Seconds(dispatch_timer.ElapsedSeconds());
  if (!options.budget.active()) outcome.dispatch_seconds -= pricing_elapsed;
  // Reuse the mechanism's own wall-clock measurements so the telemetry
  // matches what the paper-facing tables report.
  OBS_HISTOGRAM_OBSERVE(
      "auction.dispatch_s",
      outcome.dispatch_seconds.value());  // NOLINT-ARIDE(unsafe-unit-cast)
  OBS_COUNTER_ADD("auction.orders_submitted",
                  static_cast<int64_t>(instance.orders->size()));
  OBS_COUNTER_ADD("auction.assignments",
                  static_cast<int64_t>(outcome.dispatch.assignments.size()));

  if (options.run_pricing && !outcome.payments.empty()) {
    outcome.pricing_seconds = pricing_elapsed;
    OBS_HISTOGRAM_OBSERVE(
        "auction.pricing_s",
        outcome.pricing_seconds.value());  // NOLINT-ARIDE(unsafe-unit-cast)

    std::unordered_map<OrderId, const Order*> by_id;
    for (const Order& o : *instance.orders) by_id[o.id] = &o;
    Money pay_sum;
    Money fee_sum;
    Money val_sum;
    for (const Payment& p : outcome.payments) {
      const Order* original = by_id.at(p.order);
      pay_sum += p.payment;
      fee_sum += instance.config.charge_ratio * original->bid;
      val_sum += original->valuation;
    }
    const MoneyPerMeter beta_per_m{instance.config.beta_d_per_km / 1000.0};
    const Money driver_payout =
        beta_per_m * outcome.dispatch.total_delta_delivery_m;
    outcome.platform_utility = pay_sum + fee_sum - driver_payout;
    outcome.requester_utility = val_sum - pay_sum - fee_sum;
  }
  return outcome;
}

Status VerifyMechanismOutcome(const AuctionInstance& original,
                              const MechanismOutcome& outcome) {
  const std::vector<Order> deducted = DeductCharge(original);
  AuctionInstance charged = original;
  charged.orders = &deducted;
  const Status dispatched = VerifyDispatch(charged, outcome.dispatch);
  if (!dispatched.ok() || outcome.payments.empty()) return dispatched;
  return VerifyPayments(charged, outcome.dispatch, outcome.payments);
}

}  // namespace auctionride
