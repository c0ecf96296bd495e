// High-level auction mechanism: dispatch + pricing + the §V-C dispatch fee.
//
// The platform may withhold a charge ratio CR of every bid before running
// dispatch & pricing (deducted bids bid'_j = (1−CR)·bid_j are the algorithm
// inputs; undispatched requesters get the fee back). The platform utility is
//   U_plf = Σ_dispatched (pay_j + CR·bid_j) − β_d·ΣD_i ,
// where pay_j is the pricing algorithm's payment on deducted bids.

#ifndef AUCTIONRIDE_AUCTION_MECHANISM_H_
#define AUCTIONRIDE_AUCTION_MECHANISM_H_

#include <string>
#include <vector>

#include "auction/dispatch_tier.h"
#include "auction/rank.h"
#include "auction/types.h"
#include "common/status.h"

namespace auctionride {

class ThreadPool;

enum class MechanismKind {
  kGreedy,  // Algorithm 1 + GPri (Algorithm 2)
  kRank,    // Algorithm 3 + DnW (Algorithm 4)
};

std::string_view MechanismName(MechanismKind kind);

/// Per-round compute budget for the anytime quality curve
/// (DispatchTier, docs/ROBUSTNESS.md). Inactive (the default) preserves
/// unbudgeted behavior exactly.
struct DispatchBudget {
  // Budget per round in seconds; <= 0 disables budgeting. A knob, not a
  // simulated quantity: it feeds Deadline's ns arithmetic and `<= 0
  // disables` sentinel, which Seconds deliberately has no idiom for.
  double budget_s = 0;  // NOLINT-ARIDE(raw-unit-double): budget knob
  // True: budget counts real elapsed time plus synthetic charges (production
  // behavior, not bit-reproducible). False: synthetic charges only, so runs
  // are bit-identical for a fixed seed/profile at any thread count.
  bool wall_clock = false;
  // Synthetic cost charged per oracle query (latency-spike model); 0 = no
  // per-query charges.
  double query_penalty_s = 0;

  bool active() const { return budget_s > 0; }
};

struct MechanismOutcome {
  // Dispatch computed on deducted bids. Assignment utilities/costs and
  // total_utility are in deducted-bid terms (the auction the algorithms
  // actually ran).
  DispatchResult dispatch;
  // Payments on deducted bids, one per assignment (empty when pricing was
  // not requested).
  std::vector<Payment> payments;

  // Σ pay_j + CR·Σ bid_j − β_d·ΣΔD over dispatched requesters, yuan.
  Money platform_utility;
  // Σ (val_j − pay_j − CR·bid_j) over dispatched requesters, yuan (with
  // truthful bids val_j = bid_j).
  Money requester_utility;

  // Wall time of the tier loop. A budgeted round prices each tier inline,
  // so its dispatch_seconds includes that pricing (the budget bounds both);
  // an unbudgeted round reports dispatch alone. pricing_seconds is the
  // pricing share either way.
  Seconds dispatch_seconds;
  Seconds pricing_seconds;

  // Deepest tier that contributed assignments (kPrimary unless a budget
  // expired; see DispatchBudget). Under the anytime curve a round can mix
  // tiers — dispatched_by_tier has the full split, Assignment::tier the
  // per-order stamp. FCFS-tier assignments carry no payments even when
  // pricing was requested.
  DispatchTier tier = DispatchTier::kPrimary;
  // Assignments contributed by each tier, indexed by DispatchTier.
  int dispatched_by_tier[kDispatchTierCount] = {0, 0, 0};
  // True when the round budget expired and at least one tier was cut.
  bool truncated = false;

  // Rank artifacts (kind == kRank only, primary tier only), for callers
  // that price separately.
  RankArtifacts rank_artifacts;
};

struct MechanismOptions {
  bool run_pricing = true;
  // Round compute budget driving the degradation ladder; inactive by
  // default.
  DispatchBudget budget;
};

/// Runs one dispatch round end to end: the tier loop of the quality curve
/// under one shared deadline. Without a budget the primary tier always
/// completes, so the round is the configured mechanism alone. `instance`
/// carries the *original* bids; the charge ratio from instance.config is
/// applied internally.
/// `pricing_pool` parallelizes per-order pricing (§V-C); `dispatch_pool`
/// parallelizes dispatch candidate generation (overrides
/// instance.dispatch_pool when non-null). The two may be the same pool:
/// GPri strips the dispatch pool from its re-runs when pricing is pooled.
MechanismOutcome RunMechanism(MechanismKind kind,
                              const AuctionInstance& instance,
                              const MechanismOptions& options = {},
                              ThreadPool* pricing_pool = nullptr,
                              ThreadPool* dispatch_pool = nullptr);

/// Re-validates a RunMechanism outcome against the instance it ran on
/// (original bids): the dispatch with auction::VerifyDispatch and, when
/// pricing ran, the payments with VerifyPayments — both on the
/// charge-deducted bids the mechanism actually auctioned.
Status VerifyMechanismOutcome(const AuctionInstance& original,
                              const MechanismOutcome& outcome);

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_MECHANISM_H_
