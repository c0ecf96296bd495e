// Non-auction baseline dispatchers for the paper's technical-report
// comparison ("comparison to Greedy and Rank under the non-auction
// setting") and for the related online works [10, 11, 14]: the platform
// ignores bids and serves orders first-come-first-served, assigning each to
// the vehicle whose plan grows the least (minimum additional travel
// distance), the standard insertion objective of the ridesharing literature.

#ifndef AUCTIONRIDE_AUCTION_BASELINES_H_
#define AUCTIONRIDE_AUCTION_BASELINES_H_

#include "auction/types.h"

namespace auctionride {

/// First-come-first-served, minimum-insertion-cost dispatch: orders in
/// issue-time (id) order, each assigned to the feasible vehicle minimizing
/// ΔD. Dispatches regardless of utility sign when `serve_all` is true (the
/// classic non-auction objective); otherwise only utility-positive
/// dispatches happen. Every (order, pickup candidate) pair is scored in one
/// pass on instance.dispatch_pool when it is non-null, and a pair whose
/// vehicle an earlier order took is re-scored when its order is picked; the
/// result is that of the in-order walk, bit-identical at any thread count.
DispatchResult FcfsDispatch(const AuctionInstance& instance,
                            bool serve_all = true);

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_BASELINES_H_
