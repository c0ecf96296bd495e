// Greedy-based order dispatch — Algorithm 1 of the paper.
//
// The algorithm initializes a pool of all valid requester-vehicle pairs with
// their utilities u_ij = bid_j − α_d·ΔD_i(r_j) (Equation 3), then repeatedly
// dispatches the maximum-utility pair, removing the dispatched requester's
// other pairs and recomputing the utilities of pairs on the updated vehicle,
// until the pool empties or the maximum utility falls below zero.
//
// Implementation notes:
//  * The pool is a lazy max-heap; entries are stamped with a per-vehicle
//    version, so stale entries (pushed before the vehicle's last update)
//    are discarded on pop — semantically identical to Algorithm 1's
//    re-computation at lines 12–15.
//  * Pair initialization probes only the vehicles PickupCandidateIndex
//    returns (planner/insertion.h): the others cannot reach the origin
//    within the order's waiting time, so the pruning is exact.
//  * GPri (gpri.h) prices a winner by running this dispatch again on the
//    round's other orders and replaying its assignments.

#ifndef AUCTIONRIDE_AUCTION_GREEDY_H_
#define AUCTIONRIDE_AUCTION_GREEDY_H_

#include "auction/types.h"

namespace auctionride {

/// Runs Algorithm 1 on the instance.
DispatchResult GreedyDispatch(const AuctionInstance& instance);

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_GREEDY_H_
