// GPri — order pricing for the greedy dispatch (Algorithm 2 of the paper).
//
// To price a dispatched requester r_h, Algorithm 1 is run on R \ {r_h}: the
// dispatch loop (GreedyDispatchLoop) over the round's own seed table with
// r_h's slot skipped, so no pair is computed a second time and no heap is
// rebuilt. Its assignments are replayed over copies of r_h's pickup
// candidates (PickupCandidateIndex) to recover r_h's cheapest insertion
// cost before each step. The payment is the minimum over:
//   * r_h's cheapest insertion cost once every other dispatch has finished
//     (dispatched without replacing anyone; requires feasibility then), and
//   * for each dispatched r_jk, the smallest bid for r_h to replace it:
//     bid_jk − cost_jk + h_cost_k, where h_cost_k is r_h's cheapest
//     insertion cost immediately before r_jk's dispatch,
// capped by bid_h (individual rationality). The scan stops at the first step
// where r_h has no valid insertion left (vehicles only fill up, so validity
// is monotone).

#ifndef AUCTIONRIDE_AUCTION_GPRI_H_
#define AUCTIONRIDE_AUCTION_GPRI_H_

#include <vector>

#include "auction/greedy.h"
#include "auction/types.h"

namespace auctionride {

class ThreadPool;

/// Critical payment of the dispatched requester `order_id` under Greedy.
/// `seeds` must be the complete seed table of GreedyDispatch on the same
/// instance.
Money GPriPriceOrder(const AuctionInstance& instance,
                     const GreedySeedTable& seeds, OrderId order_id);

/// Prices every requester dispatched in `dispatch`, which GreedyDispatch
/// returned on the same instance together with `seeds`. Slots an anytime
/// cut left unreached are computed first, once. Requesters are then priced
/// independently (in parallel when `pool` is non-null, matching the
/// paper's multithreaded pricing).
std::vector<Payment> GPriPriceAll(const AuctionInstance& instance,
                                  GreedySeedTable seeds,
                                  const DispatchResult& dispatch,
                                  ThreadPool* pool = nullptr);

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_GPRI_H_
