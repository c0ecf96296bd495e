// Ranking-based order dispatch — Algorithm 3 of the paper.
//
// Phase I (pack generation): each requester r_j is matched with its nearest
// vehicle; then the optimal pack containing r_j (at most c̄ requesters,
// served by one of the members' nearest vehicles, routed by their optimal
// sequence) is found. Phase II (pack dispatch): packs are dispatched in
// descending utility order, removing conflicting packs (shared requester or
// vehicle).
//
// Implementation notes:
//  * Pack enumeration is restricted to each requester's K nearest
//    co-requesters by origin (bid-independent, so the truthfulness argument
//    holds within this fixed pack universe; see DESIGN.md).
//  * For large rounds the paper's §V-E clustering optimization kicks in:
//    orders are k-means-clustered into groups of ~cluster_target_size and
//    packs are searched within groups, in parallel.
//  * Every evaluated candidate pack is retained in RankArtifacts — the DnW
//    pricing algorithm needs, per requester, the best pack excluding the
//    priced requester (p'_j in the paper).

#ifndef AUCTIONRIDE_AUCTION_RANK_H_
#define AUCTIONRIDE_AUCTION_RANK_H_

#include <vector>

#include "auction/types.h"
#include "planner/pack_planner.h"

namespace auctionride {

/// One evaluated candidate pack of a requester. Plans are not stored; the
/// dispatcher recomputes the (deterministic) optimal route when a pack wins.
struct PackCandidate {
  std::vector<int32_t> members;  // order indices into the instance, sorted
  int32_t vehicle = -1;          // vehicle index into the instance
  Meters delta_delivery_m;       // joint ΔD of inserting all members
  Money bid_sum;                 // Σ member bids at the instance's bids
  Money utility;                 // bid_sum − α_d·ΔD

  bool Contains(int32_t order_idx) const {
    for (int32_t m : members) {
      if (m == order_idx) return true;
    }
    return false;
  }
};

/// A pack in Phase II's ranking, with the requester whose slot it occupies.
struct RankedPack {
  int32_t owner;  // requester index into the instance
  const PackCandidate* pack;
};

/// Phase II's ranking order: descending utility, ties to the lower owner.
/// The float ordering is exact (epsilon ties would break strict weak
/// ordering). Owners are unique within a ranking, so this is a total order:
/// merging two runs sorted by it yields exactly the sorted union.
inline bool RanksBefore(const RankedPack& a, const RankedPack& b) {
  if (a.pack->utility > b.pack->utility) return true;
  if (b.pack->utility > a.pack->utility) return false;
  return a.owner < b.owner;
}

struct RankArtifacts {
  // candidates[j]: all feasible packs evaluated for requester j (its
  // restricted pack universe). best[j]: index of the maximum-utility one,
  // -1 when none is feasible.
  std::vector<std::vector<PackCandidate>> candidates;
  std::vector<int32_t> best;
  // The requesters with a best pack, in Phase II's ranking order.
  std::vector<int32_t> ranking;
  // Nearest vehicle (index) of each requester, -1 when there are none.
  std::vector<int32_t> nearest_vehicle;
};

struct RankRunResult {
  DispatchResult result;
  RankArtifacts artifacts;
};

/// Runs Algorithm 3 on the instance.
RankRunResult RankDispatch(const AuctionInstance& instance);

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_RANK_H_
