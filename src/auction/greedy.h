// Greedy-based order dispatch — Algorithm 1 of the paper.
//
// The algorithm initializes a pool of all valid requester-vehicle pairs with
// their utilities u_ij = bid_j − α_d·ΔD_i(r_j) (Equation 3), then repeatedly
// dispatches the maximum-utility pair, removing the dispatched requester's
// other pairs and recomputing the utilities of pairs on the updated vehicle,
// until the pool empties or the maximum utility falls below zero.
//
// Implementation notes:
//  * The seed sweep (lines 2–6) fills a GreedySeedTable; the dispatch loop
//    (lines 7–16, GreedyDispatchLoop) runs over that table.
//  * The pool is a lazy max-heap; entries are stamped with a per-vehicle
//    version, so stale entries (pushed before the vehicle's last update)
//    are discarded on pop — semantically identical to Algorithm 1's
//    re-computation at lines 12–15.
//  * The table carries the loop's initial state (the heap, already in heap
//    order, and each vehicle's candidate slots), built once per round, so
//    the main run and every GPri run copy it instead of rebuilding it.
//  * Pair initialization probes only the vehicles PickupCandidateIndex
//    returns (planner/insertion.h): the others cannot reach the origin
//    within the order's waiting time, so the pruning is exact.
//  * GPri (gpri.h) prices a winner r_h by running the dispatch loop again
//    over the round's seed table with r_h's slot skipped, and replaying its
//    assignments.

#ifndef AUCTIONRIDE_AUCTION_GREEDY_H_
#define AUCTIONRIDE_AUCTION_GREEDY_H_

#include <cstdint>
#include <vector>

#include "auction/types.h"

namespace auctionride {

class PickupCandidateIndex;
class ThreadPool;

/// One valid pair of Algorithm 1's initial pool: u_ij at the instance's
/// vehicle plans.
struct GreedySeed {
  Money utility;
  int32_t veh;  // index into instance.vehicles
};

/// An entry of the dispatch loop's lazy max-heap: pair (order slot, vehicle
/// index) with u_ij as of vehicle version `version`.
struct GreedyHeapEntry {
  Money utility;
  int32_t order_idx;
  int32_t veh_idx;
  uint32_t version;
};

/// Algorithm 1's initial pool (lines 2–6), one slot per order in instance
/// order. A pair depends only on its order, the instance's vehicle plans and
/// now_s, so dropping an order leaves every other slot as it is: the table
/// of a round seeds the dispatch of any subset of its orders.
struct GreedySeedTable {
  // Per order slot: its valid pairs, in pickup-candidate order.
  std::vector<std::vector<GreedySeed>> pairs;
  // 1 where the sweep computed the slot. An anytime cut leaves the rest 0
  // (and their pairs empty).
  std::vector<char> reached;

  // The dispatch loop's initial state over `pairs`, built when the pairs
  // are final (by GreedyDispatch after the sweep, and again by
  // FillUnreachedSeeds): every pair at version 0, in heap order.
  std::vector<GreedyHeapEntry> heap;
  // Vehicle i's candidate order slots, ascending, are
  // cand_slots[cand_offsets[i] .. cand_offsets[i + 1]).
  std::vector<int32_t> cand_offsets;
  std::vector<int32_t> cand_slots;

  /// True when the sweep reached every slot.
  bool complete() const;
};

struct GreedyRunResult {
  DispatchResult result;
  GreedySeedTable seeds;
};

/// Runs Algorithm 1 on the instance: the seed sweep, then
/// GreedyDispatchLoop over its table with no order skipped.
GreedyRunResult GreedyDispatch(const AuctionInstance& instance);

/// Algorithm 1's dispatch loop (lines 7–16) over `seeds`, which must be
/// the table of `instance` as GreedyDispatch or FillUnreachedSeeds left it. Order slot `excluded` (-1: none) is left
/// out, so the result, and the loop's counters, equal a dispatch of the
/// instance without that order.
/// The loop polls instance.deadline only when the table is complete (a cut
/// sweep has already spent the budget). When `step_slots` is non-null it
/// receives the order slot of each assignment, in dispatch order.
DispatchResult GreedyDispatchLoop(const AuctionInstance& instance,
                                  const GreedySeedTable& seeds, int excluded,
                                  std::vector<int32_t>* step_slots = nullptr);

/// Computes, with no deadline, every slot of `seeds` the sweep did not
/// reach (on `pool` when non-null), with the sweep's own per-order seed
/// function, and rebuilds the table's loop state. `candidates` indexes
/// instance.vehicles.
void FillUnreachedSeeds(const AuctionInstance& instance,
                        const PickupCandidateIndex& candidates,
                        GreedySeedTable* seeds, ThreadPool* pool);

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_GREEDY_H_
