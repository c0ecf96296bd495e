// Anytime sweep primitive for dispatch (docs/ROBUSTNESS.md).
//
// Greedy's seed sweep and Rank's nearest-vehicle pass and pack search all
// run through RunAnytimeSweep. Without a deadline it is one parallel sweep.
// With a deadline it walks the slots in fixed-size batches: the deadline is
// polled serially *between* batches (including before the first), each
// batch runs in parallel when a pool is available, and every slot charges
// its own oracle-query count from whichever worker ran it. Charges are a
// relaxed atomic add, so the total seen at a poll is the sum over completed
// slots whatever order they landed in. The cut point is therefore a
// whole-batch boundary decided purely by work done, bit-identical at any
// thread count. Completed slots are finalized results; slots past the cut
// are simply never attempted.

#ifndef AUCTIONRIDE_AUCTION_ANYTIME_H_
#define AUCTIONRIDE_AUCTION_ANYTIME_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "model/order.h"
#include "roadnet/oracle.h"

namespace auctionride {

class Deadline;
class ThreadPool;
class WarmStartCache;

// Slots per batch. One deadline poll per batch bounds overshoot to a
// batch's work; small enough that storm-profile rounds (tens of pending
// orders) cut mid-sweep instead of degenerating to all-or-nothing.
inline constexpr std::size_t kAnytimeBatchSize = 8;

/// Runs slot(i) for i = 0..n-1; slot returns the oracle queries it made.
/// `deadline` null: one ParallelForOrSerial over every slot, counts
/// ignored. Otherwise slots whose order id (order_of(i)) has hints in
/// `warm` run first, then the rest, both in ascending index order; expiry is
/// polled before each batch of kAnytimeBatchSize slots and each slot's count
/// is charged to the deadline at its query penalty. `warm` may be null
/// (identity order; order_of is then never called). Returns true when the
/// deadline cut the sweep.
bool RunAnytimeSweep(ThreadPool* pool, std::size_t n, Deadline* deadline,
                     const WarmStartCache* warm,
                     const std::function<OrderId(std::size_t)>& order_of,
                     const std::function<int64_t(std::size_t)>& slot);

/// Runs fn() and returns the oracle queries the calling thread made in it.
template <typename Fn>
int64_t CountQueries(Fn&& fn) {
  const int64_t before = DistanceOracle::ThreadQueryCount();
  fn();
  return DistanceOracle::ThreadQueryCount() - before;
}

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_ANYTIME_H_
