// Anytime sweep primitive for budgeted dispatch (docs/ROBUSTNESS.md).
//
// A budgeted dispatcher walks its sweep's slots in fixed-size batches
// instead of one parallel sweep: the deadline is polled serially *between*
// batches (including before the first), each batch runs unbudgeted — in
// parallel when a pool is available — and its synthetic query charges are
// applied serially after it completes. The cut point is
// therefore a whole-batch boundary decided purely by charges accumulated so
// far: a pure function of work done, bit-identical at any thread count.
// Completed slots are finalized results; slots past the cut are simply
// never attempted.

#ifndef AUCTIONRIDE_AUCTION_ANYTIME_H_
#define AUCTIONRIDE_AUCTION_ANYTIME_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "model/order.h"

namespace auctionride {

class Deadline;
class ThreadPool;
class WarmStartCache;

// Slots per batch. One deadline poll per batch bounds overshoot to a
// batch's work; small enough that storm-profile rounds (tens of pending
// orders) cut mid-sweep instead of degenerating to all-or-nothing.
inline constexpr std::size_t kAnytimeBatchSize = 8;

struct AnytimeSweep {
  // Slots actually run (a whole number of batches, or n when uncut).
  std::size_t processed = 0;
  // True when the deadline expired before all n slots ran.
  bool truncated = false;
};

/// Runs fn(slot) for slot = 0..n-1 in batch order until the deadline
/// expires. After each completed batch, charge(begin, end) is invoked
/// serially to apply that batch's deterministic cost to the deadline.
/// `deadline` may be null (never cuts). Callers that process slots in a
/// priority permutation pass permuted indices through fn/charge themselves.
AnytimeSweep AnytimeBatchedSweep(
    ThreadPool* pool, std::size_t n, Deadline* deadline,
    const std::function<void(std::size_t)>& fn,
    const std::function<void(std::size_t, std::size_t)>& charge);

/// Deterministic warm-first processing order: indices whose order id has
/// hints in `warm` come first, then the rest; both halves in ascending index
/// order. Identity permutation when `warm` is null or empty.
std::vector<std::size_t> WarmFirstPermutation(
    std::size_t n, const WarmStartCache* warm,
    const std::function<OrderId(std::size_t)>& order_of);

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_ANYTIME_H_
