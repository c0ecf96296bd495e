// StripedCounter: a monotone event count that many threads bump at once.
//
// A single std::atomic<int64_t> bumped from every worker of a pool keeps
// its cache line bouncing between cores, and at hundreds of millions of
// increments per run that traffic dominates the increment itself. The
// count is instead spread over cache-line-aligned cells; each thread is
// assigned one cell round-robin on first use and only ever adds to it, so
// concurrent bumps from up to kCounterStripes threads touch disjoint lines.
// value() sums the cells: exact once the writers are quiescent, and a
// monotone (not necessarily instantaneous) reading while they run.
//
// Shared by the metrics registry's counters, the distance oracle's query
// statistics and the pack memo's hit/miss counts.

#ifndef AUCTIONRIDE_COMMON_STRIPED_COUNTER_H_
#define AUCTIONRIDE_COMMON_STRIPED_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace auctionride {

inline constexpr std::size_t kCounterStripes = 16;

namespace striped_internal {

// Round-robin assignment of the next thread's stripe (out of line: runs
// once per thread).
std::size_t AssignStripe();

// kCounterStripes = not assigned yet. Constant-initialized, so reading it
// needs no thread_local guard.
inline constinit thread_local std::size_t tl_stripe = kCounterStripes;

}  // namespace striped_internal

/// The calling thread's stripe in [0, kCounterStripes), stable for the
/// thread's lifetime.
inline std::size_t ThreadStripe() {
  std::size_t stripe = striped_internal::tl_stripe;
  if (stripe == kCounterStripes) [[unlikely]] {
    stripe = striped_internal::AssignStripe();
    striped_internal::tl_stripe = stripe;
  }
  return stripe;
}

class StripedCounter {
 public:
  void Add(int64_t n = 1) {
    cells_[ThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const {
    int64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Cell& c : cells_) {
      c.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  Cell cells_[kCounterStripes];
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_COMMON_STRIPED_COUNTER_H_
