#include "auction/anytime.h"

#include <algorithm>
#include <vector>

#include "auction/warm_start.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"

namespace auctionride {

namespace {

// Warm-first processing order: indices whose order id has hints in `warm`
// come first, then the rest; both halves in ascending index order.
// Identity permutation when `warm` is null or empty.
std::vector<std::size_t> WarmFirstPermutation(
    std::size_t n, const WarmStartCache* warm,
    const std::function<OrderId(std::size_t)>& order_of) {
  std::vector<std::size_t> priority;
  priority.reserve(n);
  if (warm != nullptr && warm->order_count() > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (warm->HasHints(order_of(i))) priority.push_back(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!warm->HasHints(order_of(i))) priority.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) priority.push_back(i);
  }
  return priority;
}

}  // namespace

bool RunAnytimeSweep(ThreadPool* pool, std::size_t n, Deadline* deadline,
                     const WarmStartCache* warm,
                     const std::function<OrderId(std::size_t)>& order_of,
                     const std::function<int64_t(std::size_t)>& slot) {
  if (deadline == nullptr) {
    ParallelForOrSerial(pool, n, [&](std::size_t i) { slot(i); });
    return false;
  }
  const std::vector<std::size_t> priority =
      WarmFirstPermutation(n, warm, order_of);
  for (std::size_t begin = 0; begin < n; begin += kAnytimeBatchSize) {
    if (deadline->expired()) return true;
    const std::size_t end = std::min(n, begin + kAnytimeBatchSize);
    // Workers fill disjoint slots and the charges commute, so the batch's
    // outcome cannot depend on the thread count.
    ParallelForOrSerial(pool, end - begin, [&](std::size_t k) {
      deadline->ChargeQueries(slot(priority[begin + k]));
    });
  }
  return false;
}

}  // namespace auctionride
