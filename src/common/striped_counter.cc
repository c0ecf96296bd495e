#include "common/striped_counter.h"

namespace auctionride {
namespace striped_internal {

std::size_t AssignStripe() {
  static std::atomic<std::size_t> next_stripe{0};
  return next_stripe.fetch_add(1, std::memory_order_relaxed) %
         kCounterStripes;
}

}  // namespace striped_internal
}  // namespace auctionride
