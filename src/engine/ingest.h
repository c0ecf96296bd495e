// MPSC order-ingestion queue: producer threads submit orders, one consumer
// (the owning shard's round task) drains them at the start of each dispatch
// round.
//
// One annotated mutex guards one vector; a push holds it for one push_back.
// The drain hands over the whole vector and the shard sorts the batch by
// order id before it enters the pending pool, so arrival interleaving
// between producers cannot change the round's auction input. The queue is
// unbounded; a bound would be a size check in Push under the same lock.
// Capability annotations (common/thread_annotations.h) let Clang's
// thread-safety analysis check every access path.

#ifndef AUCTIONRIDE_ENGINE_INGEST_H_
#define AUCTIONRIDE_ENGINE_INGEST_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "model/order.h"

namespace auctionride {

class IngestQueue {
 public:
  IngestQueue() = default;
  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Thread-safe.
  void Push(const Order& order) ARIDE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    buffer_.push_back(order);
    peak_depth_ = std::max(peak_depth_, buffer_.size());
  }

  /// Consumer-side: appends every queued order to `out` in arrival order
  /// (the shard sorts by id) and returns the count.
  std::size_t DrainTo(std::vector<Order>* out) ARIDE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const std::size_t drained = buffer_.size();
    out->insert(out->end(), buffer_.begin(), buffer_.end());
    buffer_.clear();
    return drained;
  }

  /// Orders queued now.
  std::size_t depth() const ARIDE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return buffer_.size();
  }
  /// High-water mark of depth() over the queue's lifetime.
  std::size_t peak_depth() const ARIDE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return peak_depth_;
  }

 private:
  mutable Mutex mu_;
  std::vector<Order> buffer_ ARIDE_GUARDED_BY(mu_);
  std::size_t peak_depth_ ARIDE_GUARDED_BY(mu_) = 0;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ENGINE_INGEST_H_
