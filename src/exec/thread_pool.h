// Fixed-size worker pool used for parallel order pricing (§V-C of the paper:
// "we use multiple threads where each one prices one requester") and for the
// clustered pack-generation of the scalability experiment (§V-E).

#ifndef AUCTIONRIDE_EXEC_THREAD_POOL_H_
#define AUCTIONRIDE_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace auctionride {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after the destructor has begun.
  void Submit(std::function<void()> task) ARIDE_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished executing.
  void Wait() ARIDE_EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n), distributing chunks over the pool, and
  /// blocks until all complete. fn must be safe to invoke concurrently.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() ARIDE_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> tasks_ ARIDE_GUARDED_BY(mu_);
  std::size_t in_flight_ ARIDE_GUARDED_BY(mu_) = 0;
  bool shutting_down_ ARIDE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only before workers start
};

/// Runs fn(i) for i in [0, n): on `pool` when it is non-null and n >= 2,
/// serially (ascending i) otherwise. fn must produce results that do not
/// depend on execution order — callers rely on the two paths being
/// bit-identical. Must not be invoked from inside a task running on `pool`:
/// ParallelFor's Wait() would deadlock (in_flight_ never reaches zero while
/// the caller's own task is still counted).
void ParallelForOrSerial(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& fn);

}  // namespace auctionride

#endif  // AUCTIONRIDE_EXEC_THREAD_POOL_H_
