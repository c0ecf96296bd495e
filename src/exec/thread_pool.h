// Fixed-size worker pool used for parallel order pricing (§V-C of the paper:
// "we use multiple threads where each one prices one requester") and for the
// clustered pack-generation of the scalability experiment (§V-E).
//
// ParallelFor nests: a task may call ParallelFor on the pool it runs on, and
// several threads may call it at once. Each call keeps its own completion
// count; the calling thread claims chunks of its own loop until none is
// left, then waits only for the chunks other threads have already claimed,
// which are running. So no call ever waits on queued work.

#ifndef AUCTIONRIDE_EXEC_THREAD_POOL_H_
#define AUCTIONRIDE_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
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

  /// Runs fn(i) for i in [0, n) on the calling thread and the pool's
  /// workers, and returns when all complete. fn must be safe to invoke
  /// concurrently; it may itself call ParallelFor on this pool.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn)
      ARIDE_EXCLUDES(mu_);

  std::size_t num_threads() const { return workers_.size(); }

 private:
  struct Loop;  // one ParallelFor call

  void WorkerLoop() ARIDE_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_available_;
  // One entry per worker a ParallelFor call asked to help; a worker that
  // pops an entry claims chunks of that call's loop.
  std::deque<std::shared_ptr<Loop>> helpers_ ARIDE_GUARDED_BY(mu_);
  bool shutting_down_ ARIDE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only before workers start
};

/// Runs fn(i) for i in [0, n): on `pool` when it is non-null and n >= 2,
/// serially (ascending i) otherwise. fn must produce results that do not
/// depend on execution order — callers rely on the two paths being
/// bit-identical.
void ParallelForOrSerial(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& fn);

}  // namespace auctionride

#endif  // AUCTIONRIDE_EXEC_THREAD_POOL_H_
