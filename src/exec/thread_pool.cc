#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auctionride {

// One ParallelFor call's state. fn is dereferenced only by a thread that
// claimed a chunk, and the call returns only once every claimed chunk has
// finished; a helper that pops its entry after that finds no chunk left and
// touches nothing but `next` (its shared_ptr keeps the Loop alive).
struct ThreadPool::Loop {
  Loop(std::size_t n, std::size_t chunk,
       const std::function<void(std::size_t)>* fn)
      : fn(fn), n(n), chunk(chunk), unfinished((n + chunk - 1) / chunk) {}

  // Claims and runs chunks until none is left, then retires them from the
  // completion count in one step.
  void RunChunks() ARIDE_EXCLUDES(mu) {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(mu);
    unfinished -= ran;
    if (unfinished == 0) done.NotifyAll();
  }

  const std::function<void(std::size_t)>* const fn;
  const std::size_t n;
  const std::size_t chunk;
  std::atomic<std::size_t> next{0};
  Mutex mu;
  CondVar done;
  std::size_t unfinished ARIDE_GUARDED_BY(mu);  // chunks not yet run
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t num_chunks =
      std::min(n, num_threads() * 4);  // small over-decomposition
  const auto loop = std::make_shared<Loop>(
      n, (n + num_chunks - 1) / num_chunks, &fn);
  Loop& own = *loop;
  // The caller runs chunks too, so at most one helper per other chunk.
  const std::size_t helpers = std::min(num_threads(), (n - 1) / own.chunk);
  if (helpers > 0) {
    std::size_t depth = 0;
    {
      MutexLock lock(mu_);
      ARIDE_ACHECK(!shutting_down_);
      helpers_.insert(helpers_.end(), helpers, loop);
      depth = helpers_.size();
    }
    OBS_COUNTER_ADD("threadpool.tasks_submitted",
                    static_cast<int64_t>(helpers));
    OBS_GAUGE_MAX("threadpool.queue_depth.peak", static_cast<double>(depth));
    OBS_TRACE_COUNTER("threadpool.queue_depth", static_cast<double>(depth));
    for (std::size_t h = 0; h < helpers; ++h) work_available_.NotifyOne();
  }
  own.RunChunks();
  MutexLock lock(own.mu);
  while (own.unfinished != 0) own.done.Wait(own.mu);
}

void ParallelForOrSerial(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && n >= 2) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

void ThreadPool::WorkerLoop() {
  obs::Tracer::SetThreadName("pool-worker");
  for (;;) {
    std::shared_ptr<Loop> loop;
    {
      MutexLock lock(mu_);
      // Explicit loop rather than the predicate overload: a wait predicate
      // is a lambda the thread-safety analysis treats as a separate
      // function, which would not see mu_ held.
      while (!shutting_down_ && helpers_.empty()) work_available_.Wait(mu_);
      if (helpers_.empty()) return;  // shutting down
      loop = std::move(helpers_.front());
      helpers_.pop_front();
    }
    loop->RunChunks();
  }
}

}  // namespace auctionride
