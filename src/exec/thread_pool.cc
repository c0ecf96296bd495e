#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auctionride {

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
  task_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  ARIDE_ACHECK(task != nullptr);
  std::size_t depth = 0;
  {
    MutexLock lock(mu_);
    ARIDE_ACHECK(!shutting_down_);
    tasks_.push_back(std::move(task));
    ++in_flight_;
    depth = tasks_.size();
  }
  OBS_COUNTER_INC("threadpool.tasks_submitted");
  OBS_GAUGE_MAX("threadpool.queue_depth.peak", static_cast<double>(depth));
  OBS_TRACE_COUNTER("threadpool.queue_depth", static_cast<double>(depth));
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t num_chunks =
      std::min(n, num_threads() * 4);  // small over-decomposition
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t chunk = (n + num_chunks - 1) / num_chunks;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    Submit([next, chunk, n, &fn] {
      for (;;) {
        const std::size_t begin = next->fetch_add(chunk);
        if (begin >= n) return;
        const std::size_t end = std::min(n, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }
    });
  }
  Wait();
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
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Explicit loop rather than the predicate overload: a wait predicate
      // is a lambda the thread-safety analysis treats as a separate
      // function, which would not see mu_ held.
      while (!shutting_down_ && tasks_.empty()) task_available_.Wait(mu_);
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace auctionride
