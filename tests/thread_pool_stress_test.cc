// TSan-targeted stress tests for ThreadPool: concurrent submission from
// many producer threads, tasks that submit tasks, Wait() racing against
// active workers, ParallelFor nesting, and rapid construct/shutdown cycles
// with work still queued — plus the sharded PackMemo that Rank's parallel
// pack generation shares across pool workers. Run these under the tsan
// preset (cmake --preset tsan) to get race detection; under asan they
// double as lifetime checks on the task queue.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "auction/pack_memo.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"

namespace auctionride {
namespace {

TEST(ThreadPoolStressTest, ConcurrentSubmittersAndWaiters) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  constexpr int kProducers = 6;
  constexpr int kTasksPerProducer = 200;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed] {
      for (int t = 0; t < kTasksPerProducer; ++t) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
        if (t % 50 == 0) pool.Wait();  // waiters race the other producers
      }
    });
  }
  for (std::thread& p : producers) p.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolStressTest, TasksSubmittingTasks) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  constexpr int kRoots = 64;
  for (int t = 0; t < kRoots; ++t) {
    pool.Submit([&pool, &executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  pool.Wait();
  EXPECT_EQ(executed.load(), 2 * kRoots);
}

TEST(ThreadPoolStressTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolStressTest, ConcurrentParallelForCalls) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> callers;
  callers.reserve(3);
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&pool, &sum] {
      pool.ParallelFor(1000, [&sum](std::size_t i) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(sum.load(), 3L * (999L * 1000L / 2));
}

TEST(ThreadPoolStressTest, ShutdownDrainsQueuedTasks) {
  // The destructor must let queued-but-unstarted tasks finish: repeated
  // short-lived pools with a burst of queued work.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> executed{0};
    {
      ThreadPool pool(2);
      for (int t = 0; t < 100; ++t) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
      // No Wait(): destruction races the workers through the backlog.
    }
    EXPECT_EQ(executed.load(), 100) << "round " << round;
  }
}

TEST(PackMemoStressTest, ConcurrentLookupInsertOverlappingKeys) {
  // Rank's parallel pack generation: many workers race to look up and
  // insert the same (vehicle, members) keys through the sharded memo. The
  // value of a key is a pure function of it, so whoever inserts first must
  // win with the identical value every reader then sees.
  PackMemo memo;
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  constexpr int32_t kVehicles = 8;
  std::atomic<int> wrong_values{0};
  pool.ParallelFor(kTasks, [&](std::size_t t) {
    // Small key space so distinct tasks collide on keys constantly.
    const auto vehicle = static_cast<int32_t>(t % kVehicles);
    const auto a = static_cast<int32_t>(t % 5);
    const auto b = static_cast<int32_t>(t % 3 + 5);
    const std::vector<int32_t> members = {a, b};
    const PackMemo::Eval expect{
        (vehicle + a + b) % 2 == 0,
        Meters(static_cast<double>(vehicle * 100 + a + b))};
    PackMemo::Eval got;
    if (!memo.Lookup(vehicle, members, &got)) {
      memo.Insert(vehicle, members, expect);
      got = expect;
    }
    if (got.feasible != expect.feasible ||
        got.delta_delivery_m != expect.delta_delivery_m) {
      wrong_values.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(wrong_values.load(), 0);
  // 8 vehicles × 5 a-values × 3 b-values distinct keys at most.
  EXPECT_LE(memo.size(), static_cast<std::size_t>(kVehicles * 5 * 3));
  EXPECT_GT(memo.size(), 0u);
  EXPECT_EQ(memo.hits() + memo.misses(), static_cast<int64_t>(kTasks));
}

TEST(PackMemoStressTest, InsertIsIdempotent) {
  PackMemo memo;
  const std::vector<int32_t> members = {1, 4, 9};
  memo.Insert(3, members, {true, Meters(123.0)});
  memo.Insert(3, members, {false, Meters(999.0)});  // loses: first insert wins
  PackMemo::Eval eval;
  ASSERT_TRUE(memo.Lookup(3, members, &eval));
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(eval.delta_delivery_m, Meters(123.0));
  EXPECT_EQ(memo.size(), 1u);
}

TEST(ThreadPoolStressTest, ParallelForOrSerialMatchesSerial) {
  // Both paths must produce identical per-slot results; the serial path
  // must also run without any pool.
  constexpr std::size_t kN = 257;
  std::vector<int> with_pool(kN, 0);
  std::vector<int> without_pool(kN, 0);
  ThreadPool pool(3);
  ParallelForOrSerial(&pool, kN, [&](std::size_t i) {
    with_pool[i] = static_cast<int>(i * 7 + 1);
  });
  ParallelForOrSerial(nullptr, kN, [&](std::size_t i) {
    without_pool[i] = static_cast<int>(i * 7 + 1);
  });
  EXPECT_EQ(with_pool, without_pool);
}

TEST(DeadlineStressTest, ConcurrentChargeAndPoll) {
  // Workers hammer Charge() while other threads poll expired(): the relaxed
  // atomic must stay race-free under TSan and lose no charges.
  Deadline dl = Deadline::Synthetic(/*budget_s=*/3600.0);
  constexpr int kThreads = 6;
  constexpr int kChargesPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dl] {
      for (int c = 0; c < kChargesPerThread; ++c) dl.Charge(3);
    });
  }
  std::atomic<bool> stop{false};
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&dl, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)dl.expired();
      }
    });
  }
  for (int t = 0; t < kThreads; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = kThreads; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(dl.charged_ns(), int64_t{kThreads} * kChargesPerThread * 3);
  EXPECT_FALSE(dl.expired());
}

TEST(ThreadPoolStressTest, WaitFromMultipleThreads) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  for (int t = 0; t < 500; ++t) {
    pool.Submit([&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> waiters;
  waiters.reserve(4);
  for (int w = 0; w < 4; ++w) {
    waiters.emplace_back([&pool] { pool.Wait(); });
  }
  for (std::thread& w : waiters) w.join();
  EXPECT_EQ(executed.load(), 500);
}

}  // namespace
}  // namespace auctionride
