// TSan-targeted stress tests for ThreadPool: ParallelFor from several
// threads at once, ParallelFor nested inside its own pool's tasks, callers
// that must not wait on each other's loops, and rapid construct/shutdown
// cycles with stale helper entries still queued — plus the sharded PackMemo
// that Rank's parallel pack generation shares across pool workers. Run these under the tsan
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

TEST(ThreadPoolStressTest, ShutdownWithStaleHelpersQueued) {
  // A call can return before the workers it asked for pop their entries
  // (the caller ran every chunk itself); the destructor must drain those
  // stale entries. Repeated short-lived pools with bursts of small loops.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> executed{0};
    {
      ThreadPool pool(2);
      for (int t = 0; t < 20; ++t) {
        pool.ParallelFor(10, [&executed](std::size_t) {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    }
    EXPECT_EQ(executed.load(), 200) << "round " << round;
  }
}

// ParallelFor nests: tasks call ParallelFor on the pool they run on, down
// three levels, and every index of every level runs exactly once. With one
// worker the nested calls find no free worker and run on their callers.
void ExpectNestedParallelForCompletes(std::size_t threads) {
  ThreadPool pool(threads);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kMiddle = 7;
  constexpr std::size_t kInner = 40;
  std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
  pool.ParallelFor(kOuter, [&](std::size_t i) {
    pool.ParallelFor(kMiddle, [&](std::size_t j) {
      pool.ParallelFor(kInner, [&](std::size_t k) {
        hits[(i * kMiddle + j) * kInner + k].fetch_add(
            1, std::memory_order_relaxed);
      });
    });
  });
  for (std::size_t x = 0; x < hits.size(); ++x) {
    ASSERT_EQ(hits[x].load(), 1) << "threads=" << threads << " index " << x;
  }
}

TEST(ThreadPoolNestingTest, NestedParallelForOnOneWorker) {
  ExpectNestedParallelForCompletes(1);
}

TEST(ThreadPoolNestingTest, NestedParallelForOnFourWorkers) {
  ExpectNestedParallelForCompletes(4);
}

TEST(ThreadPoolNestingTest, ConcurrentCallersWithNestedLoops) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  constexpr int kCallers = 4;
  std::atomic<long> sum{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sum] {
      pool.ParallelFor(kOuter, [&](std::size_t i) {
        pool.ParallelFor(kInner, [&](std::size_t j) {
          sum.fetch_add(static_cast<long>(i * kInner + j),
                        std::memory_order_relaxed);
        });
      });
    });
  }
  for (std::thread& c : callers) c.join();
  constexpr long kN = static_cast<long>(kOuter * kInner);
  EXPECT_EQ(sum.load(), kCallers * (kN * (kN - 1) / 2));
}

TEST(ThreadPoolNestingTest, CallerWaitsOnlyForItsOwnLoop) {
  // One call's chunks spin until released; a second call on the same pool
  // must still finish, because it waits only for chunks of its own loop.
  ThreadPool pool(4);
  std::atomic<int> spinning{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    pool.ParallelFor(2, [&](std::size_t) {
      spinning.fetch_add(1, std::memory_order_relaxed);
      while (!release.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    });
  });
  while (spinning.load(std::memory_order_relaxed) < 2) {
    std::this_thread::yield();
  }
  std::atomic<int> executed{0};
  pool.ParallelFor(100, [&executed](std::size_t) {
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(executed.load(), 100);
  release.store(true, std::memory_order_relaxed);
  blocker.join();
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

}  // namespace
}  // namespace auctionride
