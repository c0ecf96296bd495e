// Allocation guards for the auction's inner loops.
//
// Global operator new/delete are replaced with a counting wrapper (per
// thread, so pool workers of other tests in the binary cannot leak into a
// count). Each guard runs a search once to warm every reused buffer, then
// counts a second, identical search:
//   - BestInsertion allocates nothing once its per-thread scratch is warm;
//   - a PlanPack memo evaluation (no plan requested) allocates nothing;
//   - a Rank-sized pack search on a Clear()ed prefix cache allocates nothing;
//   - a GridIndex build makes the same number of allocations whatever its
//     cell count, and its lookups into reused outputs make none;
//   - PackMemo allocates per chunk of nodes and per rehash, not per entry;
//   - a warm RankDispatch allocates for its output only, not per member set
//     or per candidate vehicle it searches.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "auction/pack_memo.h"
#include "auction/rank.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "planner/insertion.h"
#include "planner/pack_planner.h"
#include "spatial/grid_index.h"
#include "testutil.h"

namespace {
thread_local int64_t tl_allocations = 0;
}  // namespace

// Out of line: inlined into a caller, GCC would see free() meet a pointer
// from operator new, or operator delete meet one from malloc(), and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++tl_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  ++tl_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

// Allocations `fn` makes on this thread.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = tl_allocations;
  fn();
  return tl_allocations - before;
}

// BestInsertion's sampled timer appends to a reservoir until it holds
// 8192 samples; fill it so its growth does not count against the search.
void FillInsertionTimerReservoir() {
  obs::Histogram* timer = obs::MetricRegistry::Global().GetHistogram(
      "planner.insertion_s", obs::Histogram::TimerOptions());
  for (int i = 0; i < 8192; ++i) timer->Observe(1e-6);
}

TEST(AllocTest, WarmBestInsertionAllocatesNothing) {
  FillInsertionTimerReservoir();
  int feasible = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const testutil::FuzzScenario sc = testutil::BuildFuzzScenario(seed);
    const auto sweep = [&] {
      for (const Vehicle& v : sc.vehicles) {
        for (const Order& o : sc.orders) {
          feasible += BestInsertion(v, o, sc.now_s, *sc.oracle).feasible;
        }
      }
    };
    sweep();
    EXPECT_EQ(CountAllocations(sweep), 0);
  }
  EXPECT_GT(feasible, 0);
}

// A 9x9 lattice round whose orders start near each other, so packs of up
// to three members are feasible on vehicles of capacity 3, some of which
// already carry a rider.
struct PackRound {
  RoadNetwork net = testutil::LatticeNetwork(9, 9, 400);
  DistanceOracle oracle{&net};
  Seconds now{50};
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;

  explicit PackRound(uint64_t seed) {
    Rng rng(seed);
    const auto node_near_center = [&] {
      const auto c = static_cast<int>(2 + rng.UniformInt(uint64_t{5}));
      const auto r = static_cast<int>(2 + rng.UniformInt(uint64_t{5}));
      return static_cast<NodeId>(r * 9 + c);
    };
    for (int j = 0; j < 13; ++j) {
      const NodeId s = node_near_center();
      NodeId e = static_cast<NodeId>(rng.UniformInt(uint64_t{81}));
      while (e == s) e = static_cast<NodeId>(rng.UniformInt(uint64_t{81}));
      orders.push_back(MakeOrder(j, s, e, 30, oracle, rng.Uniform(1.8, 3.5)));
    }
    for (int i = 0; i < 3; ++i) {
      Vehicle v = MakeVehicle(i, node_near_center(), /*capacity=*/3);
      if (i == 0) {
        v.onboard = 1;
        v.in_delivery = true;
        v.plan.stops.push_back({node_near_center(), testutil::kCommittedBase,
                                StopType::kDropoff, now + Seconds(1e5)});
      }
      vehicles.push_back(std::move(v));
    }
  }

  // Rank's search for requester 0: {0} ∪ S over its 12 partners, |S| <= 2,
  // in GeneratePacksForOrder's visit order, each set on every vehicle.
  // Returns the number of feasible (set, vehicle) evaluations.
  int Search(PackPrefixCache* cache) const {
    int feasible = 0;
    const auto plan = [&](std::span<const int32_t> members) {
      std::array<const Order*, kMaxPackSize> pack{};
      for (std::size_t m = 0; m < members.size(); ++m) {
        pack[m] = &orders[static_cast<std::size_t>(members[m])];
      }
      for (const Vehicle& v : vehicles) {
        feasible += PlanPack(v, std::span(pack.data(), members.size()), now,
                             oracle, cache)
                        .feasible;
      }
    };
    plan(std::array{0});
    for (int32_t a = 1; a < 13; ++a) {
      plan(std::array{0, a});
      for (int32_t b = a + 1; b < 13; ++b) plan(std::array{0, a, b});
    }
    return feasible;
  }
};

TEST(AllocTest, WarmPackEvaluationAllocatesNothing) {
  FillInsertionTimerReservoir();
  const PackRound round(3);
  PackPrefixCache cache;
  for (const std::vector<int32_t>& members :
       {std::vector<int32_t>{1}, {1, 2}, {1, 2, 3}}) {
    SCOPED_TRACE(members.size());
    std::array<const Order*, kMaxPackSize> pack{};
    for (std::size_t m = 0; m < members.size(); ++m) {
      pack[m] = &round.orders[static_cast<std::size_t>(members[m])];
    }
    const std::span<const Order* const> span(pack.data(), members.size());
    for (const Vehicle& v : round.vehicles) {
      cache.Clear();
      const PackPlanResult cold =
          PlanPack(v, span, round.now, round.oracle, &cache);
      cache.Clear();
      PackPlanResult warm;
      EXPECT_EQ(CountAllocations([&] {
                  warm = PlanPack(v, span, round.now, round.oracle, &cache);
                }),
                0);
      EXPECT_EQ(warm.feasible, cold.feasible);
      EXPECT_EQ(warm.delta_delivery_m, cold.delta_delivery_m);
      EXPECT_EQ(warm.queries, cold.queries);
    }
  }
}

TEST(AllocTest, ReusedPrefixCacheSearchAllocatesNothing) {
  FillInsertionTimerReservoir();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const PackRound round(seed);
    PackPrefixCache cache;
    const int cold = round.Search(&cache);
    const std::size_t steps = cache.size();
    cache.Clear();
    int warm = 0;
    EXPECT_EQ(CountAllocations([&] { warm = round.Search(&cache); }), 0);
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(cache.size(), steps);
    EXPECT_GT(warm, 0);
  }
}

std::vector<GridIndex::Item> SpreadItems(int n, double extent) {
  Rng rng(17);
  std::vector<GridIndex::Item> items;
  for (int i = 0; i < n; ++i) {
    items.push_back({i, {rng.Uniform(0, extent), rng.Uniform(0, extent)}});
  }
  return items;
}

TEST(AllocTest, GridIndexBuildAllocationsDoNotGrowWithCells) {
  const std::vector<GridIndex::Item> items = SpreadItems(500, 20000);
  std::vector<int64_t> builds;
  // From one cell to 40 000 cells over the same items.
  for (double cell_m : {50000.0, 2000.0, 100.0}) {
    std::vector<GridIndex::Item> copy = items;
    builds.push_back(CountAllocations(
        [&] { const GridIndex index(std::move(copy), cell_m); }));
  }
  EXPECT_EQ(builds[0], builds[1]);
  EXPECT_EQ(builds[0], builds[2]);
  EXPECT_LE(builds[0], 2);

  const GridIndex index(items, 700);
  std::vector<int32_t> out;
  index.KNearest({10000, 10000}, 12, /*exclude_id=*/3, &out);
  index.WithinRadius({10000, 10000}, Meters(3000), &out);
  EXPECT_EQ(CountAllocations([&] {
              for (int q = 0; q < 50; ++q) {
                const Point p{400.0 * q, 20000 - 400.0 * q};
                index.KNearest(p, 12, /*exclude_id=*/q, &out);
                index.WithinRadius(p, Meters(2500), &out);
              }
            }),
            0);
}

TEST(AllocTest, PackMemoAllocatesPerChunkNotPerEntry) {
  constexpr int kEntries = 20000;
  const int64_t allocations = CountAllocations([] {
    PackMemo memo;
    for (int32_t i = 0; i < kEntries; ++i) {
      const std::array<int32_t, 2> members = {i, i + 1};
      memo.Insert(PackMemo::MakeKey(i % 7, members),
                  {.delta_delivery_m = Meters(i), .queries = i,
                   .feasible = true});
    }
    EXPECT_EQ(memo.size(), static_cast<std::size_t>(kEntries));
  });
  // ~1 250 entries a shard: 6 chunks and ~11 bucket arrays each, plus the
  // shard array; a node per entry would be 20 000.
  EXPECT_LE(allocations, 16 * 20 + 1);
}

TEST(AllocTest, WarmRankSearchAllocatesForItsOutputOnly) {
  FillInsertionTimerReservoir();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const PackRound round(seed);
    AuctionInstance in;
    in.orders = &round.orders;
    in.vehicles = &round.vehicles;
    in.now_s = round.now;
    in.oracle = &round.oracle;
    RankDispatch(in);
    RankRunResult run;
    const int64_t allocations =
        CountAllocations([&] { run = RankDispatch(in); });
    int64_t kept = 0;
    for (const std::vector<PackCandidate>& cands : run.artifacts.candidates) {
      kept += static_cast<int64_t>(cands.size());
    }
    // Each order searches 79 member sets on up to three vehicles. What may
    // allocate: one members vector per kept candidate, the growth of each
    // order's candidate vector (at most 8 doublings for 79 sets), the
    // round's per-order and per-winner arrays, and the memo's shards (16
    // pools and bucket arrays). None of it scales with the sets searched.
    const auto orders = static_cast<int64_t>(round.orders.size());
    EXPECT_GT(kept, orders);
    EXPECT_LE(allocations, kept + 8 * orders + 4 * orders + 160)
        << "kept " << kept;
  }
}

}  // namespace
}  // namespace auctionride
