// Serial/parallel dispatch equivalence: for every fuzz-scenario seed, Greedy
// and Rank dispatched on a 2-thread and an 8-thread pool must be
// bit-identical to the serial run — same assignments, plans, and exact
// float totals — and the end-to-end mechanisms (including GPri's dispatch
// re-runs and DnW) must produce exactly the same payments. This is the
// contract that lets the parallel dispatch path replace the serial one in
// benches without perturbing any paper-facing number.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "auction/greedy.h"
#include "auction/mechanism.h"
#include "auction/rank.h"
#include "exec/thread_pool.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::BuildFuzzScenario;
using testutil::FuzzScenario;

void ExpectSameDispatch(const DispatchResult& serial,
                        const DispatchResult& parallel, int threads) {
  ASSERT_EQ(serial.assignments.size(), parallel.assignments.size())
      << "threads=" << threads;
  for (std::size_t i = 0; i < serial.assignments.size(); ++i) {
    const Assignment& a = serial.assignments[i];
    const Assignment& b = parallel.assignments[i];
    EXPECT_EQ(a.order, b.order) << "threads=" << threads << " i=" << i;
    EXPECT_EQ(a.vehicle, b.vehicle) << "threads=" << threads << " i=" << i;
    // Bit-identical, not approximately equal: the parallel path must
    // evaluate the same insertions in the same merge order.
    EXPECT_EQ(a.cost, b.cost) << "threads=" << threads << " i=" << i;
    EXPECT_EQ(a.utility, b.utility) << "threads=" << threads << " i=" << i;
  }
  ASSERT_EQ(serial.updated_plans.size(), parallel.updated_plans.size())
      << "threads=" << threads;
  for (std::size_t i = 0; i < serial.updated_plans.size(); ++i) {
    EXPECT_EQ(serial.updated_plans[i].first, parallel.updated_plans[i].first)
        << "threads=" << threads << " i=" << i;
    const std::vector<PlanStop>& sp = serial.updated_plans[i].second;
    const std::vector<PlanStop>& pp = parallel.updated_plans[i].second;
    ASSERT_EQ(sp.size(), pp.size()) << "threads=" << threads << " i=" << i;
    for (std::size_t s = 0; s < sp.size(); ++s) {
      EXPECT_EQ(sp[s].node, pp[s].node);
      EXPECT_EQ(sp[s].order, pp[s].order);
      EXPECT_EQ(sp[s].type, pp[s].type);
      EXPECT_EQ(sp[s].deadline_s, pp[s].deadline_s);
    }
  }
  EXPECT_EQ(serial.total_utility, parallel.total_utility)
      << "threads=" << threads;
  EXPECT_EQ(serial.total_delta_delivery_m, parallel.total_delta_delivery_m)
      << "threads=" << threads;
}

class DispatchDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DispatchDeterminismTest, GreedyMatchesSerial) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance serial_in = sc.Instance();
  const DispatchResult serial = GreedyDispatch(serial_in);
  for (int threads : {2, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    AuctionInstance in = sc.Instance();
    in.dispatch_pool = &pool;
    ExpectSameDispatch(serial, GreedyDispatch(in), threads);
  }
}

TEST_P(DispatchDeterminismTest, RankMatchesSerial) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance serial_in = sc.Instance();
  const RankRunResult serial = RankDispatch(serial_in);
  for (int threads : {2, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    AuctionInstance in = sc.Instance();
    in.dispatch_pool = &pool;
    const RankRunResult parallel = RankDispatch(in);
    ExpectSameDispatch(serial.result, parallel.result, threads);
    // Rank's artifacts feed DnW pricing; they must match too.
    ASSERT_EQ(serial.artifacts.best.size(), parallel.artifacts.best.size());
    for (std::size_t j = 0; j < serial.artifacts.best.size(); ++j) {
      EXPECT_EQ(serial.artifacts.best[j], parallel.artifacts.best[j])
          << "threads=" << threads << " j=" << j;
    }
    ASSERT_EQ(serial.artifacts.candidates.size(),
              parallel.artifacts.candidates.size());
    for (std::size_t j = 0; j < serial.artifacts.candidates.size(); ++j) {
      const std::vector<PackCandidate>& sc_ = serial.artifacts.candidates[j];
      const std::vector<PackCandidate>& pc = parallel.artifacts.candidates[j];
      ASSERT_EQ(sc_.size(), pc.size()) << "threads=" << threads << " j=" << j;
      for (std::size_t c = 0; c < sc_.size(); ++c) {
        EXPECT_EQ(sc_[c].members, pc[c].members);
        EXPECT_EQ(sc_[c].vehicle, pc[c].vehicle);
        EXPECT_EQ(sc_[c].utility, pc[c].utility);
        EXPECT_EQ(sc_[c].delta_delivery_m, pc[c].delta_delivery_m);
      }
    }
  }
}

void ExpectSamePayments(const MechanismOutcome& serial,
                        const MechanismOutcome& pooled, int threads) {
  ExpectSameDispatch(serial.dispatch, pooled.dispatch, threads);
  ASSERT_EQ(serial.payments.size(), pooled.payments.size());
  for (std::size_t i = 0; i < serial.payments.size(); ++i) {
    EXPECT_EQ(serial.payments[i].order, pooled.payments[i].order);
    EXPECT_EQ(serial.payments[i].payment, pooled.payments[i].payment)
        << "threads=" << threads << " i=" << i;
  }
}

// End to end: pooled dispatch + pooled pricing must reproduce the serial
// mechanism's payments exactly, GPri's per-winner Greedy re-runs included.
TEST_P(DispatchDeterminismTest, MechanismPaymentsMatchSerial) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();
  for (MechanismKind kind : {MechanismKind::kGreedy, MechanismKind::kRank}) {
    SCOPED_TRACE(MechanismName(kind));
    const MechanismOutcome serial =
        RunMechanism(kind, in, {}, /*pricing_pool=*/nullptr,
                     /*dispatch_pool=*/nullptr);
    for (int threads : {2, 8}) {
      ThreadPool pricing_pool(static_cast<std::size_t>(threads));
      ThreadPool dispatch_pool(static_cast<std::size_t>(threads));
      const MechanismOutcome parallel =
          RunMechanism(kind, in, {}, &pricing_pool, &dispatch_pool);
      ExpectSamePayments(serial, parallel, threads);
      EXPECT_EQ(serial.platform_utility, parallel.platform_utility);
      EXPECT_EQ(serial.requester_utility, parallel.requester_utility);
    }
  }
}

// One pool for pricing and dispatch, as an engine passes it: the mechanism
// matches serial when called from outside the pool, and when called from
// inside the pool's own tasks (an engine's shard round tasks), where every
// dispatch and pricing loop nests on the pool its caller occupies.
TEST_P(DispatchDeterminismTest, SharedPoolDoesNotDeadlock) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();
  for (MechanismKind kind : {MechanismKind::kGreedy, MechanismKind::kRank}) {
    SCOPED_TRACE(MechanismName(kind));
    const MechanismOutcome serial = RunMechanism(kind, in);
    for (int threads : {1, 2}) {
      ThreadPool pool(static_cast<std::size_t>(threads));
      ExpectSamePayments(serial, RunMechanism(kind, in, {}, &pool, &pool),
                         threads);
      constexpr std::size_t kTasks = 3;
      std::vector<MechanismOutcome> nested(kTasks);
      pool.ParallelFor(kTasks, [&](std::size_t t) {
        nested[t] = RunMechanism(kind, in, {}, &pool, &pool);
      });
      for (const MechanismOutcome& outcome : nested) {
        ExpectSamePayments(serial, outcome, threads);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DispatchDeterminismTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

}  // namespace
}  // namespace auctionride
