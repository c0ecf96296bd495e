// Randomized invariant fuzzing of every dispatch × pricing combination.
//
// Each seed builds a perturbed grid-network instance — mixed bids, vehicles
// with pre-existing commitments and onboard riders, varying α_d, dispatch
// threshold and charge ratio — and drives it through all dispatchers and
// pricing algorithms. Every result is cross-checked with the independent
// DispatchVerifier (Definition 4 feasibility, accounting identities) and
// VerifyPayments (individual rationality). The suite is designed to run
// under the asan/tsan presets, where the ARIDE_* contracts inside the
// algorithms are active as well: a silent bookkeeping bug has to get past
// the producer-side contracts, this verifier, and the sanitizers.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "auction/baselines.h"
#include "auction/dnw.h"
#include "auction/gpri.h"
#include "auction/greedy.h"
#include "auction/matching.h"
#include "auction/mechanism.h"
#include "auction/rank.h"
#include "auction/verifier.h"
#include "common/rng.h"
#include "dnw_reference.h"
#include "exec/thread_pool.h"
#include "gpri_reference.h"
#include "roadnet/builder.h"
#include "testutil.h"

namespace auctionride {
namespace {

// Scenario family shared with dispatch_determinism_test (tests/testutil.h).
using testutil::BuildFuzzScenario;
using testutil::FuzzScenario;

class InvariantFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Every dispatcher's output verifies against the instance it ran on.
TEST_P(InvariantFuzzTest, DispatchersVerify) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();

  struct Case {
    const char* name;
    DispatchResult result;
    bool per_pair_nonnegative;
  };
  std::vector<Case> cases;
  cases.push_back({"greedy", GreedyDispatch(in).result, true});
  cases.push_back({"rank", RankDispatch(in).result, false});
  cases.push_back({"matching", MatchingDispatch(in), true});
  cases.push_back({"fcfs", FcfsDispatch(in, /*serve_all=*/true), false});
  cases.push_back({"fcfs_thresholded", FcfsDispatch(in, /*serve_all=*/false),
                   true});

  for (const Case& c : cases) {
    VerifyOptions options;
    options.require_nonnegative_pair_utility = c.per_pair_nonnegative;
    const Status status = VerifyDispatch(in, c.result, options);
    EXPECT_TRUE(status.ok()) << c.name << " seed " << GetParam() << ": "
                             << status.ToString();
  }
}

// Both end-to-end mechanisms (dispatch + pricing + charge handling) produce
// verifiable dispatches and individually-rational payments.
TEST_P(InvariantFuzzTest, MechanismsVerify) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();

  for (MechanismKind kind : {MechanismKind::kGreedy, MechanismKind::kRank}) {
    const MechanismOutcome outcome = RunMechanism(kind, in);
    ASSERT_EQ(outcome.payments.size(), outcome.dispatch.assignments.size());
    const Status verified = VerifyMechanismOutcome(in, outcome);
    EXPECT_TRUE(verified.ok()) << MechanismName(kind) << " seed " << GetParam()
                               << ": " << verified.ToString();
  }
}

// Direct pricing paths: GPri on Greedy dispatches, DnW on Rank artifacts,
// both serial and through a thread pool (same prices either way).
TEST_P(InvariantFuzzTest, PricingPathsAgreeAndVerify) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();
  ThreadPool pool(3);

  const GreedyRunResult run = GreedyDispatch(in);
  const DispatchResult& greedy = run.result;
  const std::vector<Payment> gpri_serial =
      GPriPriceAll(in, run.seeds, greedy, /*pool=*/nullptr);
  const std::vector<Payment> gpri_parallel =
      GPriPriceAll(in, run.seeds, greedy, &pool);
  EXPECT_TRUE(VerifyPayments(in, greedy, gpri_serial).ok());
  ASSERT_EQ(gpri_serial.size(), gpri_parallel.size());
  for (std::size_t i = 0; i < gpri_serial.size(); ++i) {
    EXPECT_EQ(gpri_serial[i].order, gpri_parallel[i].order);
    EXPECT_DOUBLE_EQ(gpri_serial[i].payment.value(),
                     gpri_parallel[i].payment.value());
  }

  const RankRunResult rank = RankDispatch(in);
  const std::vector<Payment> dnw_serial =
      DnWPriceAll(in, rank.artifacts, rank.result, /*pool=*/nullptr);
  const std::vector<Payment> dnw_parallel =
      DnWPriceAll(in, rank.artifacts, rank.result, &pool);
  EXPECT_TRUE(VerifyPayments(in, rank.result, dnw_serial).ok());
  ASSERT_EQ(dnw_serial.size(), dnw_parallel.size());
  for (std::size_t i = 0; i < dnw_serial.size(); ++i) {
    EXPECT_EQ(dnw_serial[i].order, dnw_parallel[i].order);
    EXPECT_DOUBLE_EQ(dnw_serial[i].payment.value(),
                     dnw_parallel[i].payment.value());
  }
}

// DnW's shared-ranking merge walk prices every requester bit for bit like
// the direct interval-by-interval simulation (tests/dnw_reference.h), with
// and without a pricing pool.
TEST_P(InvariantFuzzTest, DnWMatchesIntervalSimulationReference) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();
  const RankRunResult rank = RankDispatch(in);
  const std::vector<Payment> reference = dnw_reference::ReferenceDnWPriceAll(
      in, rank.artifacts, rank.result);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::vector<Payment> got =
        DnWPriceAll(in, rank.artifacts, rank.result, p);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].order, reference[i].order);
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].payment.value()),
                std::bit_cast<uint64_t>(reference[i].payment.value()))
          << "seed " << GetParam() << " order " << got[i].order << " pool "
          << (p != nullptr) << ": " << got[i].payment.value() << " vs "
          << reference[i].payment.value();
    }
  }
}

// GPri's runs over the dispatch's own seed table price every winner bit for
// bit like the full re-run of Greedy on R \ {r_h} (tests/gpri_reference.h),
// with and without a pricing pool.
TEST_P(InvariantFuzzTest, GPriMatchesFullRerunReference) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();
  const GreedyRunResult run = GreedyDispatch(in);
  const std::vector<Payment> reference =
      gpri_reference::ReferenceGPriPriceAll(in, run.result);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << GetParam() << " pool " << (p != nullptr));
    testutil::ExpectBitIdenticalPayments(
        GPriPriceAll(in, run.seeds, run.result, p), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InvariantFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

}  // namespace
}  // namespace auctionride
