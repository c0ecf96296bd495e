#include "exec/deadline.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace auctionride {
namespace {

TEST(DeadlineTest, SyntheticExpiresExactlyAtBudget) {
  Deadline dl = Deadline::Synthetic(/*budget_s=*/1.0);
  EXPECT_FALSE(dl.expired());
  dl.Charge(999'999'999);
  EXPECT_FALSE(dl.expired());
  dl.Charge(1);  // reaches 1.0 s exactly
  EXPECT_TRUE(dl.expired());
  // Monotone: more charges cannot un-expire it.
  dl.Charge(1);
  EXPECT_TRUE(dl.expired());
}

TEST(DeadlineTest, SyntheticIgnoresWallTime) {
  // A synthetic deadline with a tiny budget but no charges must not expire
  // no matter how much real time passes — only Charge() counts.
  Deadline dl = Deadline::Synthetic(/*budget_s=*/1e-9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(dl.expired());
  }
}

TEST(DeadlineTest, ChargeQueriesUsesPenalty) {
  Deadline dl = Deadline::Synthetic(/*budget_s=*/1.0, /*query_penalty_s=*/0.1);
  dl.ChargeQueries(9);
  EXPECT_FALSE(dl.expired());
  EXPECT_EQ(dl.charged_ns(), 900'000'000);
  dl.ChargeQueries(1);
  EXPECT_TRUE(dl.expired());
}

TEST(DeadlineTest, ZeroPenaltyChargesNothing) {
  Deadline dl = Deadline::Synthetic(/*budget_s=*/1e-9);
  dl.ChargeQueries(1'000'000);
  EXPECT_EQ(dl.charged_ns(), 0);
  EXPECT_FALSE(dl.expired());
}

TEST(DeadlineTest, NegativeOrZeroChargeIsIgnored) {
  Deadline dl = Deadline::Synthetic(/*budget_s=*/1.0);
  dl.Charge(0);
  dl.Charge(-500);
  EXPECT_EQ(dl.charged_ns(), 0);
}

TEST(DeadlineTest, WallClockExpiresFromCharges) {
  // Charging past the budget expires a wall-clock deadline immediately,
  // independent of elapsed time.
  Deadline dl = Deadline::WallClock(/*budget_s=*/3600.0);
  EXPECT_FALSE(dl.expired());
  dl.Charge(int64_t{3600} * 1'000'000'000);
  EXPECT_TRUE(dl.expired());
}

}  // namespace
}  // namespace auctionride
