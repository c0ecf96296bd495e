#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "exec/thread_pool.h"

namespace auctionride {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad gamma");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad gamma");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("no node");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{3}, int64_t{7});
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalHasRoughlyCorrectMoments) {
  Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(SampleSetTest, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Quantile(0.5), 50.0, 1.0);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(LoggingTest, CheckFailureAborts) {
  EXPECT_DEATH({ ARIDE_ACHECK(1 == 2) << "impossible arithmetic"; },
               "Check failed: 1 == 2");
}

TEST(LoggingTest, CheckPassesSilently) {
  ARIDE_ACHECK(2 + 2 == 4) << "never evaluated";
  SUCCEED();
}

TEST(TablePrinterTest, PrintsAllCells) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "3.0"});
  table.AddRow({"gamma", "1.5"});
  testing::internal::CaptureStdout();
  table.Print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(TablePrinterTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(10, 0), "10");
  EXPECT_EQ(FormatDouble(-2.5), "-2.50");
}

}  // namespace
}  // namespace auctionride
