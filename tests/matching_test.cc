#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "auction/greedy.h"
#include "auction/matching.h"
#include "common/rng.h"
#include "roadnet/builder.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::MakeOrder;
using testutil::MakeVehicle;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double MatchingValue(const std::vector<std::vector<double>>& weights,
                     const std::vector<int>& match) {
  double total = 0;
  for (std::size_t i = 0; i < match.size(); ++i) {
    if (match[i] >= 0) total += weights[i][static_cast<std::size_t>(match[i])];
  }
  return total;
}

// Brute-force optimal matching for small matrices.
double BruteBest(const std::vector<std::vector<double>>& weights,
                 double min_weight, std::size_t row, std::vector<char>* used) {
  if (row == weights.size()) return 0;
  double best = BruteBest(weights, min_weight, row + 1, used);  // skip row
  for (std::size_t j = 0; j < weights[row].size(); ++j) {
    if ((*used)[j] || weights[row][j] < min_weight) continue;
    (*used)[j] = 1;
    best = std::max(best, weights[row][j] +
                              BruteBest(weights, min_weight, row + 1, used));
    (*used)[j] = 0;
  }
  return best;
}

TEST(MaxWeightMatchingTest, EmptyAndTrivial) {
  EXPECT_TRUE(MaxWeightMatching({}).empty());
  const std::vector<int> match = MaxWeightMatching({{5.0}});
  ASSERT_EQ(match.size(), 1u);
  EXPECT_EQ(match[0], 0);
}

TEST(MaxWeightMatchingTest, PrefersHigherWeight) {
  // Two rows fight for one good column.
  const std::vector<std::vector<double>> weights = {{10, 1}, {8, 7}};
  const std::vector<int> match = MaxWeightMatching(weights);
  EXPECT_EQ(match[0], 0);
  EXPECT_EQ(match[1], 1);
  EXPECT_DOUBLE_EQ(MatchingValue(weights, match), 17);
}

TEST(MaxWeightMatchingTest, LeavesBadPairsUnmatched) {
  const std::vector<std::vector<double>> weights = {{-5, kNegInf},
                                                    {kNegInf, -1}};
  const std::vector<int> match = MaxWeightMatching(weights, 0.0);
  EXPECT_EQ(match[0], -1);
  EXPECT_EQ(match[1], -1);
}

TEST(MaxWeightMatchingTest, MinWeightThreshold) {
  const std::vector<std::vector<double>> weights = {{3.0}};
  EXPECT_EQ(MaxWeightMatching(weights, 5.0)[0], -1);
  EXPECT_EQ(MaxWeightMatching(weights, 2.0)[0], 0);
}

TEST(MaxWeightMatchingTest, MoreRowsThanColumns) {
  const std::vector<std::vector<double>> weights = {{4}, {9}, {6}};
  const std::vector<int> match = MaxWeightMatching(weights);
  int assigned = 0;
  for (std::size_t i = 0; i < match.size(); ++i) {
    if (match[i] >= 0) ++assigned;
  }
  EXPECT_EQ(assigned, 1);
  EXPECT_EQ(match[1], 0);  // the best row takes the only column
}

// Property sweep against brute force on random matrices.
class MatchingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchingPropertyTest, MatchesBruteForceValue) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    std::vector<std::vector<double>> weights(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(m)));
    for (auto& row : weights) {
      for (double& w : row) {
        w = rng.Bernoulli(0.2) ? kNegInf : rng.Uniform(-5, 20);
      }
    }
    const std::vector<int> match = MaxWeightMatching(weights, 0.0);
    // Validity: no duplicate columns, no sub-threshold picks.
    std::vector<char> used(static_cast<std::size_t>(m), 0);
    for (std::size_t i = 0; i < match.size(); ++i) {
      if (match[i] < 0) continue;
      EXPECT_GE(weights[i][static_cast<std::size_t>(match[i])], 0.0);
      EXPECT_EQ(used[static_cast<std::size_t>(match[i])]++, 0);
    }
    // Optimality.
    std::vector<char> brute_used(static_cast<std::size_t>(m), 0);
    const double brute = BruteBest(weights, 0.0, 0, &brute_used);
    EXPECT_NEAR(MatchingValue(weights, match), brute, 1e-6)
        << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(MatchingDispatchTest, OneRiderPerVehicle) {
  RoadNetwork net = testutil::LineNetwork(20, 1000);
  DistanceOracle oracle(&net);
  std::vector<Order> orders = {
      MakeOrder(0, 2, 6, /*bid=*/30, oracle),
      MakeOrder(1, 3, 7, /*bid=*/28, oracle),
      MakeOrder(2, 2, 7, /*bid=*/26, oracle),
  };
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 2), MakeVehicle(1, 3)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const DispatchResult r = MatchingDispatch(in);
  // Two vehicles => at most two dispatches even though all three fit a car.
  EXPECT_EQ(r.assignments.size(), 2u);
  std::vector<int> per_vehicle(2, 0);
  for (const Assignment& a : r.assignments) {
    ++per_vehicle[static_cast<std::size_t>(a.vehicle)];
  }
  EXPECT_LE(per_vehicle[0], 1);
  EXPECT_LE(per_vehicle[1], 1);
}

TEST(MatchingDispatchTest, BeatsGreedyOnAssignmentConflicts) {
  // Greedy's myopic max-pair choice can strand the second order; the
  // matching finds the globally better assignment.
  RoadNetwork net = testutil::LineNetwork(30, 1000);
  DistanceOracle oracle(&net);
  // Vehicle 0 at 10 serves either order; vehicle 1 at 0 only reaches order
  // A (origin 8) within its wasted-time budget, not order B (origin 12).
  std::vector<Order> orders = {
      MakeOrder(0, 8, 14, /*bid=*/30, oracle, 1.9),   // A
      MakeOrder(1, 12, 18, /*bid=*/30, oracle, 1.3),  // B: tight budget
  };
  std::vector<Vehicle> vehicles = {MakeVehicle(0, 11, 1),
                                   MakeVehicle(1, 6, 1)};
  AuctionInstance in;
  in.orders = &orders;
  in.vehicles = &vehicles;
  in.oracle = &oracle;
  const DispatchResult matched = MatchingDispatch(in);
  const DispatchResult greedy = GreedyDispatch(in).result;
  EXPECT_GE(matched.total_utility, greedy.total_utility - Money(1e-9));
  EXPECT_EQ(matched.assignments.size(), 2u);
}

}  // namespace
}  // namespace auctionride
