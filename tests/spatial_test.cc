#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "spatial/grid_index.h"

namespace auctionride {
namespace {

std::vector<GridIndex::Item> RandomItems(int n, uint64_t seed,
                                         double extent = 10000) {
  Rng rng(seed);
  std::vector<GridIndex::Item> items;
  items.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    items.push_back(
        {i, {rng.Uniform(0, extent), rng.Uniform(0, extent)}});
  }
  return items;
}

TEST(GridIndexTest, EmptyIndexReturnsNothing) {
  GridIndex index({}, 100);
  EXPECT_TRUE(index.WithinRadius({0, 0}, Meters(1e9)).empty());
  EXPECT_TRUE(index.KNearest({0, 0}, 5).empty());
}

TEST(GridIndexTest, WithinRadiusExact) {
  std::vector<GridIndex::Item> items = {
      {0, {0, 0}}, {1, {100, 0}}, {2, {0, 250}}, {3, {400, 400}}};
  GridIndex index(items, 100);
  std::vector<int32_t> got = index.WithinRadius({0, 0}, Meters(260));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int32_t>{0, 1, 2}));
}

TEST(GridIndexTest, WithinRadiusBoundaryInclusive) {
  std::vector<GridIndex::Item> items = {{7, {300, 0}}};
  GridIndex index(items, 100);
  EXPECT_EQ(index.WithinRadius({0, 0}, Meters(300)).size(), 1u);
  EXPECT_TRUE(index.WithinRadius({0, 0}, Meters(299.999)).empty());
}

TEST(GridIndexTest, WithinRadiusOutParamMatchesAndClearsOnReuse) {
  std::vector<GridIndex::Item> items = {
      {0, {0, 0}}, {1, {100, 0}}, {2, {0, 250}}, {3, {400, 400}}};
  GridIndex index(items, 100);
  std::vector<int32_t> scratch = {99, 98, 97};  // stale content to flush
  index.WithinRadius({0, 0}, Meters(260), &scratch);
  std::vector<int32_t> by_value = index.WithinRadius({0, 0}, Meters(260));
  std::sort(scratch.begin(), scratch.end());
  std::sort(by_value.begin(), by_value.end());
  EXPECT_EQ(scratch, by_value);

  // Reuse with a query that matches nothing: the scratch must come back
  // empty, not keep the previous query's hits.
  index.WithinRadius({-5000, -5000}, Meters(10), &scratch);
  EXPECT_TRUE(scratch.empty());
}

TEST(GridIndexTest, KNearestOrderedByDistance) {
  std::vector<GridIndex::Item> items = {
      {0, {500, 0}}, {1, {100, 0}}, {2, {300, 0}}, {3, {900, 0}}};
  GridIndex index(items, 200);
  EXPECT_EQ(index.KNearest({0, 0}, 3),
            (std::vector<int32_t>{1, 2, 0}));
}

TEST(GridIndexTest, KNearestExcludesId) {
  std::vector<GridIndex::Item> items = {{0, {10, 0}}, {1, {20, 0}}};
  GridIndex index(items, 50);
  EXPECT_EQ(index.KNearest({0, 0}, 2, /*exclude_id=*/0),
            (std::vector<int32_t>{1}));
}

// Property sweep: grid results must match brute force for random item sets.
class GridIndexPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GridIndexPropertyTest, MatchesBruteForce) {
  const int n = GetParam();
  const std::vector<GridIndex::Item> items = RandomItems(n, 100 + n);
  GridIndex index(items, 700);
  Rng rng(n);
  for (int trial = 0; trial < 50; ++trial) {
    const Point q{rng.Uniform(-1000, 11000), rng.Uniform(-1000, 11000)};

    // WithinRadius.
    const double radius = rng.Uniform(100, 4000);
    std::vector<int32_t> got = index.WithinRadius(q, Meters(radius));
    std::sort(got.begin(), got.end());
    std::vector<int32_t> expected;
    for (const auto& item : items) {
      if (SquaredDistance(q, item.position) <= radius * radius) {
        expected.push_back(item.id);
      }
    }
    EXPECT_EQ(got, expected);

    // KNearest distances (ids can tie; compare distances).
    const int k = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{8}));
    const std::vector<int32_t> knn = index.KNearest(q, k);
    std::vector<double> brute_dist;
    for (const auto& item : items) {
      brute_dist.push_back(SquaredDistance(q, item.position));
    }
    std::sort(brute_dist.begin(), brute_dist.end());
    ASSERT_EQ(knn.size(),
              std::min<std::size_t>(items.size(), static_cast<std::size_t>(k)));
    for (std::size_t i = 0; i < knn.size(); ++i) {
      const auto it = std::find_if(
          items.begin(), items.end(),
          [&](const GridIndex::Item& item) { return item.id == knn[i]; });
      ASSERT_NE(it, items.end());
      EXPECT_NEAR(SquaredDistance(q, it->position), brute_dist[i], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridIndexPropertyTest,
                         ::testing::Values(1, 5, 40, 200, 1000));


// Brute-force model of GridIndex that reproduces its observable order: the
// same cell assignment and cell visit order (items of a cell in the order
// they were added), and KNearest's best-k rule (the worst kept is the
// largest (distance², index) pair; a newcomer replaces it only on a
// strictly smaller distance). It scans every ring without early exit, so
// matching it also shows that the ring cut-off drops nothing.
class GridModel {
 public:
  GridModel(std::vector<GridIndex::Item> items, double cell)
      : items_(std::move(items)), cell_(cell) {
    if (items_.empty()) return;
    min_ = max_ = items_[0].position;
    for (const GridIndex::Item& item : items_) {
      min_.x = std::min(min_.x, item.position.x);
      min_.y = std::min(min_.y, item.position.y);
      max_.x = std::max(max_.x, item.position.x);
      max_.y = std::max(max_.y, item.position.y);
    }
    cols_ = std::max(1, static_cast<int>((max_.x - min_.x) / cell_) + 1);
    rows_ = std::max(1, static_cast<int>((max_.y - min_.y) / cell_) + 1);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Point& p = items_[i].position;
      cells_[{CellX(p.x), CellY(p.y)}].push_back(i);
    }
  }

  std::vector<int32_t> WithinRadius(const Point& c, double r) const {
    std::vector<int32_t> out;
    if (items_.empty() || r < 0) return out;
    for (int cy = CellY(c.y - r); cy <= CellY(c.y + r); ++cy) {
      for (int cx = CellX(c.x - r); cx <= CellX(c.x + r); ++cx) {
        for (std::size_t i : Cell(cx, cy)) {
          const GridIndex::Item& item = items_[i];
          if (SquaredDistance(c, item.position) <= r * r) {
            out.push_back(item.id);
          }
        }
      }
    }
    return out;
  }

  std::vector<int32_t> KNearest(const Point& c, int k,
                                int32_t exclude_id) const {
    std::vector<std::pair<double, int32_t>> kept;
    if (items_.empty() || k <= 0) return {};
    const int cx = CellX(c.x);
    const int cy = CellY(c.y);
    for (int ring = 0; ring <= std::max(cols_, rows_); ++ring) {
      for (int dy = -ring; dy <= ring; ++dy) {
        for (int dx = -ring; dx <= ring; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
          for (std::size_t i : Cell(cx + dx, cy + dy)) {
            const GridIndex::Item& item = items_[i];
            if (item.id == exclude_id) continue;
            const std::pair<double, int32_t> entry{
                SquaredDistance(c, item.position), static_cast<int32_t>(i)};
            if (static_cast<int>(kept.size()) < k) {
              kept.push_back(entry);
              continue;
            }
            const auto worst = std::max_element(kept.begin(), kept.end());
            if (entry.first < worst->first) *worst = entry;
          }
        }
      }
    }
    std::sort(kept.begin(), kept.end());
    std::vector<int32_t> out;
    for (const auto& [sq, i] : kept) {
      out.push_back(items_[static_cast<std::size_t>(i)].id);
    }
    return out;
  }

 private:
  int CellX(double x) const {
    return std::clamp(static_cast<int>((x - min_.x) / cell_), 0, cols_ - 1);
  }
  int CellY(double y) const {
    return std::clamp(static_cast<int>((y - min_.y) / cell_), 0, rows_ - 1);
  }
  // Indices of the items in cell (cx, cy) in the order they were added;
  // empty off the grid.
  const std::vector<std::size_t>& Cell(int cx, int cy) const {
    static const std::vector<std::size_t> kEmpty;
    const auto it = cells_.find({cx, cy});
    return it == cells_.end() ? kEmpty : it->second;
  }

  std::vector<GridIndex::Item> items_;
  double cell_;
  Point min_{0, 0};
  Point max_{0, 0};
  int cols_ = 1;
  int rows_ = 1;
  std::map<std::pair<int, int>, std::vector<std::size_t>> cells_;
};

// Lattice items in two far-apart clusters (so most cells are empty), with
// repeated positions and a few repeated ids; lattice queries make many
// exact ties at the k-th distance.
class GridIndexModelTest : public ::testing::TestWithParam<int> {};

TEST_P(GridIndexModelTest, MatchesModelInContentAndOrder) {
  const int n = GetParam();
  Rng rng(700 + n);
  // `step` times a uniform integer in [lo, hi].
  const auto lattice = [&rng](double step, int64_t lo, int64_t hi) {
    return step * static_cast<double>(rng.UniformInt(lo, hi));
  };
  std::vector<GridIndex::Item> items;
  for (int i = 0; i < n; ++i) {
    const double base = rng.UniformInt(uint64_t{2}) == 0 ? 0.0 : 6000.0;
    const Point p{base + lattice(100, 0, 8), base + lattice(100, 0, 8)};
    const auto id = static_cast<int32_t>(rng.UniformInt(uint64_t{8}) == 0
                                             ? rng.UniformInt(uint64_t{4})
                                             : 10 + i);
    items.push_back({id, p});
  }
  for (double cell : {90.0, 250.0, 1000.0}) {
    SCOPED_TRACE(cell);
    const GridIndex index(items, cell);
    const GridModel model(items, cell);
    std::vector<int32_t> reused = {-7, -8};
    for (int trial = 0; trial < 60; ++trial) {
      const bool on_lattice = trial % 2 == 0;
      const Point q =
          on_lattice
              ? Point{lattice(50, -4, 140), lattice(50, -4, 140)}
              : Point{rng.Uniform(-500, 7500), rng.Uniform(-500, 7500)};
      const double radius =
          on_lattice ? lattice(100, 0, 12) : rng.Uniform(0, 3000);
      const std::vector<int32_t> within = model.WithinRadius(q, radius);
      EXPECT_EQ(index.WithinRadius(q, Meters(radius)), within);
      index.WithinRadius(q, Meters(radius), &reused);
      EXPECT_EQ(reused, within);

      const int k = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{40}));
      const int32_t exclude =
          trial % 3 == 0 ? -1
                         : static_cast<int32_t>(rng.UniformInt(int64_t{0},
                                                               int64_t{n + 9}));
      const std::vector<int32_t> knn = model.KNearest(q, k, exclude);
      EXPECT_EQ(index.KNearest(q, k, exclude), knn)
          << "k " << k << " exclude " << exclude;
      index.KNearest(q, k, exclude, &reused);
      EXPECT_EQ(reused, knn);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridIndexModelTest,
                         ::testing::Values(1, 7, 60, 300));

}  // namespace
}  // namespace auctionride
