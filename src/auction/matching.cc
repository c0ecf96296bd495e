#include "auction/matching.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/timer.h"
#include "planner/insertion.h"

namespace auctionride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<int> MaxWeightMatching(
    const std::vector<std::vector<double>>& weights, double min_weight) {
  const int n = static_cast<int>(weights.size());
  if (n == 0) return {};
  int m = 0;
  for (const auto& row : weights) {
    m = std::max(m, static_cast<int>(row.size()));
  }

  // Convert to a minimization problem on an n x (m + n) matrix: column
  // m + i is row i's private "stay unmatched" slot with cost 0. Admissible
  // pair costs are min_weight − weight (<= 0 exactly for pairs worth
  // taking); inadmissible pairs get a large finite cost so the algorithm's
  // potentials stay finite but such pairs are never chosen over a dummy.
  const int cols = m + n;
  double max_abs = 1.0;
  for (const auto& row : weights) {
    for (double w : row) {
      if (w != -kInf && w != kInf) max_abs = std::max(max_abs, std::abs(w));
    }
  }
  const double big = 4.0 * max_abs * (n + 1) + 1.0;
  auto cost = [&](int i, int j) -> double {
    if (j >= m) return j - m == i ? 0.0 : big;  // private dummy columns
    if (j >= static_cast<int>(weights[i].size())) return big;
    const double w = weights[static_cast<std::size_t>(i)][j];
    if (w == -kInf || w < min_weight) return big;
    return min_weight - w;  // <= 0 for admissible pairs
  };

  // Hungarian algorithm via shortest augmenting paths (1-based arrays).
  std::vector<double> u(static_cast<std::size_t>(n) + 1, 0);
  std::vector<double> v(static_cast<std::size_t>(cols) + 1, 0);
  std::vector<int> p(static_cast<std::size_t>(cols) + 1, 0);
  std::vector<int> way(static_cast<std::size_t>(cols) + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(static_cast<std::size_t>(cols) + 1, kInf);
    std::vector<char> used(static_cast<std::size_t>(cols) + 1, 0);
    do {
      used[static_cast<std::size_t>(j0)] = 1;
      const int i0 = p[static_cast<std::size_t>(j0)];
      double delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= cols; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[static_cast<std::size_t>(i0)] -
                           v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      ARIDE_ACHECK(j1 >= 0);
      for (int j = 0; j <= cols; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(p[static_cast<std::size_t>(j)])] += delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (p[static_cast<std::size_t>(j0)] != 0);
    // Unwind the augmenting path.
    do {
      const int j1 = way[static_cast<std::size_t>(j0)];
      p[static_cast<std::size_t>(j0)] = p[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> match(static_cast<std::size_t>(n), -1);
  for (int j = 1; j <= cols; ++j) {
    const int i = p[static_cast<std::size_t>(j)];
    if (i == 0) continue;
    const int col = j - 1;
    if (col < m && cost(i - 1, col) <= 0) {
      match[static_cast<std::size_t>(i - 1)] = col;
    }
  }
  return match;
}

DispatchResult MatchingDispatch(const AuctionInstance& instance) {
  ARIDE_ACHECK(instance.orders != nullptr && instance.vehicles != nullptr &&
           instance.oracle != nullptr);
  WallTimer timer;
  const std::vector<Order>& orders = *instance.orders;
  const std::vector<Vehicle>& vehicles = *instance.vehicles;
  const MoneyPerMeter alpha_per_m{instance.config.alpha_d_per_km / 1000.0};

  const PickupCandidateIndex index(vehicles, *instance.oracle);

  std::vector<std::vector<double>> weights(
      orders.size(), std::vector<double>(vehicles.size(), -kInf));
  std::vector<int32_t> candidates;
  for (std::size_t j = 0; j < orders.size(); ++j) {
    index.WithinRadius(orders[j], &candidates);
    for (int32_t v : candidates) {
      const InsertionResult ins =
          BestInsertion(vehicles[static_cast<std::size_t>(v)], orders[j],
                        instance.now_s, *instance.oracle);
      if (!ins.feasible) continue;
      // The Hungarian solver is a generic numeric routine; utilities cross
      // into its raw weight matrix here and never come back out as money.
      weights[j][static_cast<std::size_t>(v)] =
          (orders[j].bid - alpha_per_m * ins.delta_delivery_m)
              .value();  // NOLINT-ARIDE(unsafe-unit-cast)
    }
  }

  const std::vector<int> match = MaxWeightMatching(
      weights,
      instance.config.min_utility.value());  // NOLINT-ARIDE(unsafe-unit-cast)

  DispatchResult result;
  std::vector<Vehicle> working = vehicles;
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (match[j] < 0) continue;
    Vehicle& vehicle = working[static_cast<std::size_t>(match[j])];
    const InsertionResult ins =
        BestInsertion(vehicle, orders[j], instance.now_s, *instance.oracle);
    ARIDE_ACHECK(ins.feasible);
    InsertStops(ins, orders[j], instance.now_s, &vehicle.plan.stops);
    const Money cost = alpha_per_m * ins.delta_delivery_m;
    result.assignments.push_back(
        {orders[j].id, vehicle.id, cost, orders[j].bid - cost});
    result.total_utility += orders[j].bid - cost;
    result.total_delta_delivery_m += ins.delta_delivery_m;
    result.updated_plans.push_back(
        {static_cast<std::size_t>(match[j]), vehicle.plan.stops});
  }
  result.elapsed_seconds = Seconds(timer.ElapsedSeconds());
  return result;
}

}  // namespace auctionride
