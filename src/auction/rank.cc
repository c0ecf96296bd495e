#include "auction/rank.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "auction/anytime.h"
#include "auction/pack_memo.h"
#include "auction/warm_start.h"
#include "common/check.h"
#include "common/timer.h"
#include "exec/deadline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/pack_planner.h"
#include "spatial/grid_index.h"

namespace auctionride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

PackMemo::Eval EvaluatePack(const AuctionInstance& in, int32_t vehicle_idx,
                            const std::vector<int32_t>& members,
                            PackMemo* memo) {
  PackMemo::Eval eval;
  if (memo->Lookup(vehicle_idx, members, &eval)) return eval;
  std::vector<const Order*> order_ptrs;
  order_ptrs.reserve(members.size());
  for (int32_t m : members) {
    order_ptrs.push_back(&(*in.orders)[static_cast<std::size_t>(m)]);
  }
  // PlanPack runs entirely on this thread, so the query count is exactly
  // its Distance() call count — deterministic for the key and memoized
  // alongside the result (see PackMemo::Eval::queries).
  PackPlanResult plan;
  const int64_t queries = CountQueries([&] {
    plan = PlanPack((*in.vehicles)[static_cast<std::size_t>(vehicle_idx)],
                    order_ptrs, in.now_s, *in.oracle);
  });
  eval = {plan.feasible, plan.delta_delivery_m, queries};
  memo->Insert(vehicle_idx, members, eval);
  return eval;
}

// Resolves the nearest vehicle of every order: Euclidean k-NN pre-filter
// refined by exact road distance (committed extra distance included), per
// order on `pool` (each order only writes its own slot; the oracle is
// thread-safe). When `dl` expires the sweep cuts at a deterministic batch
// boundary, sets *truncated, and leaves unreached orders unresolved (-1 —
// they simply generate no packs downstream).
std::vector<int32_t> NearestVehicles(const AuctionInstance& in,
                                     ThreadPool* pool, Deadline* dl,
                                     bool* truncated) {
  *truncated = false;
  const std::vector<Order>& orders = *in.orders;
  const std::vector<Vehicle>& vehicles = *in.vehicles;
  std::vector<int32_t> nearest(orders.size(), -1);
  if (vehicles.empty()) return nearest;

  std::vector<GridIndex::Item> items;
  items.reserve(vehicles.size());
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    // Vehicles with no spare seat can never host a pack.
    if (vehicles[i].CommittedRiders() >= vehicles[i].capacity) continue;
    items.push_back({static_cast<int32_t>(i),
                     in.oracle->network().position(vehicles[i].next_node)});
  }
  if (items.empty()) return nearest;
  const GridIndex index(std::move(items), kVehicleGridCellM);

  const auto resolve_knn = [&](std::size_t j) {
    Meters best_dist{kInf};
    const Point origin = in.oracle->network().position(orders[j].origin);
    const std::vector<int32_t> knn =
        index.KNearest(origin, kNearestVehicleCandidates);
    for (int32_t v : knn) {
      const Vehicle& veh = vehicles[static_cast<std::size_t>(v)];
      const Meters d =
          veh.extra_distance_m +
          Meters(in.oracle->Distance(veh.next_node, orders[j].origin));
      if (d < best_dist) {
        best_dist = d;
        nearest[j] = v;
      }
    }
  };
  // No warm start: this pass keeps the identity slot order, so a cut leaves
  // the same tail of orders unresolved whatever the last round hinted.
  *truncated = RunAnytimeSweep(
      pool, orders.size(), dl, /*warm=*/nullptr, /*order_of=*/nullptr,
      [&](std::size_t j) { return CountQueries([&] { resolve_knn(j); }); });
  return nearest;
}

// k-means (Lloyd's, fixed iterations, deterministic farthest-point seeding)
// over order origins: the paper's §V-E clustering of orders into about
// m / cluster_target_size groups for pack generation.
std::vector<std::vector<int32_t>> ClusterOrders(const AuctionInstance& in,
                                                int num_groups) {
  const std::vector<Order>& orders = *in.orders;
  std::vector<Point> pos(orders.size());
  for (std::size_t j = 0; j < orders.size(); ++j) {
    pos[j] = in.oracle->network().position(orders[j].origin);
  }

  // Farthest-point seeding from the centroid.
  std::vector<Point> centers;
  Point centroid{0, 0};
  for (const Point& p : pos) {
    centroid.x += p.x;
    centroid.y += p.y;
  }
  centroid.x /= static_cast<double>(pos.size());
  centroid.y /= static_cast<double>(pos.size());
  centers.push_back(centroid);
  std::vector<double> min_sq(pos.size(), kInf);
  while (static_cast<int>(centers.size()) < num_groups) {
    std::size_t farthest = 0;
    double far_sq = -1;
    for (std::size_t j = 0; j < pos.size(); ++j) {
      min_sq[j] = std::min(min_sq[j], SquaredDistance(pos[j], centers.back()));
      if (min_sq[j] > far_sq) {
        far_sq = min_sq[j];
        farthest = j;
      }
    }
    centers.push_back(pos[farthest]);
  }

  std::vector<int32_t> group_of(pos.size(), 0);
  for (int iter = 0; iter < 5; ++iter) {
    // Assign.
    for (std::size_t j = 0; j < pos.size(); ++j) {
      double best = kInf;
      for (std::size_t c = 0; c < centers.size(); ++c) {
        const double d = SquaredDistance(pos[j], centers[c]);
        if (d < best) {
          best = d;
          group_of[j] = static_cast<int32_t>(c);
        }
      }
    }
    // Update.
    std::vector<Point> sums(centers.size(), Point{0, 0});
    std::vector<int> counts(centers.size(), 0);
    for (std::size_t j = 0; j < pos.size(); ++j) {
      sums[static_cast<std::size_t>(group_of[j])].x += pos[j].x;
      sums[static_cast<std::size_t>(group_of[j])].y += pos[j].y;
      ++counts[static_cast<std::size_t>(group_of[j])];
    }
    for (std::size_t c = 0; c < centers.size(); ++c) {
      if (counts[c] > 0) {
        centers[c] = {sums[c].x / counts[c], sums[c].y / counts[c]};
      }
    }
  }

  std::vector<std::vector<int32_t>> groups(centers.size());
  for (std::size_t j = 0; j < pos.size(); ++j) {
    groups[static_cast<std::size_t>(group_of[j])].push_back(
        static_cast<int32_t>(j));
  }
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const auto& g) { return g.empty(); }),
               groups.end());
  return groups;
}

// Generates candidate packs for requester `j` against its group's origin
// index, writing only into artifacts' slots for j — safe to run concurrently
// for distinct orders. The memo is shared across all orders and groups
// (sharded, thread-safe); caching is value-deterministic because PlanPack is
// a pure function of the key for a fixed instance. Returns the memoized
// oracle-query count of every logical pack evaluation this order made — by
// summing Eval::queries rather than a live counter delta, the total is
// independent of which thread happened to compute (or duplicate-compute)
// each memo entry.
int64_t GeneratePacksForOrder(const AuctionInstance& in, int32_t j,
                              const GridIndex& origin_index, int max_pack,
                              PackMemo* memo, RankArtifacts* artifacts) {
  const std::vector<Order>& orders = *in.orders;
  const MoneyPerMeter alpha_per_m{in.config.alpha_d_per_km / 1000.0};
  std::vector<PackCandidate>& cands =
      artifacts->candidates[static_cast<std::size_t>(j)];

  const std::vector<int32_t> partners = origin_index.KNearest(
      in.oracle->network().position(
          orders[static_cast<std::size_t>(j)].origin),
      in.config.pack_candidate_limit, /*exclude_id=*/j);

  // Enumerate subsets {j} ∪ S, S ⊆ partners, |S| <= max_pack − 1.
  std::vector<std::vector<int32_t>> member_sets;
  member_sets.push_back({j});
  if (max_pack >= 2) {
    for (std::size_t a = 0; a < partners.size(); ++a) {
      std::vector<int32_t> two = {j, partners[a]};
      std::sort(two.begin(), two.end());
      member_sets.push_back(std::move(two));
      if (max_pack >= 3) {
        for (std::size_t b = a + 1; b < partners.size(); ++b) {
          std::vector<int32_t> three = {j, partners[a], partners[b]};
          std::sort(three.begin(), three.end());
          member_sets.push_back(std::move(three));
        }
      }
    }
  }

  int64_t queries = 0;
  for (std::vector<int32_t>& members : member_sets) {
    // Candidate vehicles: the members' nearest vehicles (deduplicated).
    std::vector<int32_t> veh_candidates;
    for (int32_t m : members) {
      const int32_t v =
          artifacts->nearest_vehicle[static_cast<std::size_t>(m)];
      if (v >= 0 && std::find(veh_candidates.begin(), veh_candidates.end(),
                              v) == veh_candidates.end()) {
        veh_candidates.push_back(v);
      }
    }
    Money bid_sum;
    for (int32_t m : members) {
      bid_sum += orders[static_cast<std::size_t>(m)].bid;
    }

    PackCandidate best_for_set;
    best_for_set.utility = Money(-kInf);
    for (int32_t v : veh_candidates) {
      const PackMemo::Eval eval = EvaluatePack(in, v, members, memo);
      queries += eval.queries;
      if (!eval.feasible) continue;
      const Money utility = bid_sum - alpha_per_m * eval.delta_delivery_m;
      if (utility > best_for_set.utility) {
        best_for_set.members = members;
        best_for_set.vehicle = v;
        best_for_set.delta_delivery_m = eval.delta_delivery_m;
        best_for_set.bid_sum = bid_sum;
        best_for_set.utility = utility;
      }
    }
    if (best_for_set.vehicle >= 0) cands.push_back(std::move(best_for_set));
  }

  // Best pack of r_j (Algorithm 3 line 6).
  int32_t best_idx = -1;
  Money best_utility{-kInf};
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (cands[c].utility > best_utility) {
      best_utility = cands[c].utility;
      best_idx = static_cast<int32_t>(c);
    }
  }
  artifacts->best[static_cast<std::size_t>(j)] = best_idx;
  return queries;
}

// Generates candidate packs for every order: the per-group origin indexes
// are built serially (cheap), then the (order, index) tasks are flattened
// across groups and fanned out per-order on `pool`. Under a deadline the
// tasks run warm-hinted-first in deterministic batches and cut at a batch
// boundary (the return value reports it) — unprocessed orders keep best = -1
// and are invisible to Phase II.
bool GeneratePacks(const AuctionInstance& in,
                   const std::vector<std::vector<int32_t>>& groups,
                   ThreadPool* pool, Deadline* dl, PackMemo* memo,
                   RankArtifacts* artifacts) {
  const std::vector<Order>& orders = *in.orders;

  // Maximum pack size: the largest vehicle capacity (c̄, default 3).
  int max_pack = 1;
  for (const Vehicle& v : *in.vehicles) {
    max_pack = std::max(max_pack, v.capacity);
  }

  std::vector<std::unique_ptr<GridIndex>> indexes;
  indexes.reserve(groups.size());
  struct Task {
    int32_t order;
    const GridIndex* index;
  };
  std::vector<Task> tasks;
  tasks.reserve(orders.size());
  for (const std::vector<int32_t>& group : groups) {
    std::vector<GridIndex::Item> items;
    items.reserve(group.size());
    for (int32_t j : group) {
      items.push_back(
          {j, in.oracle->network().position(
                  orders[static_cast<std::size_t>(j)].origin)});
    }
    indexes.push_back(std::make_unique<GridIndex>(
        std::move(items), kPackOriginCellM));
    for (int32_t j : group) tasks.push_back({j, indexes.back().get()});
  }

  // Warm-hinted orders first: under a cut the budget goes to pack searches
  // that had surviving candidates a round ago. The order is deterministic
  // and a no-op for results when nothing is cut (each task writes only its
  // own order's artifact slots).
  return RunAnytimeSweep(
      pool, tasks.size(), dl, in.warm_start,
      [&](std::size_t t) {
        return orders[static_cast<std::size_t>(tasks[t].order)].id;
      },
      [&](std::size_t t) {
        return GeneratePacksForOrder(in, tasks[t].order, *tasks[t].index,
                                     max_pack, memo, artifacts);
      });
}

}  // namespace

RankRunResult RankDispatch(const AuctionInstance& in) {
  ARIDE_ACHECK(in.orders != nullptr && in.vehicles != nullptr &&
           in.oracle != nullptr);
  WallTimer timer;
  const std::vector<Order>& orders = *in.orders;
  const MoneyPerMeter alpha_per_m{in.config.alpha_d_per_km / 1000.0};

  const int m = static_cast<int>(orders.size());
  const bool clustered = in.config.cluster_threshold > 0 &&
                         m >= in.config.cluster_threshold &&
                         in.config.cluster_target_size > 0;
  ThreadPool* const pool = in.dispatch_pool;

  Deadline* const dl = in.deadline;
  RankRunResult run;
  RankArtifacts& art = run.artifacts;
  art.candidates.resize(orders.size());
  art.best.assign(orders.size(), -1);
  bool nearest_truncated = false;
  art.nearest_vehicle = NearestVehicles(in, pool, dl, &nearest_truncated);

  // Phase I: pack generation, clustered when the round is large (§V-E).
  PackMemo memo;
  bool packs_truncated = false;
  {
    OBS_TRACE_SPAN("auction.rank.packgen");
    std::vector<std::vector<int32_t>> groups;
    if (clustered) {
      const int num_groups =
          std::max(2, (m + in.config.cluster_target_size - 1) /
                          in.config.cluster_target_size);
      groups = ClusterOrders(in, num_groups);
    } else {
      std::vector<int32_t> everyone(orders.size());
      for (std::size_t j = 0; j < everyone.size(); ++j) {
        everyone[j] = static_cast<int32_t>(j);
      }
      groups.push_back(std::move(everyone));
    }
    packs_truncated = GeneratePacks(in, groups, pool, dl, &memo, &art);
  }
  int64_t packs_generated = 0;
  for (const std::vector<PackCandidate>& cands : art.candidates) {
    packs_generated += static_cast<int64_t>(cands.size());
  }
  OBS_COUNTER_ADD("auction.rank.packs_generated", packs_generated);
  OBS_COUNTER_ADD("auction.rank.packmemo.hits", memo.hits());
  OBS_COUNTER_ADD("auction.rank.packmemo.misses", memo.misses());

  // Phase II: pack dispatch by utility ranking.
  OBS_TRACE_SPAN("auction.rank.dispatch");
  struct RankedPack {
    int32_t owner;  // requester whose best pack this is
    const PackCandidate* pack;
  };
  std::vector<RankedPack> ranking;
  ranking.reserve(orders.size());
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (art.best[j] >= 0) {
      ranking.push_back({static_cast<int32_t>(j),
                         &art.candidates[j][static_cast<std::size_t>(
                             art.best[j])]});
    }
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const RankedPack& a, const RankedPack& b) {
              // Exact float ordering: epsilon ties would break strict weak
              // ordering; equal utilities fall through to the owner key.
              if (a.pack->utility > b.pack->utility) return true;
              if (b.pack->utility > a.pack->utility) return false;
              return a.owner < b.owner;
            });

  DispatchResult& result = run.result;
  std::vector<char> order_taken(orders.size(), 0);
  std::vector<char> vehicle_taken(in.vehicles->size(), 0);
  for (const RankedPack& rp : ranking) {
    if (rp.pack->utility < in.config.min_utility) break;  // sorted: all below
    if (vehicle_taken[static_cast<std::size_t>(rp.pack->vehicle)]) continue;
    bool conflict = false;
    for (int32_t mbr : rp.pack->members) {
      if (order_taken[static_cast<std::size_t>(mbr)]) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    // No cut point here: Phase II is finalization. The ranking only holds
    // packs whose feasibility is already proven, so it runs to completion
    // over the generated candidates and every winner is kept.

    // Dispatch the pack: recompute its (deterministic) optimal plan.
    std::vector<const Order*> order_ptrs;
    for (int32_t mbr : rp.pack->members) {
      order_ptrs.push_back(&orders[static_cast<std::size_t>(mbr)]);
    }
    PackPlanResult plan;
    const int64_t plan_queries = CountQueries([&] {
      plan = PlanPack(
          (*in.vehicles)[static_cast<std::size_t>(rp.pack->vehicle)],
          order_ptrs, in.now_s, *in.oracle);
    });
    if (dl != nullptr) dl->ChargeQueries(plan_queries);
    ARIDE_ACHECK(plan.feasible);
    // Pack planning is deterministic: the dispatched recomputation must
    // reproduce the ΔD the pack was ranked with, and the winning pack
    // cleared the dispatch threshold (Algorithm 3 Phase II invariants).
    ARIDE_CHECK_NEAR(plan.delta_delivery_m, rp.pack->delta_delivery_m, 1e-6)
        << "pack of requester index " << rp.owner;
    ARIDE_CHECK_GE(rp.pack->utility, in.config.min_utility)
        << "pack of requester index " << rp.owner;
    ARIDE_CHECK_GE(plan.delta_delivery_m, Meters(-1e-6))
        << "pack of requester index " << rp.owner;

    vehicle_taken[static_cast<std::size_t>(rp.pack->vehicle)] = 1;
    const Money pack_cost = alpha_per_m * plan.delta_delivery_m;
    const Money cost_share =
        pack_cost / static_cast<double>(rp.pack->members.size());
    for (int32_t mbr : rp.pack->members) {
      order_taken[static_cast<std::size_t>(mbr)] = 1;
      const Order& order = orders[static_cast<std::size_t>(mbr)];
      result.assignments.push_back(
          {order.id,
           (*in.vehicles)[static_cast<std::size_t>(rp.pack->vehicle)].id,
           cost_share, order.bid - cost_share});
    }
    result.updated_plans.push_back(
        {static_cast<std::size_t>(rp.pack->vehicle), plan.new_plan});
    result.total_utility += rp.pack->bid_sum - pack_cost;
    result.total_delta_delivery_m += plan.delta_delivery_m;
  }

  // Expiry truncated the search, not the result: winners above are
  // finalized.
  result.anytime.complete = !(nearest_truncated || packs_truncated);
  if (in.warm_start != nullptr) {
    // Surviving candidates for next round's warm start: each order's best
    // pack vehicle first, then its remaining candidate packs' vehicles in
    // candidate order (the cache dedupes and caps per order).
    for (std::size_t j = 0; j < orders.size(); ++j) {
      if (art.best[j] < 0) continue;
      std::size_t pushed = 0;
      const std::size_t best_c = static_cast<std::size_t>(art.best[j]);
      result.surviving_pairs.push_back(
          {orders[j].id,
           (*in.vehicles)[static_cast<std::size_t>(
                              art.candidates[j][best_c].vehicle)]
               .id});
      ++pushed;
      for (std::size_t c = 0; c < art.candidates[j].size() &&
                              pushed < WarmStartCache::kMaxHintsPerOrder;
           ++c) {
        if (c == best_c) continue;
        result.surviving_pairs.push_back(
            {orders[j].id,
             (*in.vehicles)[static_cast<std::size_t>(
                                art.candidates[j][c].vehicle)]
                 .id});
        ++pushed;
      }
    }
  }
  OBS_COUNTER_ADD("auction.rank.packs_dispatched",
                  static_cast<int64_t>(result.updated_plans.size()));
  result.elapsed_seconds = Seconds(timer.ElapsedSeconds());
  return run;
}

}  // namespace auctionride
