#include "auction/greedy.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "auction/anytime.h"
#include "auction/warm_start.h"
#include "common/check.h"
#include "common/timer.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/insertion.h"
#include "spatial/grid_index.h"

namespace auctionride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct HeapEntry {
  Money utility;
  int order_idx;
  int veh_idx;
  uint32_t version;
};

// Max-heap ordering with deterministic tie-breaking.
struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    // Exact float ordering is deliberate here: an epsilon comparison would
    // break strict weak ordering, and ties fall through to the index keys.
    if (a.utility < b.utility) return true;
    if (b.utility < a.utility) return false;
    if (a.order_idx != b.order_idx) return a.order_idx > b.order_idx;
    return a.veh_idx > b.veh_idx;
  }
};

// Candidate vehicle source for the run: exact spatial pruning when enabled,
// otherwise a single all-vehicles list built once and shared by every order
// (the previous per-order rebuild was O(|R|·|V|) redundant allocations).
class CandidateSource {
 public:
  CandidateSource(const AuctionInstance& in, const GridIndex& vehicle_index)
      : in_(in), vehicle_index_(vehicle_index) {
    if (!in.config.use_spatial_pruning) {
      all_vehicles_.resize(in.vehicles->size());
      for (std::size_t i = 0; i < all_vehicles_.size(); ++i) {
        all_vehicles_[i] = static_cast<int32_t>(i);
      }
    }
  }

  // Returns the candidates for `order`, using `*scratch` as backing storage
  // when a grid query is needed. The returned reference is valid until the
  // next call with the same scratch. Thread-safe with distinct scratches.
  const std::vector<int32_t>& For(const Order& order,
                                  std::vector<int32_t>* scratch) const {
    if (!in_.config.use_spatial_pruning) return all_vehicles_;
    const Point origin = in_.oracle->network().position(order.origin);
    vehicle_index_.WithinRadius(
        origin, EuclideanPickupRadiusM(order, *in_.oracle), scratch);
    return *scratch;
  }

 private:
  const AuctionInstance& in_;
  const GridIndex& vehicle_index_;
  std::vector<int32_t> all_vehicles_;
};

DispatchResult RunGreedy(const AuctionInstance& in, OrderId excluded,
                         GreedyTracedResult* traced) {
  ARIDE_ACHECK(in.orders != nullptr && in.vehicles != nullptr &&
           in.oracle != nullptr);
  WallTimer timer;
  const std::vector<Order>& orders = *in.orders;
  std::vector<Vehicle> vehicles = *in.vehicles;  // working copies
  const MoneyPerMeter alpha_per_m{in.config.alpha_d_per_km / 1000.0};
  ThreadPool* pool = in.dispatch_pool;
  Deadline* const dl = in.deadline;
  // Anytime contract (docs/ROBUSTNESS.md): every oracle query is charged to
  // the deadline at its synthetic penalty, the seed sweep runs in
  // deterministic batches, and expiry finalizes the partial dispatch built
  // so far.

  // Vehicle spatial index for pair pruning.
  std::vector<GridIndex::Item> items;
  items.reserve(vehicles.size());
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    items.push_back({static_cast<int32_t>(i),
                     in.oracle->network().position(vehicles[i].next_node)});
  }
  const GridIndex vehicle_index(std::move(items), kVehicleGridCellM);
  const CandidateSource candidates(in, vehicle_index);

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
  std::vector<uint32_t> veh_version(vehicles.size(), 0);
  std::vector<std::vector<int>> veh_candidates(vehicles.size());
  std::vector<char> dispatched(orders.size(), 0);

  int excluded_idx = -1;
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (orders[j].id == excluded) {
      excluded_idx = static_cast<int>(j);
      break;
    }
  }
  ARIDE_ACHECK(excluded == kInvalidOrder || excluded_idx >= 0)
      << "excluded order not in the instance";

  auto pair_utility = [&](int order_idx, int veh_idx) -> Money {
    const InsertionResult ins = BestInsertion(
        vehicles[static_cast<std::size_t>(veh_idx)],
        orders[static_cast<std::size_t>(order_idx)], in.now_s, *in.oracle);
    if (!ins.feasible) return Money(-kInf);
    return orders[static_cast<std::size_t>(order_idx)].bid -
           alpha_per_m * ins.delta_delivery_m;
  };

  // Pool initialization (Algorithm 1 lines 2-6), the O(|R|×|V|) sweep that
  // dominates large rounds. Workers evaluate per-order candidate lists into
  // disjoint slots; the merge then pushes into the heap serially in the
  // exact (order_idx, candidate order) sequence of the serial sweep, so the
  // run is bit-identical with any thread count.
  struct SeedPair {
    Money utility;
    int32_t veh;
  };
  // Slots past an anytime cut keep empty seeds, so the merge treats them
  // like orders with no candidate.
  std::vector<std::vector<SeedPair>> seeds(orders.size());
  int64_t seed_pairs = 0;
  bool sweep_truncated = false;
  std::vector<std::pair<OrderId, VehicleId>> survivors;
  auto eval_order = [&](std::size_t j) -> int64_t {
    if (static_cast<int>(j) == excluded_idx) return 0;
    return CountQueries([&] {
      std::vector<int32_t> scratch;
      for (int32_t v : candidates.For(orders[j], &scratch)) {
        const Money u = pair_utility(static_cast<int>(j), v);
        if (u == Money(-kInf)) continue;
        seeds[j].push_back({u, v});
      }
    });
  };
  auto seed_sweep = [&] {
    OBS_SCOPED_TIMER("auction.dispatch.seed_sweep_s");
    // Warm-hinted orders first: under a cut, the budget goes to orders that
    // had surviving candidates a round ago.
    sweep_truncated = RunAnytimeSweep(
        pool, orders.size(), dl, in.warm_start,
        [&](std::size_t i) { return orders[i].id; }, eval_order);
    for (std::size_t j = 0; j < orders.size(); ++j) {
      if (in.warm_start != nullptr && !seeds[j].empty()) {
        // Report this order's best candidates for next round's warm start,
        // strongest first (ties to the lower vehicle index).
        std::vector<SeedPair> best(seeds[j]);
        std::sort(best.begin(), best.end(),
                  [](const SeedPair& a, const SeedPair& b) {
                    if (b.utility < a.utility) return true;
                    if (a.utility < b.utility) return false;
                    return a.veh < b.veh;
                  });
        const std::size_t keep =
            std::min(best.size(), WarmStartCache::kMaxHintsPerOrder);
        for (std::size_t s = 0; s < keep; ++s) {
          survivors.push_back(
              {orders[j].id,
               vehicles[static_cast<std::size_t>(best[s].veh)].id});
        }
      }
      for (const SeedPair& sp : seeds[j]) {
        heap.push({sp.utility, static_cast<int>(j), sp.veh, 0});
        veh_candidates[static_cast<std::size_t>(sp.veh)].push_back(
            static_cast<int>(j));
        ++seed_pairs;
      }
      seeds[j] = {};  // release as we go; the sweep can be |R|·|V| pairs
    }
  };
  if (traced == nullptr) {
    // Span only on the top-level dispatch path: GreedyDispatchExcluding runs
    // once per priced order inside GPri and would flood the trace.
    OBS_TRACE_SPAN("auction.greedy.seed_sweep");
    seed_sweep();
  } else {
    seed_sweep();
  }
  OBS_COUNTER_ADD("auction.dispatch.seed_pairs", seed_pairs);

  // One-by-one dispatch (Algorithm 1 lines 7-16).
  DispatchResult result;

  // Excluded requester's insertion-cost tracking (for GPri).
  std::vector<int32_t> excluded_candidates;
  std::vector<Money> excluded_cost;  // parallel to excluded_candidates
  auto recompute_excluded_cost = [&](std::size_t slot) {
    const int veh = excluded_candidates[slot];
    const InsertionResult ins =
        BestInsertion(vehicles[static_cast<std::size_t>(veh)],
                      orders[static_cast<std::size_t>(excluded_idx)],
                      in.now_s, *in.oracle);
    excluded_cost[slot] =
        ins.feasible ? alpha_per_m * ins.delta_delivery_m : Money(kInf);
  };
  if (excluded_idx >= 0) {
    std::vector<int32_t> scratch;
    excluded_candidates = candidates.For(
        orders[static_cast<std::size_t>(excluded_idx)], &scratch);
    excluded_cost.resize(excluded_candidates.size());
    for (std::size_t s = 0; s < excluded_candidates.size(); ++s) {
      recompute_excluded_cost(s);
    }
  }
  auto current_h_cost = [&]() -> Money {
    Money best{kInf};
    for (Money c : excluded_cost) best = std::min(best, c);
    return best;
  };

  int64_t heap_pops = 0;
  int64_t stale_pops = 0;
  int64_t refresh_pairs = 0;
  std::vector<Money> refresh_utility;
  bool loop_truncated = false;
  while (!heap.empty()) {
    // Anytime cut point: a dispatch step is all-or-nothing (recheck, apply,
    // refresh), so expiry is polled before committing to the next step.
    // Every assignment already emitted stays finalized. When the sweep
    // itself was cut, the deadline has already fired — dispatching over the
    // seeds computed so far IS the finalization (mirroring Rank, whose
    // ranking phase runs to completion over the generated packs), so the
    // poll is skipped and the truncation is attributed to the sweep.
    if (dl != nullptr && !sweep_truncated && dl->expired()) {
      loop_truncated = true;
      break;
    }
    const HeapEntry top = heap.top();
    heap.pop();
    ++heap_pops;
    if (top.utility < in.config.min_utility) break;  // line 9
    if (dispatched[static_cast<std::size_t>(top.order_idx)]) {
      ++stale_pops;
      continue;
    }
    if (top.version !=
        veh_version[static_cast<std::size_t>(top.veh_idx)]) {
      ++stale_pops;
      continue;  // stale: a fresh entry for this pair exists (or it died)
    }

    const Order& order = orders[static_cast<std::size_t>(top.order_idx)];
    Vehicle& vehicle = vehicles[static_cast<std::size_t>(top.veh_idx)];
    InsertionResult ins;
    const int64_t pop_queries = CountQueries(
        [&] { ins = BestInsertion(vehicle, order, in.now_s, *in.oracle); });
    if (dl != nullptr) dl->ChargeQueries(pop_queries);
    ARIDE_ACHECK(ins.feasible);
    const Money cost = alpha_per_m * ins.delta_delivery_m;
    // The popped entry is fresh for this vehicle version, so it was computed
    // from exactly this insertion: the dispatched utility must match it, and
    // it cleared the threshold at line 9 above (Algorithm 1 invariants).
    ARIDE_CHECK_NEAR(order.bid - cost, top.utility, 1e-6)
        << "order " << order.id;
    ARIDE_CHECK_GE(top.utility, in.config.min_utility)
        << "order " << order.id;
    ARIDE_CHECK_GE(cost, Money(-1e-9)) << "order " << order.id;

    if (traced != nullptr) {
      traced->steps.push_back(
          {order.id, order.bid, cost, current_h_cost()});
    }

    vehicle.plan.stops = ins.new_plan;
    ++veh_version[static_cast<std::size_t>(top.veh_idx)];
    dispatched[static_cast<std::size_t>(top.order_idx)] = 1;
    result.assignments.push_back(
        {order.id, vehicle.id, cost, order.bid - cost});
    result.total_utility += order.bid - cost;
    result.total_delta_delivery_m += ins.delta_delivery_m;

    // Lines 12-15: refresh pairs of the updated vehicle. The vehicle state
    // is stable during the batch (mutation happened above), so the
    // re-evaluations are independent; the heap pushes and the alive-list
    // rebuild run serially afterwards in the original candidate order.
    std::vector<int>& cands =
        veh_candidates[static_cast<std::size_t>(top.veh_idx)];
    refresh_utility.assign(cands.size(), Money(-kInf));
    // The refresh runs unbudgeted (it is part of the committed dispatch
    // step); each worker still charges its queries, and the next loop
    // iteration is the cut point.
    ParallelForOrSerial(pool, cands.size(), [&](std::size_t k) {
      const int other = cands[k];
      if (dispatched[static_cast<std::size_t>(other)]) return;
      const int64_t queries = CountQueries(
          [&] { refresh_utility[k] = pair_utility(other, top.veh_idx); });
      if (dl != nullptr) dl->ChargeQueries(queries);
    });
    std::vector<int> alive;
    alive.reserve(cands.size());
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const int other = cands[k];
      if (dispatched[static_cast<std::size_t>(other)]) continue;
      ++refresh_pairs;
      const Money u = refresh_utility[k];
      if (u == Money(-kInf)) continue;  // pair no longer valid: removed
      heap.push({u, other, top.veh_idx,
                 veh_version[static_cast<std::size_t>(top.veh_idx)]});
      alive.push_back(other);
    }
    cands = std::move(alive);

    if (excluded_idx >= 0) {
      for (std::size_t s = 0; s < excluded_candidates.size(); ++s) {
        if (excluded_candidates[s] == top.veh_idx) {
          recompute_excluded_cost(s);
        }
      }
    }
  }

  OBS_COUNTER_ADD("auction.greedy.heap_pops", heap_pops);
  OBS_COUNTER_ADD("auction.greedy.stale_pops", stale_pops);
  OBS_COUNTER_ADD("auction.dispatch.refresh_pairs", refresh_pairs);
  // Expiry truncates: the assignments emitted so far are finalized.
  result.anytime.complete = !(sweep_truncated || loop_truncated);

  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    if (veh_version[i] > 0) {
      result.updated_plans.push_back({i, vehicles[i].plan.stops});
    }
  }
  OBS_COUNTER_ADD("auction.greedy.dispatched",
                  static_cast<int64_t>(result.assignments.size()));
  result.surviving_pairs = std::move(survivors);
  result.elapsed_seconds = Seconds(timer.ElapsedSeconds());
  if (traced != nullptr) traced->h_cost_end = current_h_cost();
  return result;
}

}  // namespace

DispatchResult GreedyDispatch(const AuctionInstance& instance) {
  // Span here rather than in RunGreedy: GreedyDispatchExcluding runs once
  // per priced order inside GPri and would flood the trace.
  OBS_TRACE_SPAN("auction.greedy.dispatch");
  return RunGreedy(instance, kInvalidOrder, nullptr);
}

GreedyTracedResult GreedyDispatchExcluding(const AuctionInstance& instance,
                                           OrderId excluded) {
  ARIDE_ACHECK(excluded != kInvalidOrder);
  GreedyTracedResult traced;
  traced.result = RunGreedy(instance, excluded, &traced);
  return traced;
}

}  // namespace auctionride
