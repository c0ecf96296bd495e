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

// u_ij of Equation 3 at the vehicle's current plan; −∞ when infeasible.
Money PairUtility(const AuctionInstance& in, const Vehicle& vehicle,
                  const Order& order) {
  const InsertionResult ins =
      BestInsertion(vehicle, order, in.now_s, *in.oracle);
  if (!ins.feasible) return Money(-kInf);
  const MoneyPerMeter alpha_per_m{in.config.alpha_d_per_km / 1000.0};
  return order.bid - alpha_per_m * ins.delta_delivery_m;
}

// Algorithm 1 lines 2-6 for order slot j: its valid pairs at the instance's
// vehicle plans, in candidate order.
void SeedOrder(const AuctionInstance& in,
               const PickupCandidateIndex& candidates, std::size_t j,
               std::vector<GreedySeed>* out) {
  const Order& order = (*in.orders)[j];
  std::vector<int32_t> near;
  candidates.WithinRadius(order, &near);
  for (int32_t v : near) {
    const Money u =
        PairUtility(in, (*in.vehicles)[static_cast<std::size_t>(v)], order);
    if (u == Money(-kInf)) continue;
    out->push_back({u, v});
  }
}

// Each seeded order's best candidates for next round's warm start,
// strongest first (ties to the lower vehicle index).
std::vector<std::pair<OrderId, VehicleId>> WarmSurvivors(
    const AuctionInstance& in, const GreedySeedTable& seeds) {
  std::vector<std::pair<OrderId, VehicleId>> survivors;
  for (std::size_t j = 0; j < seeds.pairs.size(); ++j) {
    std::vector<GreedySeed> best(seeds.pairs[j]);
    std::sort(best.begin(), best.end(),
              [](const GreedySeed& a, const GreedySeed& b) {
                if (b.utility < a.utility) return true;
                if (a.utility < b.utility) return false;
                return a.veh < b.veh;
              });
    const std::size_t keep =
        std::min(best.size(), WarmStartCache::kMaxHintsPerOrder);
    for (std::size_t s = 0; s < keep; ++s) {
      survivors.push_back(
          {(*in.orders)[j].id,
           (*in.vehicles)[static_cast<std::size_t>(best[s].veh)].id});
    }
  }
  return survivors;
}

}  // namespace

bool GreedySeedTable::complete() const {
  return std::find(reached.begin(), reached.end(), 0) == reached.end();
}

GreedyRunResult GreedyDispatch(const AuctionInstance& in) {
  OBS_TRACE_SPAN("auction.greedy.dispatch");
  ARIDE_ACHECK(in.orders != nullptr && in.vehicles != nullptr &&
           in.oracle != nullptr);
  WallTimer timer;
  const std::vector<Order>& orders = *in.orders;
  // Anytime contract (docs/ROBUSTNESS.md): every oracle query is charged to
  // the deadline at its synthetic penalty, the seed sweep runs in
  // deterministic batches, and expiry finalizes the partial dispatch built
  // so far.
  const PickupCandidateIndex candidates(*in.vehicles, *in.oracle);

  // Pool initialization (Algorithm 1 lines 2-6), the O(|R|×|V|) sweep that
  // dominates large rounds. Workers evaluate per-order candidate lists into
  // disjoint slots, so the table is bit-identical with any thread count.
  GreedyRunResult run;
  GreedySeedTable& seeds = run.seeds;
  seeds.pairs.resize(orders.size());
  seeds.reached.assign(orders.size(), 0);
  {
    OBS_TRACE_SPAN("auction.greedy.seed_sweep");
    OBS_SCOPED_TIMER("auction.dispatch.seed_sweep_s");
    // Warm-hinted orders first: under a cut, the budget goes to orders that
    // had surviving candidates a round ago.
    const bool cut = RunAnytimeSweep(
        in.dispatch_pool, orders.size(), in.deadline, in.warm_start,
        [&](std::size_t i) { return orders[i].id; },
        [&](std::size_t j) -> int64_t {
          seeds.reached[j] = 1;
          return CountQueries(
              [&] { SeedOrder(in, candidates, j, &seeds.pairs[j]); });
        });
    // The loop reads the cut off the table.
    ARIDE_CHECK_EQ(cut, !seeds.complete());
  }

  run.result = GreedyDispatchLoop(in, seeds, /*excluded=*/-1);
  if (in.warm_start != nullptr) {
    run.result.surviving_pairs = WarmSurvivors(in, seeds);
  }
  run.result.elapsed_seconds = Seconds(timer.ElapsedSeconds());
  return run;
}

DispatchResult GreedyDispatchLoop(const AuctionInstance& in,
                                  const GreedySeedTable& seeds, int excluded,
                                  std::vector<int32_t>* step_slots) {
  OBS_TRACE_SPAN("auction.greedy.dispatch_loop");
  WallTimer timer;
  const std::vector<Order>& orders = *in.orders;
  ARIDE_ACHECK(seeds.pairs.size() == orders.size() &&
               seeds.reached.size() == orders.size())
      << "seed table of another instance";
  std::vector<Vehicle> vehicles = *in.vehicles;  // working copies
  const MoneyPerMeter alpha_per_m{in.config.alpha_d_per_km / 1000.0};
  ThreadPool* pool = in.dispatch_pool;
  Deadline* const dl = in.deadline;
  const bool sweep_truncated = !seeds.complete();

  // The pool in the (order, candidate) sequence of the sweep, without the
  // excluded slot. Every other slot keeps its index, so heap ties break as
  // in a dispatch of the instance without that order. HeapLess is a total
  // order on the initial entries, so one make_heap pops them in the same
  // sequence as pushing them one by one.
  std::vector<HeapEntry> initial;
  std::vector<uint32_t> veh_version(vehicles.size(), 0);
  std::vector<std::vector<int>> veh_candidates(vehicles.size());
  std::vector<char> dispatched(orders.size(), 0);
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (static_cast<int>(j) == excluded) continue;
    for (const GreedySeed& sp : seeds.pairs[j]) {
      initial.push_back({sp.utility, static_cast<int>(j), sp.veh, 0});
      veh_candidates[static_cast<std::size_t>(sp.veh)].push_back(
          static_cast<int>(j));
    }
  }
  OBS_COUNTER_ADD("auction.dispatch.seed_pairs",
                  static_cast<int64_t>(initial.size()));
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap(
      HeapLess{}, std::move(initial));

  // One-by-one dispatch (Algorithm 1 lines 7-16).
  DispatchResult result;

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

    vehicle.plan.stops = ins.new_plan;
    ++veh_version[static_cast<std::size_t>(top.veh_idx)];
    dispatched[static_cast<std::size_t>(top.order_idx)] = 1;
    result.assignments.push_back(
        {order.id, vehicle.id, cost, order.bid - cost});
    if (step_slots != nullptr) step_slots->push_back(top.order_idx);
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
      const int64_t queries = CountQueries([&] {
        refresh_utility[k] =
            PairUtility(in, vehicle, orders[static_cast<std::size_t>(other)]);
      });
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
  result.elapsed_seconds = Seconds(timer.ElapsedSeconds());
  return result;
}

void FillUnreachedSeeds(const AuctionInstance& in,
                        const PickupCandidateIndex& candidates,
                        GreedySeedTable* seeds, ThreadPool* pool) {
  std::vector<std::size_t> unreached;
  for (std::size_t j = 0; j < seeds->reached.size(); ++j) {
    if (seeds->reached[j] == 0) unreached.push_back(j);
  }
  ParallelForOrSerial(pool, unreached.size(), [&](std::size_t k) {
    SeedOrder(in, candidates, unreached[k], &seeds->pairs[unreached[k]]);
  });
  for (std::size_t j : unreached) seeds->reached[j] = 1;
}

}  // namespace auctionride
