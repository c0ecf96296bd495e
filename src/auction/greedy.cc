#include "auction/greedy.h"

#include <algorithm>
#include <limits>
#include <numeric>
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

// Max-heap ordering with deterministic tie-breaking. On the entries of one
// table it is a total order (each (order, vehicle) pair is unique), so the
// loop pops them in one sequence whatever the heap's layout. A refreshed
// entry can tie only with a stale entry of its own pair, and popping the
// stale one is a skip whichever comes first.
struct HeapLess {
  bool operator()(const GreedyHeapEntry& a, const GreedyHeapEntry& b) const {
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

// Builds the loop's initial state of `seeds` over its final pairs.
void IndexSeeds(std::size_t num_vehicles, GreedySeedTable* seeds) {
  const std::vector<std::vector<GreedySeed>>& pairs = seeds->pairs;
  std::vector<GreedyHeapEntry>& heap = seeds->heap;
  std::vector<int32_t>& cand_offsets = seeds->cand_offsets;
  std::vector<int32_t>& cand_slots = seeds->cand_slots;
  cand_offsets.assign(num_vehicles + 1, 0);
  for (const std::vector<GreedySeed>& order_pairs : pairs) {
    for (const GreedySeed& sp : order_pairs) {
      ++cand_offsets[static_cast<std::size_t>(sp.veh) + 1];
    }
  }
  std::partial_sum(cand_offsets.begin(), cand_offsets.end(),
                   cand_offsets.begin());
  cand_slots.resize(static_cast<std::size_t>(cand_offsets.back()));
  std::vector<int32_t> next(cand_offsets.begin(), cand_offsets.end() - 1);
  // The pool in the (order, candidate) sequence of the sweep.
  heap.clear();
  heap.reserve(cand_slots.size());
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    for (const GreedySeed& sp : pairs[j]) {
      heap.push_back({sp.utility, static_cast<int32_t>(j), sp.veh, 0});
      cand_slots[static_cast<std::size_t>(
          next[static_cast<std::size_t>(sp.veh)]++)] = static_cast<int32_t>(j);
    }
  }
  std::make_heap(heap.begin(), heap.end(), HeapLess{});
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
  IndexSeeds(in.vehicles->size(), &seeds);

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
  const std::vector<Vehicle>& fleet = *in.vehicles;
  ARIDE_ACHECK(seeds.pairs.size() == orders.size() &&
               seeds.reached.size() == orders.size() &&
               seeds.cand_offsets.size() == fleet.size() + 1)
      << "seed table of another instance, or not indexed";
  const MoneyPerMeter alpha_per_m{in.config.alpha_d_per_km / 1000.0};
  ThreadPool* pool = in.dispatch_pool;
  Deadline* const dl = in.deadline;
  const bool sweep_truncated = !seeds.complete();

  // The round's heap, copied. The excluded slot's entries stay in it: the
  // slot is marked dispatched, so no refresh re-pushes it, and its initial
  // entries are popped without being counted. Every other slot keeps its
  // index, so the pops run as in a dispatch of the instance without that
  // order (see HeapLess).
  std::vector<GreedyHeapEntry> heap = seeds.heap;
  std::vector<char> dispatched(orders.size(), 0);
  std::size_t seed_pairs = heap.size();
  if (excluded >= 0) {
    ARIDE_ACHECK(static_cast<std::size_t>(excluded) < orders.size());
    dispatched[static_cast<std::size_t>(excluded)] = 1;
    seed_pairs -= seeds.pairs[static_cast<std::size_t>(excluded)].size();
  }
  OBS_COUNTER_ADD("auction.dispatch.seed_pairs",
                  static_cast<int64_t>(seed_pairs));
  std::vector<uint32_t> veh_version(fleet.size(), 0);
  // A vehicle's working copy and live candidate slots, made when it is
  // first assigned; until then it is as in the instance and the table.
  struct Working {
    Vehicle vehicle;
    std::vector<int32_t> cands;
  };
  std::vector<Working> working;
  std::vector<int32_t> working_of(fleet.size(), -1);

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
    std::pop_heap(heap.begin(), heap.end(), HeapLess{});
    const GreedyHeapEntry top = heap.back();
    heap.pop_back();
    if (top.order_idx == excluded) continue;  // not in the instance run
    ++heap_pops;
    if (top.utility < in.config.min_utility) break;  // line 9
    if (dispatched[static_cast<std::size_t>(top.order_idx)]) {
      ++stale_pops;
      continue;
    }
    const auto veh = static_cast<std::size_t>(top.veh_idx);
    if (top.version != veh_version[veh]) {
      ++stale_pops;
      continue;  // stale: a fresh entry for this pair exists (or it died)
    }

    if (working_of[veh] < 0) {
      working_of[veh] = static_cast<int32_t>(working.size());
      const auto first = seeds.cand_slots.begin() + seeds.cand_offsets[veh];
      const auto last =
          seeds.cand_slots.begin() + seeds.cand_offsets[veh + 1];
      working.push_back({fleet[veh], std::vector<int32_t>(first, last)});
    }
    Working& work = working[static_cast<std::size_t>(working_of[veh])];
    const Order& order = orders[static_cast<std::size_t>(top.order_idx)];
    Vehicle& vehicle = work.vehicle;
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
    ++veh_version[veh];
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
    std::vector<int32_t>& cands = work.cands;
    refresh_utility.assign(cands.size(), Money(-kInf));
    // The refresh runs unbudgeted (it is part of the committed dispatch
    // step); each worker still charges its queries, and the next loop
    // iteration is the cut point.
    ParallelForOrSerial(pool, cands.size(), [&](std::size_t k) {
      const auto other = static_cast<std::size_t>(cands[k]);
      if (dispatched[other]) return;
      const int64_t queries = CountQueries([&] {
        refresh_utility[k] = PairUtility(in, vehicle, orders[other]);
      });
      if (dl != nullptr) dl->ChargeQueries(queries);
    });
    std::vector<int32_t> alive;
    alive.reserve(cands.size());
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const int32_t other = cands[k];
      if (dispatched[static_cast<std::size_t>(other)]) continue;
      ++refresh_pairs;
      const Money u = refresh_utility[k];
      if (u == Money(-kInf)) continue;  // pair no longer valid: removed
      heap.push_back({u, other, top.veh_idx, veh_version[veh]});
      std::push_heap(heap.begin(), heap.end(), HeapLess{});
      alive.push_back(other);
    }
    cands = std::move(alive);
  }

  OBS_COUNTER_ADD("auction.greedy.heap_pops", heap_pops);
  OBS_COUNTER_ADD("auction.greedy.stale_pops", stale_pops);
  OBS_COUNTER_ADD("auction.dispatch.refresh_pairs", refresh_pairs);
  // Expiry truncates: the assignments emitted so far are finalized.
  result.anytime.complete = !(sweep_truncated || loop_truncated);

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (veh_version[i] > 0) {
      result.updated_plans.push_back(
          {i, std::move(working[static_cast<std::size_t>(working_of[i])]
                            .vehicle.plan.stops)});
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
  IndexSeeds(in.vehicles->size(), seeds);
}

}  // namespace auctionride
