#include "planner/pack_planner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace auctionride {

void PackPrefixCache::Clear() {
  if (used_ > 0) {
    for (Slot& slot : slots_) slot.step = -1;
  }
  used_ = 0;
  hits_ = 0;
  misses_ = 0;
}

namespace {

// Top bits of a multiplicative mix of the key's FNV-1a hash: FNV's low bits
// depend only on the low bits of each id, so they cannot index the table.
std::size_t SlotIndex(std::size_t hash, int shift) {
  return static_cast<std::size_t>(
      (static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >> shift);
}

}  // namespace

void PackPrefixCache::Grow() {
  const std::size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.step < 0) continue;
    std::size_t i = SlotIndex(Key::Hash{}(slot.key), shift_);
    while (slots_[i].step >= 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::pair<PackPrefixCache::Step*, bool> PackPrefixCache::FindOrAdd(
    const Key& key) {
  if (2 * (used_ + 1) > slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = SlotIndex(Key::Hash{}(key), shift_);
  for (; slots_[i].step >= 0; i = (i + 1) & mask) {
    if (slots_[i].key == key) {
      ++hits_;
      return {&steps_[static_cast<std::size_t>(slots_[i].step)], true};
    }
  }
  ++misses_;
  if (used_ == steps_.size()) steps_.emplace_back();
  Step& step = steps_[used_];
  step.feasible = false;
  step.delta_sum = Meters();
  step.plan.clear();
  step.queries = 0;
  slots_[i] = {key, static_cast<int32_t>(used_)};
  ++used_;
  return {&step, false};
}

PackPlanResult PlanPack(const Vehicle& vehicle,
                        std::span<const Order* const> orders, Seconds now_s,
                        const DistanceOracle& oracle, PackPrefixCache* cache,
                        std::vector<PlanStop>* plan) {
  PackPlanResult best;
  if (orders.empty()) return best;
  ARIDE_ACHECK(orders.size() <= static_cast<std::size_t>(kMaxPackSize));
  if (vehicle.CommittedRiders() + static_cast<int>(orders.size()) >
      vehicle.capacity) {
    return best;
  }
#ifndef NDEBUG
  for (const Order* o : orders) {
    ARIDE_DCHECK(o != nullptr);
    ARIDE_DCHECK(!vehicle.plan.ContainsOrder(o->id));
  }
#endif

  // Inserts `order` into the vehicle with plan `prefix_plan` and returns the
  // insertion's logical query count.
  const auto insert = [&](std::span<const PlanStop> prefix_plan,
                          const Order& order, InsertionResult* ins) {
    const int64_t before = DistanceOracle::ThreadQueryCount();
    *ins = BestInsertion(vehicle, prefix_plan, order, now_s, oracle);
    return DistanceOracle::ThreadQueryCount() - before;
  };

  const std::size_t n = orders.size();
  std::array<std::size_t, kMaxPackSize> perm{};
  std::iota(perm.begin(), perm.begin() + static_cast<long>(n), 0);
  Meters best_delta{std::numeric_limits<double>::infinity()};
  // The best walk's plan, kept as where to find it rather than as a copy:
  // the plan its last cached step left (a step or the vehicle's own plan,
  // both stable for the whole call) plus, for a full-size pack, the
  // uncached last insertion into it.
  std::span<const PlanStop> best_base;
  const Order* best_last_order = nullptr;
  InsertionResult best_last;
  InsertionResult ins;
  do {
    PackPrefixCache::Key key;
    key.vehicle = vehicle.id;
    key.orders.fill(-1);
    std::span<const PlanStop> walk_plan = vehicle.plan.stops;
    const Order* last_order = nullptr;
    Meters delta_sum;
    bool ok = true;
    for (std::size_t k = 0; k < n && ok; ++k) {
      const Order& order = *orders[perm[k]];
      if (k + 1 == static_cast<std::size_t>(kMaxPackSize)) {
        // The last insertion of a full-size pack: no pack extends it.
        best.queries += insert(walk_plan, order, &ins);
        ok = ins.feasible;
        delta_sum += ins.delta_delivery_m;
        last_order = &order;
        continue;
      }
      // A prefix some larger pack may share: read or fill the cache.
      key.orders[k] = order.id;
      const auto [step, cached] = cache->FindOrAdd(key);
      if (!cached) {
        step->queries = insert(walk_plan, order, &ins);
        step->feasible = ins.feasible;
        if (ins.feasible) {
          step->delta_sum = delta_sum + ins.delta_delivery_m;
          step->plan.assign(walk_plan.begin(), walk_plan.end());
          InsertStops(ins, order, now_s, &step->plan);
        }
      }
      best.queries += step->queries;
      ok = step->feasible;
      delta_sum = step->delta_sum;
      walk_plan = step->plan;
    }
    if (ok && delta_sum < best_delta) {
      best_delta = delta_sum;
      best.feasible = true;
      best_base = walk_plan;
      best_last_order = last_order;
      best_last = ins;
    }
  } while (std::next_permutation(perm.begin(), perm.begin() +
                                                   static_cast<long>(n)));

  if (best.feasible) {
    best.delta_delivery_m = best_delta;
    if (plan != nullptr) {
      plan->assign(best_base.begin(), best_base.end());
      if (best_last_order != nullptr) {
        InsertStops(best_last, *best_last_order, now_s, plan);
      }
    }
  }
  return best;
}

}  // namespace auctionride
