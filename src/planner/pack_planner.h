// Pack route planning for the ranking-based dispatch (paper §IV-A, Phase I).
//
// Dispatching a pack of up to c̄ requesters to a vehicle is conducted with
// respect to their optimal sequence: the paper explores the c̄! requester
// orderings, building each route incrementally. We do the same — for every
// permutation of the pack, orders are inserted one after another with
// BestInsertion, and the cheapest feasible resulting plan wins.
//
// Permutations of one pack, and packs that share members, walk the same
// insertion prefixes: (a, b, c) and (a, c, b) both start by inserting a, and
// the pack {a, b} walks (a, b) before {a, b, c} does. BestInsertion is a pure
// function of (vehicle with its prefix plan, order, now, oracle), so each
// step that some pack extends is computed once and kept in a caller-owned
// PackPrefixCache; later walks reuse its feasibility, running ΔD and plan.
// The result is bit-identical to the uncached walk (tests/
// pack_planner_reference.h): the permutation order, the ΔD fold order and
// the strict-< tie-break are the same.

#ifndef AUCTIONRIDE_PLANNER_PACK_PLANNER_H_
#define AUCTIONRIDE_PLANNER_PACK_PLANNER_H_

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/order.h"
#include "model/vehicle.h"
#include "planner/insertion.h"
#include "roadnet/oracle.h"

namespace auctionride {

/// Largest pack PlanPack plans (the paper's c̄): a requester plus at most two
/// partners. Vehicles of larger capacity still get packs of at most this
/// size; Rank caps its pack search at min(largest capacity, kMaxPackSize).
inline constexpr int kMaxPackSize = 3;

/// A vehicle plus up to N order slots, unused slots -1: the fixed-size key
/// of PackPrefixCache and of Rank's PackMemo, so a probe allocates nothing.
template <std::size_t N>
struct PackKey {
  int32_t vehicle = -1;
  std::array<int32_t, N> orders;
  bool operator==(const PackKey&) const = default;

  // FNV-1a over the vehicle and the order slots. noexcept, so the
  // unordered_maps keyed by it do not store the hash in every node.
  struct Hash {
    std::size_t operator()(const PackKey& k) const noexcept {
      uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](uint64_t x) {
        h ^= x;
        h *= 1099511628211ull;
      };
      mix(static_cast<uint32_t>(k.vehicle));
      for (int32_t id : k.orders) mix(static_cast<uint32_t>(id));
      return static_cast<std::size_t>(h);
    }
  };
};

struct PackPlanResult {
  bool feasible = false;
  // Total increase in delivery distance of the vehicle.
  Meters delta_delivery_m;
  // The vehicle's plan with all pack orders inserted.
  std::vector<PlanStop> new_plan;
  // Logical oracle queries of the walk: the Distance() calls the uncached
  // walk would make. A cached step adds the count it cost when computed, so
  // the total is a pure function of the inputs, whatever the cache held.
  int64_t queries = 0;
};

/// Steps of PlanPack's permutation walks, keyed by (vehicle id, ordered ids
/// of the orders inserted so far). Every step shorter than kMaxPackSize is
/// kept, since a larger pack may start with it; only the last insertion of
/// a full-size pack is never stored.
///
/// A cache serves one round: every vehicle id it sees must name the same
/// vehicle state, and every call must pass the same now_s and oracle. It is
/// single-threaded and unlocked — give each task its own.
class PackPrefixCache {
 public:
  struct Step {
    bool feasible = false;
    // ΔD summed over the prefix, folded in insertion order.
    Meters delta_sum;
    // The vehicle's plan after the prefix (empty when infeasible).
    std::vector<PlanStop> plan;
    // Logical oracle queries of this step's BestInsertion alone.
    int64_t queries = 0;
  };

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  std::size_t size() const { return steps_.size(); }

 private:
  friend PackPlanResult PlanPack(const Vehicle&, std::span<const Order* const>,
                                 Seconds, const DistanceOracle&,
                                 PackPrefixCache*);

  // (vehicle id, prefix order ids); unused trailing slots hold -1.
  using Key = PackKey<kMaxPackSize - 1>;

  // Returns the step for `key` and whether it was already computed; a new
  // step is default-constructed for the caller to fill.
  std::pair<Step*, bool> FindOrAdd(const Key& key);

  // Node-based: a Step's address survives later inserts, so a walk can keep
  // pointing at its prefix's plan.
  std::unordered_map<Key, Step, Key::Hash> steps_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Cheapest feasible joint insertion of `orders` into `vehicle`'s plan at
/// time `now_s`, over all insertion orders (permutations). Orders must have
/// distinct ids, none may already be in the plan, and there are at most
/// kMaxPackSize of them. Walk steps are read from and added to `*cache`
/// (see PackPrefixCache for its contract).
PackPlanResult PlanPack(const Vehicle& vehicle,
                        std::span<const Order* const> orders, Seconds now_s,
                        const DistanceOracle& oracle, PackPrefixCache* cache);

}  // namespace auctionride

#endif  // AUCTIONRIDE_PLANNER_PACK_PLANNER_H_
