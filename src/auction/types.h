// Shared types of the auction mechanism: configuration, dispatch input
// (one round's requesters + vehicles), and dispatch/pricing results.
//
// Money is in yuan; α_d / β_d are yuan per kilometer (paper §V-A); distances
// are meters throughout, converted at the utility boundary.

#ifndef AUCTIONRIDE_AUCTION_TYPES_H_
#define AUCTIONRIDE_AUCTION_TYPES_H_

#include <string>
#include <utility>
#include <vector>

#include "auction/dispatch_tier.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "roadnet/oracle.h"

namespace auctionride {

class Deadline;
class ThreadPool;
class WarmStartCache;

struct AuctionConfig {
  // Travel cost per km (labor & fuel), α_d. Paper default: 3.0 yuan/km.
  double alpha_d_per_km = 3.0;
  // Platform's payment to drivers per delivery km, β_d. The paper requires
  // β_d >= α_d and leaves the value open; its §V-C profitability argument
  // implies payouts equal to delivery cost, so we default β_d = α_d.
  double beta_d_per_km = 3.0;

  // Dispatch-fee ratio CR (paper §V-C): the platform withholds CR·bid_j of
  // every dispatched requester; algorithms see deducted bids. Applied by
  // RunMechanism, not by the dispatch algorithms themselves.
  double charge_ratio = 0.0;

  // Minimum pair/pack utility to dispatch (Algorithm 1 line 9 breaks when
  // the maximum utility drops below 0).
  Money min_utility;

  // --- Rank-specific knobs ---
  // Candidate co-requesters per order in pack generation (restricted
  // enumeration; see DESIGN.md substitution table).
  int pack_candidate_limit = 12;
  // When the number of requesters reaches this threshold, pack generation
  // clusters orders into groups of ~cluster_target_size and searches packs
  // within groups (paper §V-E optimization). 0 disables clustering.
  int cluster_threshold = 5000;
  int cluster_target_size = 1000;

  // Exact spatial pruning of requester-vehicle pairs (see
  // planner::MaxPickupRadiusM). Disabled only by the ablation bench.
  bool use_spatial_pruning = true;
};

// Spatial-index tuning shared by every dispatcher. Grid cells are consumed
// by the raw-double geometry layer (src/spatial/), which sits below the
// unit wall.
// Cell size of the per-round vehicle grid index (meters). One value for
// Greedy's pair pruning, Rank's nearest-vehicle resolution, FCFS and
// matching, so pruning radius and index resolution cannot drift apart.
inline constexpr double kVehicleGridCellM = 1000;
// Cell size of Rank's per-group co-requester origin index (meters).
inline constexpr double kPackOriginCellM = 800;
// Euclidean pre-filter size when Rank resolves each requester's nearest
// vehicle by road distance.
inline constexpr int kNearestVehicleCandidates = 8;

/// One dispatch round's input. Orders carry the (possibly deducted) bids the
/// algorithms optimize; vehicles are snapshots whose plans the algorithms
/// extend. All pointers must outlive the call.
struct AuctionInstance {
  const std::vector<Order>* orders = nullptr;
  const std::vector<Vehicle>* vehicles = nullptr;
  Seconds now_s;
  const DistanceOracle* oracle = nullptr;
  AuctionConfig config;
  // Worker pool for parallel dispatch candidate generation (Greedy's pair
  // sweep, Rank's per-requester pack search). nullptr = serial. Results are
  // bit-identical either way: workers only fill disjoint slots and the
  // merge into shared state happens serially in a fixed order.
  ThreadPool* dispatch_pool = nullptr;
  // Cooperative compute budget for this dispatch (nullptr = unlimited).
  // Dispatchers run budgeted sweeps in deterministic batches, charge
  // synthetic per-query costs from per-slot counts, and at expiry finalize
  // the partial result built so far (AnytimeOutcome records the cut). See
  // docs/ROBUSTNESS.md.
  Deadline* deadline = nullptr;
  // Previous round's surviving candidates (nullptr = cold start). Read-only:
  // hints only reprioritize anytime sweeps; survivors of this round are
  // reported back through DispatchResult::surviving_pairs.
  const WarmStartCache* warm_start = nullptr;
};

/// How a budgeted anytime dispatch ended.
struct AnytimeOutcome {
  // False when the deadline expired and the search was cut; the result then
  // covers only the slots finalized before the cut.
  bool complete = true;
};

/// One dispatched requester.
struct Assignment {
  OrderId order = kInvalidOrder;
  VehicleId vehicle = kInvalidVehicle;
  // α_d-cost attributed to this order. For Greedy this is exactly
  // α_d·ΔD of the insertion; for Rank the pack cost is split evenly among
  // members (reporting only — the overall utility uses exact pack costs).
  Money cost;
  // bid − cost (pack share for Rank).
  Money utility;
  // Ladder tier that produced this assignment. Dispatchers always emit
  // kPrimary; RunMechanism restamps fallback-tier winners when a truncated
  // round's remainder falls through the quality curve.
  DispatchTier tier = DispatchTier::kPrimary;
};

struct DispatchResult {
  // Dispatched requesters in dispatch order (Greedy's sequence semantics;
  // Rank lists pack members in pack-dispatch order).
  std::vector<Assignment> assignments;
  // Updated plans of the vehicles that received orders, keyed by vehicle
  // index in the instance's vehicle vector.
  std::vector<std::pair<std::size_t, std::vector<PlanStop>>> updated_plans;
  // Σ bid_j − α_d·ΣΔD over dispatched requesters (Equation 2 contribution).
  Money total_utility;
  // Σ ΔD over all insertions.
  Meters total_delta_delivery_m;
  // Wall time of the dispatch; summed over tiers in a RunMechanism outcome.
  Seconds elapsed_seconds;
  // Anytime cut record; `anytime.complete` is false iff the deadline expired
  // and this result holds a (still internally consistent) partial dispatch.
  AnytimeOutcome anytime;
  // Surviving (order, vehicle) candidate pairs for warm-starting the next
  // round — populated only when instance.warm_start was set. Includes
  // candidates of *undispatched* orders; dispatched orders are the client's
  // job to invalidate.
  std::vector<std::pair<OrderId, VehicleId>> surviving_pairs;

  bool IsDispatched(OrderId order) const {
    for (const Assignment& a : assignments) {
      if (a.order == order) return true;
    }
    return false;
  }
};

/// Payment of one dispatched requester, as decided by a pricing algorithm.
struct Payment {
  OrderId order = kInvalidOrder;
  Money payment;  // yuan
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_TYPES_H_
