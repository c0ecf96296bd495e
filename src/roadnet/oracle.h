// DistanceOracle: the single entry point through which all auction and
// simulation code obtains road-network shortest distances and travel times.
//
// The paper (§III-A) treats the inter-location distances purely as inputs
// with per-query cost O(q); this oracle makes q small with hub labels built
// from a contraction hierarchy (hub_labels.h). A cold Distance() is one
// merge of two sorted lists of ~60 entries. A cold pair of the one-to-many
// calls DistancesTo()/DistancesFrom() is one scan of the other endpoint's
// list against the anchor's label, scattered once into a dense per-node
// table; the answers are the same bits. Tests compare the oracle against
// DijkstraSearch (roadnet/dijkstra.h), which stays outside the query path.
//
// One cache level: every non-trivial lookup first probes a small
// direct-mapped front cache owned by the calling thread (no locks, no
// shared writes; entries are tagged with the oracle's never-reused id, so
// one thread can serve several oracles, and an oracle recreated at the same
// address never sees its predecessor's entries). A front miss computes the
// distance and fills the slot. The scattered anchor tables are the calling
// thread's too: two per direction, least recently used evicted, tagged with
// (oracle id, node) like the front slots. Nothing is shared between threads
// but the immutable labels.
//
// Thread-safety: every query may be called concurrently; the labels are
// immutable, the caches are per thread and the statistics are striped
// counters.

#ifndef AUCTIONRIDE_ROADNET_ORACLE_H_
#define AUCTIONRIDE_ROADNET_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/striped_counter.h"
#include "common/units.h"
#include "roadnet/graph.h"
#include "roadnet/hub_labels.h"

namespace auctionride {

/// Default urban driving speed: 30 km/h (paper's Beijing peak setting).
constexpr double kDefaultSpeedMps = 30.0 * 1000.0 / 3600.0;

class DistanceOracle {
 public:
  /// The network must outlive the oracle. Construction runs the
  /// preprocessing (contraction, then hub labels) up front.
  explicit DistanceOracle(const RoadNetwork* network,
                          double speed_mps = kDefaultSpeedMps);

  /// A tag, not a setting: hub labels are the only backend. It exists only
  /// for the benchmark harness under perfbench/, which is changed together
  /// with the benchmark; every other caller uses the constructor above.
  enum class Backend { kContractionHierarchy };
  DistanceOracle(const RoadNetwork* network, Backend /*tag*/)
      : DistanceOracle(network) {}

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  /// Shortest road distance in meters; kInfDistance if unreachable. Raw
  /// double by design: this is the geometry boundary — the labels and the
  /// front cache below it are pure graph code. Economic callers wrap the
  /// result in Meters at the call site.
  double Distance(NodeId source, NodeId target) const;

  /// A (source, target) pair for DistanceBatch().
  struct NodePair {
    NodeId source = kInvalidNode;
    NodeId target = kInvalidNode;
  };

  /// Batched Distance(): fills out[i] = Distance(pairs[i].source,
  /// pairs[i].target). Semantically and statistically identical to the
  /// equivalent sequence of Distance() calls (same values, same query /
  /// cache-hit / trivial counts, same ThreadQueryCount() charge); the
  /// statistics are bumped once per batch instead of once per pair.
  /// `out.size()` must equal `pairs.size()`. A miss is a merge. Outside the
  /// tests, its only caller is the benchmark harness's probe under
  /// perfbench/, which is changed together with the benchmark.
  void DistanceBatch(std::span<const NodePair> pairs,
                     std::span<double> out) const;

  /// One-to-many Distance(): out[i] = Distance(sources[i], target), and
  /// DistancesFrom() fills out[i] = Distance(source, targets[i]). Same
  /// values and statistics as the Distance() sequence, as DistanceBatch()
  /// promises; a front miss is a scan against the anchor's scattered label
  /// instead of a merge. `out.size()` must equal the node list's size.
  void DistancesTo(NodeId target, std::span<const NodeId> sources,
                   std::span<double> out) const;
  void DistancesFrom(NodeId source, std::span<const NodeId> targets,
                     std::span<double> out) const;

  /// Certified admissible lower bound on Distance(source, target): the
  /// straight-line distance scaled by the network's min-detour ratio (see
  /// RoadNetwork::min_detour_ratio()), shrunk by a relative safety margin of
  /// 1e-9 so that floating-point rounding — in this product, in the ratio
  /// precompute, and in the path sums inside the labels — can never push
  /// the bound above the double Distance() actually returns. Pure
  /// arithmetic: no graph search, no cache traffic, not counted as a query.
  double LowerBoundDistance(NodeId source, NodeId target) const {
    return lb_scale_ * EuclideanDistance(network_->position(source),
                                         network_->position(target));
  }

  /// The scale factor used by LowerBoundDistance (min-detour ratio with the
  /// safety margin applied). May exceed 1 on networks whose every edge
  /// detours; 0 disables geometric bounds (every lower bound is 0).
  double lower_bound_scale() const { return lb_scale_; }

  /// Shortest travel time at the configured constant speed.
  Seconds TravelTime(NodeId source, NodeId target) const {
    return Seconds(Distance(source, target) / speed_mps_);
  }

  MetersPerSecond speed_mps() const { return MetersPerSecond(speed_mps_); }
  const RoadNetwork& network() const { return *network_; }

  /// Cumulative query statistics. num_queries()
  /// counts only non-trivial queries (source != target) — the ones that
  /// reach the cache — so hit rate is hits/queries without bias from
  /// trivial zero-distance answers, which are counted separately. Cache hits
  /// are hits in the calling thread's front cache.
  int64_t num_queries() const { return num_queries_.value(); }
  int64_t num_cache_hits() const { return num_cache_hits_.value(); }
  int64_t num_trivial_queries() const { return num_trivial_queries_.value(); }

  /// Entries in each thread's front cache (48 KiB per thread, allocated on
  /// the thread's first non-trivial query).
  static constexpr std::size_t kFrontCacheSlots = 2048;

  /// Scattered anchor labels each thread keeps per direction. Each is a
  /// dense table of 8 bytes per node of the largest network the thread has
  /// anchored on, allocated on the thread's first one-to-many front miss.
  static constexpr int kScatteredWays = 2;

  /// Monotone count of Distance() calls made by the *calling thread* across
  /// all oracles (trivial and cached queries included). Dispatchers charge
  /// synthetic latency-fault budgets from deltas of this counter: because
  /// each worker measures only its own queries into a per-slot delta and
  /// the deadline is polled only between batches, the charged totals are
  /// bit-identical at any thread count (see docs/ROBUSTNESS.md).
  static int64_t ThreadQueryCount();

 private:
  double ComputeUncached(NodeId source, NodeId target) const;
  // The non-trivial half of a lookup: front probe, else compute() and fill
  // the slot. Bumps *hits on a front hit.
  template <typename Compute>
  double FrontOr(NodeId source, NodeId target, int64_t* hits,
                 const Compute& compute) const;
  // The statistics of a multi-pair call: `n` pairs, `trivial` of them
  // trivial, `hits` front hits.
  void AddCallCounts(std::size_t n, int64_t trivial, int64_t hits) const;
  // DistancesTo() (kToAnchor) or DistancesFrom() over one anchor.
  template <bool kToAnchor>
  void DistancesOneToMany(NodeId anchor, std::span<const NodeId> others,
                          std::span<double> out) const;

  // Tags this oracle's front-cache entries; drawn from a process-wide
  // counter, never reused.
  const uint64_t id_;
  const RoadNetwork* network_;
  double speed_mps_;
  double lb_scale_ = 0;
  // Hub labels of a contraction hierarchy, which is dropped once they are
  // built.
  std::unique_ptr<HubLabels> labels_;

  mutable StripedCounter num_queries_;
  mutable StripedCounter num_cache_hits_;
  mutable StripedCounter num_trivial_queries_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ROADNET_ORACLE_H_
