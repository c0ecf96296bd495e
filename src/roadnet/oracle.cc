#include "roadnet/oracle.h"

#include <array>
#include <atomic>
#include <bit>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "roadnet/contraction_hierarchy.h"

namespace auctionride {

namespace {

uint64_t NextOracleId() {
  // Starts at 1: id 0 marks an empty front-cache slot.
  static std::atomic<uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

DistanceOracle::DistanceOracle(const RoadNetwork* network, double speed_mps)
    : id_(NextOracleId()),
      network_(network),
      speed_mps_(speed_mps) {
  ARIDE_ACHECK(network != nullptr);
  ARIDE_ACHECK(network->built());
  ARIDE_ACHECK(speed_mps > 0);
  labels_ = std::make_unique<HubLabels>(ContractionHierarchy(network));
  // Relative safety margin: the labels sum edge lengths with round-to-
  // nearest adds, and LowerBoundDistance rounds its product once, so each
  // side can differ from the exact real value by a handful of ulps. Shaving
  // 1e-9 (~ 2^-30, millions of ulps) off the ratio keeps the bound strictly
  // admissible against the *rounded* Distance() result.
  lb_scale_ = network->min_detour_ratio() * (1.0 - 1e-9);
}

#if !defined(ARIDE_OBS_DISABLED)
namespace {

// Distance() runs ~10^8 times per bench; even striped registry counters
// are too hot for its fast path, so each thread batches locally and
// flushes every 4096 queries (and at thread exit — the registry is leaked,
// so flushing from a thread_local destructor is safe). Snapshots can lag
// by at most one batch per live thread, noise at these volumes.
struct SpQueryBatch {
  int64_t queries = 0;
  int64_t cache_hits = 0;
  int64_t trivial = 0;
  int64_t label_queries = 0;
  int64_t scattered = 0;
  ~SpQueryBatch() { Flush(); }
  void Flush() {
    if (queries > 0) OBS_COUNTER_ADD("roadnet.sp.queries", queries);
    if (cache_hits > 0) OBS_COUNTER_ADD("roadnet.sp.cache_hits", cache_hits);
    if (trivial > 0) OBS_COUNTER_ADD("roadnet.sp.trivial", trivial);
    if (label_queries > 0) {
      OBS_COUNTER_ADD("roadnet.ch.queries", label_queries);
    }
    if (scattered > 0) OBS_COUNTER_ADD("roadnet.labels.scattered", scattered);
    queries = 0;
    cache_hits = 0;
    trivial = 0;
    label_queries = 0;
    scattered = 0;
  }
};

thread_local SpQueryBatch sp_query_batch;

}  // namespace

#define ARIDE_SP_COUNT_QUERY() \
  do {                         \
    if (++sp_query_batch.queries >= 4096) sp_query_batch.Flush(); \
  } while (0)
#define ARIDE_SP_COUNT_HIT() (++sp_query_batch.cache_hits)
#define ARIDE_SP_COUNT_TRIVIAL() (++sp_query_batch.trivial)
#define ARIDE_SP_COUNT_LABEL_QUERY() (++sp_query_batch.label_queries)
#define ARIDE_SP_COUNT_SCATTER() (++sp_query_batch.scattered)
#else
#define ARIDE_SP_COUNT_QUERY() \
  do {                         \
  } while (0)
#define ARIDE_SP_COUNT_HIT() (void)0
#define ARIDE_SP_COUNT_TRIVIAL() (void)0
#define ARIDE_SP_COUNT_LABEL_QUERY() (void)0
#define ARIDE_SP_COUNT_SCATTER() (void)0
#endif  // ARIDE_OBS_DISABLED

namespace {
// Per-thread Distance() call count. Plain (non-atomic) thread_local: only
// the owning thread mutates it, so the increment costs about as much as the
// function-entry DCHECKs it sits next to.
thread_local int64_t tl_thread_queries = 0;

inline uint64_t PairKey(NodeId source, NodeId target) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(source)) << 32) |
         static_cast<uint32_t>(target);
}

// One slot of the calling thread's direct-mapped front cache. A slot holds
// the value of `key` under oracle `oracle_id`; id 0 (never issued) marks it
// empty.
struct FrontEntry {
  uint64_t key = 0;
  uint64_t oracle_id = 0;
  double value = 0;
};
static_assert(sizeof(FrontEntry) * DistanceOracle::kFrontCacheSlots <=
              64 * 1024);
static_assert(std::has_single_bit(DistanceOracle::kFrontCacheSlots) &&
              DistanceOracle::kFrontCacheSlots >= 2);

// FrontSlot indexes with the top log2(kFrontCacheSlots) bits of a 64-bit
// hash.
constexpr int kFrontSlotShift =
    64 - std::countr_zero(DistanceOracle::kFrontCacheSlots);

// Non-owning view of this thread's slots; null until the first lookup.
constinit thread_local FrontEntry* tl_front = nullptr;

FrontEntry* AllocateFrontCache() {
  // Owns the slots and frees them at thread exit. Function-local, so only
  // threads that actually query pay for the allocation.
  struct Owner {
    std::unique_ptr<FrontEntry[]> slots =
        std::make_unique<FrontEntry[]>(DistanceOracle::kFrontCacheSlots);
    ~Owner() { tl_front = nullptr; }
  };
  thread_local Owner owner;
  return owner.slots.get();
}

// The slot `key` maps to for oracle `oracle_id`. Mixing the id into the
// index keeps two oracles queried on one thread from evicting each other
// on every shared pair.
inline FrontEntry& FrontSlot(uint64_t oracle_id, uint64_t key) {
  FrontEntry* slots = tl_front;
  if (slots == nullptr) [[unlikely]] {
    slots = AllocateFrontCache();
    tl_front = slots;
  }
  const uint64_t h = (key ^ (oracle_id * 0xc2b2ae3d27d4eb4fULL)) *
                     0x9e3779b97f4a7c15ULL;
  return slots[h >> kFrontSlotShift];
}

// One of the calling thread's scattered labels: `dense` holds the label of
// `node` under oracle `oracle_id` at the hubs listed in `hubs`, and +inf in
// every other slot. Id 0 (never issued) marks it empty.
struct ScatteredWay {
  uint64_t oracle_id = 0;
  NodeId node = kInvalidNode;
  uint64_t last_use = 0;
  std::vector<double> dense;
  std::vector<int32_t> hubs;
};

// The ways of one label direction, with a use clock for LRU eviction.
struct ScatteredSet {
  std::array<ScatteredWay, DistanceOracle::kScatteredWays> ways;
  uint64_t clock = 0;
};

// Non-owning view of this thread's two sets (backward labels, which
// DistancesTo() anchors on, then forward); null until the first use.
constinit thread_local ScatteredSet* tl_scattered = nullptr;

ScatteredSet* AllocateScatteredSets() {
  // Owns the sets and frees them at thread exit, as AllocateFrontCache.
  struct Owner {
    std::array<ScatteredSet, 2> sets;
    ~Owner() { tl_scattered = nullptr; }
  };
  thread_local Owner owner;
  return owner.sets.data();
}

// `anchor`'s label of direction `dir` under oracle `oracle_id`, scattered
// into a table of at least `num_nodes` slots: a way that holds it, else the
// least recently used way, reset and refilled.
const double* ScatteredLabel(const HubLabels& labels, uint64_t oracle_id,
                             NodeId num_nodes, NodeId anchor,
                             HubLabels::Direction dir) {
  ScatteredSet* sets = tl_scattered;
  if (sets == nullptr) [[unlikely]] {
    sets = AllocateScatteredSets();
    tl_scattered = sets;
  }
  ScatteredSet& set = sets[dir == HubLabels::Direction::kForward ? 1 : 0];
  const uint64_t now = ++set.clock;
  ScatteredWay* victim = &set.ways[0];
  for (ScatteredWay& way : set.ways) {
    if (way.oracle_id == oracle_id && way.node == anchor) {
      way.last_use = now;
      return way.dense.data();
    }
    if (way.last_use < victim->last_use) victim = &way;
  }
  for (const int32_t hub : victim->hubs) victim->dense[hub] = kInfDistance;
  if (victim->dense.size() < static_cast<std::size_t>(num_nodes)) {
    victim->dense.resize(static_cast<std::size_t>(num_nodes), kInfDistance);
  }
  const std::span<const int32_t> hubs =
      labels.Scatter(anchor, dir, victim->dense.data());
  victim->hubs.assign(hubs.begin(), hubs.end());
  victim->oracle_id = oracle_id;
  victim->node = anchor;
  victim->last_use = now;
  ARIDE_SP_COUNT_SCATTER();
  return victim->dense.data();
}

// The one-to-many counterpart of ComputeUncached: d(other, anchor)
// (kToAnchor) or d(anchor, other), `table` holding the anchor's label.
template <bool kToAnchor>
double ScanUncached(const HubLabels& labels, NodeId other,
                    const double* table) {
  OBS_SCOPED_TIMER_SAMPLED("roadnet.sp.compute_s", 1024);
  ARIDE_SP_COUNT_LABEL_QUERY();
  return kToAnchor ? labels.ScanForward(other, table)
                   : labels.ScanBackward(other, table);
}
}  // namespace

int64_t DistanceOracle::ThreadQueryCount() { return tl_thread_queries; }

double DistanceOracle::ComputeUncached(NodeId source, NodeId target) const {
  // A label merge takes under a microsecond and runs ~10^6 times per round,
  // so it is timed one in 1024: one in 16 would take the histogram mutex
  // tens of thousands of times per round.
  OBS_SCOPED_TIMER_SAMPLED("roadnet.sp.compute_s", 1024);
  ARIDE_SP_COUNT_LABEL_QUERY();
  return labels_->Distance(source, target);
}

template <typename Compute>
double DistanceOracle::FrontOr(NodeId source, NodeId target, int64_t* hits,
                               const Compute& compute) const {
  ARIDE_SP_COUNT_QUERY();
  const uint64_t key = PairKey(source, target);
  FrontEntry& front = FrontSlot(id_, key);
  if (front.key == key && front.oracle_id == id_) {
    ++*hits;
    ARIDE_SP_COUNT_HIT();
    return front.value;
  }
  const double d = compute();
  front = {key, id_, d};
  return d;
}

void DistanceOracle::AddCallCounts(std::size_t n, int64_t trivial,
                                   int64_t hits) const {
  if (trivial > 0) num_trivial_queries_.Add(trivial);
  const int64_t nontrivial = static_cast<int64_t>(n) - trivial;
  if (nontrivial > 0) num_queries_.Add(nontrivial);
  if (hits > 0) num_cache_hits_.Add(hits);
}

double DistanceOracle::Distance(NodeId source, NodeId target) const {
  ARIDE_DCHECK(source >= 0 && source < network_->num_nodes());
  ARIDE_DCHECK(target >= 0 && target < network_->num_nodes());
  ++tl_thread_queries;
  // Trivial queries never reach the cache, so counting them in
  // num_queries_ would bias the hit rate downward; they get their own
  // counter and num_queries_ stays hits + computes.
  if (source == target) {
    num_trivial_queries_.Add();
    ARIDE_SP_COUNT_TRIVIAL();
    return 0;
  }
  num_queries_.Add();
  int64_t hits = 0;
  const double d = FrontOr(source, target, &hits,
                           [&] { return ComputeUncached(source, target); });
  if (hits > 0) num_cache_hits_.Add();
  return d;
}

void DistanceOracle::DistanceBatch(std::span<const NodePair> pairs,
                                   std::span<double> out) const {
  ARIDE_ACHECK(pairs.size() == out.size());
  const std::size_t n = pairs.size();
  if (n == 0) return;
  tl_thread_queries += static_cast<int64_t>(n);
  int64_t trivial = 0;
  int64_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId source = pairs[i].source;
    const NodeId target = pairs[i].target;
    ARIDE_DCHECK(source >= 0 && source < network_->num_nodes());
    ARIDE_DCHECK(target >= 0 && target < network_->num_nodes());
    if (source == target) {
      out[i] = 0;
      ++trivial;
      ARIDE_SP_COUNT_TRIVIAL();
      continue;
    }
    out[i] = FrontOr(source, target, &hits,
                     [&] { return ComputeUncached(source, target); });
  }
  AddCallCounts(n, trivial, hits);
}

template <bool kToAnchor>
void DistanceOracle::DistancesOneToMany(NodeId anchor,
                                        std::span<const NodeId> others,
                                        std::span<double> out) const {
  ARIDE_ACHECK(others.size() == out.size());
  const std::size_t n = others.size();
  if (n == 0) return;
  ARIDE_DCHECK(anchor >= 0 && anchor < network_->num_nodes());
  tl_thread_queries += static_cast<int64_t>(n);
  int64_t trivial = 0;
  int64_t hits = 0;
  const double* table = nullptr;  // fetched on the call's first front miss
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId other = others[i];
    ARIDE_DCHECK(other >= 0 && other < network_->num_nodes());
    if (other == anchor) {
      out[i] = 0;
      ++trivial;
      ARIDE_SP_COUNT_TRIVIAL();
      continue;
    }
    const auto scan = [&] {
      if (table == nullptr) {
        table = ScatteredLabel(*labels_, id_, network_->num_nodes(), anchor,
                               kToAnchor ? HubLabels::Direction::kBackward
                                         : HubLabels::Direction::kForward);
      }
      return ScanUncached<kToAnchor>(*labels_, other, table);
    };
    out[i] = kToAnchor ? FrontOr(other, anchor, &hits, scan)
                       : FrontOr(anchor, other, &hits, scan);
  }
  AddCallCounts(n, trivial, hits);
}

void DistanceOracle::DistancesTo(NodeId target,
                                 std::span<const NodeId> sources,
                                 std::span<double> out) const {
  DistancesOneToMany</*kToAnchor=*/true>(target, sources, out);
}

void DistanceOracle::DistancesFrom(NodeId source,
                                   std::span<const NodeId> targets,
                                   std::span<double> out) const {
  DistancesOneToMany</*kToAnchor=*/false>(source, targets, out);
}

}  // namespace auctionride
