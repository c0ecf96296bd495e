#include "roadnet/oracle.h"

#include <atomic>
#include <bit>

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
  ~SpQueryBatch() { Flush(); }
  void Flush() {
    if (queries > 0) OBS_COUNTER_ADD("roadnet.sp.queries", queries);
    if (cache_hits > 0) OBS_COUNTER_ADD("roadnet.sp.cache_hits", cache_hits);
    if (trivial > 0) OBS_COUNTER_ADD("roadnet.sp.trivial", trivial);
    if (label_queries > 0) {
      OBS_COUNTER_ADD("roadnet.ch.queries", label_queries);
    }
    queries = 0;
    cache_hits = 0;
    trivial = 0;
    label_queries = 0;
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
#else
#define ARIDE_SP_COUNT_QUERY() \
  do {                         \
  } while (0)
#define ARIDE_SP_COUNT_HIT() (void)0
#define ARIDE_SP_COUNT_TRIVIAL() (void)0
#define ARIDE_SP_COUNT_LABEL_QUERY() (void)0
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

double DistanceOracle::FrontOrCompute(NodeId source, NodeId target,
                                      int64_t* hits) const {
  ARIDE_SP_COUNT_QUERY();
  const uint64_t key = PairKey(source, target);
  FrontEntry& front = FrontSlot(id_, key);
  if (front.key == key && front.oracle_id == id_) {
    ++*hits;
    ARIDE_SP_COUNT_HIT();
    return front.value;
  }
  const double d = ComputeUncached(source, target);
  front = {key, id_, d};
  return d;
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
  const double d = FrontOrCompute(source, target, &hits);
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
    out[i] = FrontOrCompute(source, target, &hits);
  }
  if (trivial > 0) num_trivial_queries_.Add(trivial);
  const int64_t nontrivial = static_cast<int64_t>(n) - trivial;
  if (nontrivial > 0) num_queries_.Add(nontrivial);
  if (hits > 0) num_cache_hits_.Add(hits);
}

}  // namespace auctionride
