// Sharded, mutex-striped memo of PlanPack outcomes, keyed by
// (vehicle index, sorted member set). Rank's pack generation evaluates the
// same (vehicle, members) combination from several requesters'
// enumerations; with per-requester tasks running concurrently on the
// dispatch pool, the memo must tolerate concurrent lookups and inserts of
// overlapping keys. The key is a fixed-size value (at most kMaxPackSize
// members), so a probe allocates nothing.
//
// Thread-safety: Lookup()/Insert() may be called from any thread. Two
// threads may race to compute the same key; both insert the same value
// (PlanPack is a pure function of the key for a fixed instance), and the
// first insert wins — results are identical either way.

#ifndef AUCTIONRIDE_AUCTION_PACK_MEMO_H_
#define AUCTIONRIDE_AUCTION_PACK_MEMO_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/check.h"
#include "common/mutex.h"
#include "common/striped_counter.h"
#include "common/units.h"
#include "common/thread_annotations.h"
#include "planner/pack_planner.h"

namespace auctionride {

class PackMemo {
 public:
  // 16 B, so a map node (key, value, next pointer; the hash is noexcept and
  // not cached) is a 48 B allocation.
  struct Eval {
    Meters delta_delivery_m;
    // PlanPack's logical oracle-query count (PackPlanResult::queries), a
    // pure function of the key. Memoizing it lets deadline metering charge
    // every *logical* evaluation the same amount whether it was a hit, a
    // miss, or a racy duplicate compute — which keeps synthetic budget
    // expiry independent of thread timing.
    int32_t queries = 0;
    bool feasible = false;
  };
  static_assert(sizeof(Eval) == 16);

  /// (vehicle index, member indices): members sorted, distinct, non-negative
  /// and 1..kMaxPackSize long; unused trailing slots hold -1.
  using Key = PackKey<kMaxPackSize>;

  static Key MakeKey(int32_t vehicle, std::span<const int32_t> members) {
    ARIDE_ACHECK(!members.empty() &&
                 members.size() <= static_cast<std::size_t>(kMaxPackSize));
    ARIDE_CHECK(members.front() >= 0 &&
                std::adjacent_find(members.begin(), members.end(),
                                   [](int32_t a, int32_t b) {
                                     return a >= b;
                                   }) == members.end())
        << "pack members must be sorted, distinct and non-negative";
    Key key;
    key.vehicle = vehicle;
    key.orders.fill(-1);
    std::copy(members.begin(), members.end(), key.orders.begin());
    return key;
  }

  PackMemo() : shards_(std::make_unique<Shard[]>(kNumShards)) {}

  PackMemo(const PackMemo&) = delete;
  PackMemo& operator=(const PackMemo&) = delete;

  /// Returns true and fills *out on a hit.
  bool Lookup(const Key& key, Eval* out) const {
    const Shard& shard = shards_[Key::Hash{}(key) % kNumShards];
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.Add();
      return false;
    }
    hits_.Add();
    *out = it->second;
    return true;
  }

  /// Idempotent: a concurrent insert of the same key keeps the first value
  /// (values are equal by construction, see the header comment).
  void Insert(const Key& key, const Eval& eval) {
    Shard& shard = shards_[Key::Hash{}(key) % kNumShards];
    MutexLock lock(shard.mu);
    shard.map.emplace(key, eval);
  }

  int64_t hits() const {
    return hits_.value();  // NOLINT-ARIDE(unsafe-unit-cast): event count
  }
  int64_t misses() const {
    return misses_.value();  // NOLINT-ARIDE(unsafe-unit-cast): event count
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (int s = 0; s < kNumShards; ++s) {
      MutexLock lock(shards_[s].mu);
      total += shards_[s].map.size();
    }
    return total;
  }

 private:
  static constexpr int kNumShards = 16;

  struct Shard {
    mutable Mutex mu;
    // Membership-only map: lookups and first-insert-wins inserts, never
    // iterated, so its unordered layout cannot leak into results.
    std::unordered_map<Key, Eval, Key::Hash> map ARIDE_GUARDED_BY(mu);
  };

  std::unique_ptr<Shard[]> shards_;
  // Striped: every pack-generation task bumps one of them per lookup.
  mutable StripedCounter hits_;
  mutable StripedCounter misses_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_PACK_MEMO_H_
