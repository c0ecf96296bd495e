// Sharded, mutex-striped memo of PlanPack outcomes, keyed by
// (vehicle index, sorted member set). Rank's pack generation evaluates the
// same (vehicle, members) combination from several requesters'
// enumerations; with per-requester tasks running concurrently on the
// dispatch pool, the memo must tolerate concurrent lookups and inserts of
// overlapping keys.
//
// Thread-safety: Lookup()/Insert() may be called from any thread. Two
// threads may race to compute the same key; both insert the same value
// (PlanPack is a pure function of the key for a fixed instance), and the
// first insert wins — results are identical either way.

#ifndef AUCTIONRIDE_AUCTION_PACK_MEMO_H_
#define AUCTIONRIDE_AUCTION_PACK_MEMO_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/striped_counter.h"
#include "common/units.h"
#include "common/thread_annotations.h"

namespace auctionride {

class PackMemo {
 public:
  struct Eval {
    bool feasible = false;
    Meters delta_delivery_m;
    // Oracle Distance() calls PlanPack made computing this entry. PlanPack
    // is deterministic, so the count is a pure function of the key; memoizing
    // it lets deadline metering charge every *logical* evaluation the same
    // amount whether it was a hit, a miss, or a racy duplicate compute —
    // which keeps synthetic budget expiry independent of thread timing.
    int64_t queries = 0;
  };

  PackMemo() : shards_(std::make_unique<Shard[]>(kNumShards)) {}

  PackMemo(const PackMemo&) = delete;
  PackMemo& operator=(const PackMemo&) = delete;

  /// Returns true and fills *out on a hit.
  bool Lookup(int32_t vehicle, const std::vector<int32_t>& members,
              Eval* out) const {
    const std::size_t h = Hash(vehicle, members);
    const Shard& shard = shards_[h % kNumShards];
    MutexLock lock(shard.mu);
    auto it = shard.map.find(Key{vehicle, members});
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
  void Insert(int32_t vehicle, const std::vector<int32_t>& members,
              const Eval& eval) {
    const std::size_t h = Hash(vehicle, members);
    Shard& shard = shards_[h % kNumShards];
    MutexLock lock(shard.mu);
    shard.map.emplace(Key{vehicle, members}, eval);
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

  struct Key {
    int32_t vehicle;
    std::vector<int32_t> members;
    bool operator==(const Key& other) const {
      return vehicle == other.vehicle && members == other.members;
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return Hash(k.vehicle, k.members);
    }
  };

  // FNV-1a over the vehicle index and the member indices.
  static std::size_t Hash(int32_t vehicle,
                          const std::vector<int32_t>& members) {
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t x) {
      h ^= x;
      h *= 1099511628211ull;
    };
    mix(static_cast<uint32_t>(vehicle));
    for (int32_t m : members) mix(static_cast<uint32_t>(m));
    return static_cast<std::size_t>(h);
  }

  struct Shard {
    mutable Mutex mu;
    // Membership-only map: lookups and first-insert-wins inserts, never
    // iterated, so its unordered layout cannot leak into results.
    std::unordered_map<Key, Eval, KeyHash> map ARIDE_GUARDED_BY(mu);
  };

  std::unique_ptr<Shard[]> shards_;
  // Striped: every pack-generation task bumps one of them per lookup.
  mutable StripedCounter hits_;
  mutable StripedCounter misses_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_PACK_MEMO_H_
