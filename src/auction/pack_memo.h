// Sharded, mutex-striped memo of PlanPack outcomes, keyed by
// (vehicle index, sorted member set). Rank's pack generation evaluates the
// same (vehicle, members) combination from several requesters'
// enumerations; with per-requester tasks running concurrently on the
// dispatch pool, the memo must tolerate concurrent lookups and inserts of
// overlapping keys. The key is a fixed-size value (at most kMaxPackSize
// members), so a probe allocates nothing. Each shard carves its map nodes
// out of chunks it owns (NodePool), so an insert is not a malloc, a node
// takes 40 B instead of a 48 B malloc chunk, and the round's memo goes back
// to the heap a chunk at a time when it dies.
//
// Thread-safety: Lookup()/Insert() may be called from any thread. Two
// threads may race to compute the same key; both insert the same value
// (PlanPack is a pure function of the key for a fixed instance), and the
// first insert wins — results are identical either way.

#ifndef AUCTIONRIDE_AUCTION_PACK_MEMO_H_
#define AUCTIONRIDE_AUCTION_PACK_MEMO_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <new>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/striped_counter.h"
#include "common/units.h"
#include "common/thread_annotations.h"
#include "planner/pack_planner.h"

namespace auctionride {

class PackMemo {
 public:
  // 16 B, so a map node (next pointer, key, value; the hash is noexcept
  // and not cached) is 40 B.
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
    shard.map.try_emplace(key, eval);
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

  // Memory for one shard's map: requests of exactly a node's size come from
  // fixed-size blocks carved out of chunks, all others (the bucket arrays)
  // from the heap. The map never erases, so a block is never reused; it
  // goes back to the heap with its chunk when the pool dies. Chunks start
  // at kFirstChunkBlocks and double up to kMaxChunkBlocks, so a small
  // round's memo holds little and a fig8_round shard (~34 k entries) takes
  // ~20 chunks. Chunks are plain heap memory: std::pmr's pool resources
  // over-align their chunks and bucket arrays, which fragmented the heap
  // enough to raise a city_rank replay's peak RSS by ~7 MB.
  class NodePool final : public std::pmr::memory_resource {
   public:
    NodePool() = default;
    NodePool(const NodePool&) = delete;
    NodePool& operator=(const NodePool&) = delete;
    ~NodePool() override {
      while (chunks_ != nullptr) {
        Chunk* const prev = chunks_->prev;
        ::operator delete(chunks_);
        chunks_ = prev;
      }
    }

   private:
    // The map's node: next pointer, then the (key, value) pair. A node of
    // another layout only misses the pool; it is still served.
    static constexpr std::size_t kBlockBytes =
        sizeof(void*) + sizeof(std::pair<const Key, Eval>);
    static constexpr std::size_t kFirstChunkBlocks = 32;
    static constexpr std::size_t kMaxChunkBlocks = 2048;
    struct Chunk {
      Chunk* prev;
    };
    static_assert(kBlockBytes % alignof(void*) == 0 &&
                  sizeof(Chunk) % alignof(void*) == 0);

    static bool Pooled(std::size_t bytes, std::size_t alignment) {
      return bytes == kBlockBytes && alignment <= alignof(void*);
    }

    void* do_allocate(std::size_t bytes, std::size_t alignment) override {
      if (!Pooled(bytes, alignment)) {
        return std::pmr::new_delete_resource()->allocate(bytes, alignment);
      }
      if (left_ == 0) {
        const std::size_t blocks = chunks_ == nullptr
                                       ? kFirstChunkBlocks
                                       : std::min(2 * chunk_blocks_,
                                                  kMaxChunkBlocks);
        auto* chunk = static_cast<Chunk*>(
            ::operator new(sizeof(Chunk) + blocks * kBlockBytes));
        chunk->prev = chunks_;
        chunks_ = chunk;
        chunk_blocks_ = blocks;
        next_ = reinterpret_cast<std::byte*>(chunk + 1);
        left_ = blocks;
      }
      void* const block = next_;
      next_ += kBlockBytes;
      --left_;
      return block;
    }

    void do_deallocate(void* p, std::size_t bytes,
                       std::size_t alignment) override {
      if (!Pooled(bytes, alignment)) {
        std::pmr::new_delete_resource()->deallocate(p, bytes, alignment);
      }
    }

    bool do_is_equal(
        const std::pmr::memory_resource& other) const noexcept override {
      return this == &other;
    }

    Chunk* chunks_ = nullptr;  // newest first
    std::size_t chunk_blocks_ = 0;
    std::byte* next_ = nullptr;  // next uncarved block of the newest chunk
    std::size_t left_ = 0;       // uncarved blocks in it
  };

  struct Shard {
    mutable Mutex mu;
    // Used only under `mu`, through `map`; declared first so it outlives
    // the map's nodes.
    NodePool pool;
    // Membership-only map: lookups and first-insert-wins inserts, never
    // iterated, so its unordered layout cannot leak into results.
    std::pmr::unordered_map<Key, Eval, Key::Hash> map ARIDE_GUARDED_BY(mu){
        &pool};
  };

  std::unique_ptr<Shard[]> shards_;
  // Striped: every pack-generation task bumps one of them per lookup.
  mutable StripedCounter hits_;
  mutable StripedCounter misses_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_AUCTION_PACK_MEMO_H_
