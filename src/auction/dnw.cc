#include "auction/dnw.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace auctionride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A pack participating in the pricing simulation.
struct SimPack {
  int32_t owner;               // requester whose Rank slot it occupies
  const PackCandidate* pack;   // members/vehicle/utility (at original bids)
};

bool Conflicts(const PackCandidate& a, const PackCandidate& b) {
  if (a.vehicle == b.vehicle) return true;
  for (int32_t m : a.members) {
    if (b.Contains(m)) return true;
  }
  return false;
}

// Descending utility with the same deterministic tie-break as RankDispatch.
// Mirrors RankDispatch's comparator, including the exact float ordering
// (epsilon ties would break strict weak ordering). Owners are unique within
// any simulated set, so this is a total order: merging two runs sorted by it
// yields exactly the sorted union.
bool RanksBefore(const SimPack& a, const SimPack& b) {
  if (a.pack->utility > b.pack->utility) return true;
  if (b.pack->utility > a.pack->utility) return false;
  return a.owner < b.owner;
}

// A Rank pack containing the priced requester r_h (S_h, Algorithm 4
// line 1), with its owner.
struct ShEntry {
  int32_t owner = -1;
  const PackCandidate* p0 = nullptr;  // the owner's best pack (contains r_h)
  const PackCandidate* p_prime =
      nullptr;       // owner's best pack excluding r_h (or null)
  Money f{-kInf};  // instance-switch bid (line 2)
};

// An S_h owner's p' pack and the owner's position in the f-sorted S_h.
struct Prime {
  SimPack sp;
  std::size_t sh_pos;
};

// Per-thread working state of one Price() call. All flags are zero between
// calls: each walk clears exactly the entries it set.
struct WalkScratch {
  std::vector<char> in_sh;          // per order: owner is in S_h
  std::vector<char> order_taken;    // per order: dispatched in this walk
  std::vector<char> vehicle_taken;  // per vehicle
  std::vector<int32_t> taken_orders, taken_vehicles;

  void Fit(std::size_t num_orders, std::size_t num_vehicles) {
    if (in_sh.size() < num_orders) {
      in_sh.resize(num_orders, 0);
      order_taken.resize(num_orders, 0);
    }
    if (vehicle_taken.size() < num_vehicles) {
      vehicle_taken.resize(num_vehicles, 0);
    }
  }
};

// Prices requesters of one Rank dispatch (Algorithm 4). Everything that does
// not depend on the priced requester is built once: the base ranking of
// every owner's best pack in Rank order, the order-id index, and for each
// requester the owners whose best pack contains it (S_h).
class DnWPricer {
 public:
  DnWPricer(const AuctionInstance& instance, const RankArtifacts& artifacts)
      : instance_(instance), artifacts_(artifacts) {
    const std::vector<Order>& orders = *instance.orders;
    const std::size_t m = orders.size();
    index_of_.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      index_of_.emplace(orders[j].id, static_cast<int32_t>(j));  // first wins
    }
    // Owners of each member, CSR by member, owners ascending within a row.
    owners_begin_.assign(m + 1, 0);
    for (std::size_t j = 0; j < m; ++j) {
      if (artifacts.best[j] < 0) continue;
      const PackCandidate& best = BestPack(j);
      ranking_.push_back({static_cast<int32_t>(j), &best});
      for (int32_t member : best.members) {
        ++owners_begin_[static_cast<std::size_t>(member) + 1];
      }
    }
    for (std::size_t h = 0; h < m; ++h) {
      owners_begin_[h + 1] += owners_begin_[h];
    }
    owners_.resize(static_cast<std::size_t>(owners_begin_[m]));
    std::vector<int32_t> fill(owners_begin_.begin(), owners_begin_.end() - 1);
    for (const SimPack& sp : ranking_) {
      for (int32_t member : sp.pack->members) {
        owners_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(member)]++)] = sp.owner;
      }
    }
    std::sort(ranking_.begin(), ranking_.end(), RanksBefore);
  }

  Money Price(OrderId order_id, WalkScratch* scratch) const;

 private:
  // Walks Algorithm 3's Phase II over interval k's fixed (r_h-free) packs:
  // owners outside S_h keep their best pack, owners at S_h positions >= k
  // switched to p'_j (line 6). The walk merges the base ranking (minus
  // S_h's owners, flagged in scratch->in_sh) with the included p' packs.
  // Skipped packs never change the state, so the dispatched ones form the
  // fixed sequence every r_h-pack competes against. Sets (*critical)[a],
  // for each surviving r_h-pack sh[a] (a < k), to the utility of its first
  // conflicting pack in that sequence, floored at the dispatch threshold.
  // Only first conflicts matter, so the walk stops once each has one.
  void CriticalUtilities(std::size_t k, const std::vector<ShEntry>& sh,
                         const std::vector<Prime>& primes,
                         WalkScratch* scratch,
                         std::vector<Money>* critical) const;

  const PackCandidate& BestPack(std::size_t j) const {
    return artifacts_.candidates[j]
                                [static_cast<std::size_t>(artifacts_.best[j])];
  }

  const AuctionInstance& instance_;
  const RankArtifacts& artifacts_;
  std::unordered_map<OrderId, int32_t> index_of_;  // lookups only
  std::vector<SimPack> ranking_;  // every owner's best pack, Rank order
  std::vector<int32_t> owners_begin_;
  std::vector<int32_t> owners_;
};

void DnWPricer::CriticalUtilities(std::size_t k,
                                  const std::vector<ShEntry>& sh,
                                  const std::vector<Prime>& primes,
                                  WalkScratch* scratch,
                                  std::vector<Money>* critical) const {
  const Money min_utility = instance_.config.min_utility;
  critical->assign(k, min_utility);
  std::vector<char> settled(k, 0);
  std::size_t unsettled = k;
  std::size_t next_base = 0;
  std::size_t next_prime = 0;
  while (unsettled > 0) {
    while (next_base < ranking_.size() &&
           scratch->in_sh[static_cast<std::size_t>(
               ranking_[next_base].owner)]) {
      ++next_base;
    }
    while (next_prime < primes.size() && primes[next_prime].sh_pos < k) {
      ++next_prime;
    }
    const bool base_left = next_base < ranking_.size();
    const bool prime_left = next_prime < primes.size();
    if (!base_left && !prime_left) break;
    const SimPack& sp =
        !prime_left || (base_left && RanksBefore(ranking_[next_base],
                                                 primes[next_prime].sp))
            ? ranking_[next_base++]
            : primes[next_prime++].sp;
    const PackCandidate& g = *sp.pack;
    if (g.utility < min_utility) break;
    if (scratch->vehicle_taken[static_cast<std::size_t>(g.vehicle)]) {
      continue;
    }
    bool conflict = false;
    for (int32_t member : g.members) {
      if (scratch->order_taken[static_cast<std::size_t>(member)]) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    scratch->vehicle_taken[static_cast<std::size_t>(g.vehicle)] = 1;
    scratch->taken_vehicles.push_back(g.vehicle);
    for (int32_t member : g.members) {
      scratch->order_taken[static_cast<std::size_t>(member)] = 1;
      scratch->taken_orders.push_back(member);
    }
    for (std::size_t a = 0; a < k; ++a) {
      if (settled[a] || !Conflicts(*sh[a].p0, g)) continue;
      settled[a] = 1;
      (*critical)[a] = std::max((*critical)[a], g.utility);
      --unsettled;
    }
  }
  for (int32_t v : scratch->taken_vehicles) {
    scratch->vehicle_taken[static_cast<std::size_t>(v)] = 0;
  }
  for (int32_t o : scratch->taken_orders) {
    scratch->order_taken[static_cast<std::size_t>(o)] = 0;
  }
  scratch->taken_vehicles.clear();
  scratch->taken_orders.clear();
}

Money DnWPricer::Price(OrderId order_id, WalkScratch* scratch) const {
  OBS_SCOPED_TIMER("auction.dnw.price_order_s");
  OBS_COUNTER_INC("auction.dnw.priced_orders");
  const std::vector<Order>& orders = *instance_.orders;
  const auto found = index_of_.find(order_id);
  ARIDE_ACHECK(found != index_of_.end()) << "priced order not in the instance";
  const int32_t h = found->second;
  const Money bid0 = orders[static_cast<std::size_t>(h)].bid;

  // S_h (line 1): the owners come straight from the member index.
  std::vector<ShEntry> sh;
  const auto row_begin = static_cast<std::size_t>(
      owners_begin_[static_cast<std::size_t>(h)]);
  const auto row_end = static_cast<std::size_t>(
      owners_begin_[static_cast<std::size_t>(h) + 1]);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const auto j = static_cast<std::size_t>(owners_[r]);
    ShEntry entry;
    entry.owner = owners_[r];
    entry.p0 = &BestPack(j);
    Money prime_utility{-kInf};
    for (const PackCandidate& cand : artifacts_.candidates[j]) {
      if (cand.Contains(h)) continue;
      if (cand.utility > prime_utility) {
        prime_utility = cand.utility;
        entry.p_prime = &cand;
      }
    }
    // f(pack_j): p0 remains the owner's optimum while
    // U(p0) − (bid0 − bid_h) >= U(p'), i.e. bid_h >= bid0 − (U(p0) − U(p')).
    entry.f = entry.p_prime == nullptr
                  ? Money(-kInf)
                  : bid0 - (entry.p0->utility - entry.p_prime->utility);
    sh.push_back(entry);
  }
  ARIDE_ACHECK(!sh.empty()) << "DnW called for an undispatched requester";

  // Sort by f ascending (line 3): interval k is [f_k, f_{k+1}).
  std::sort(sh.begin(), sh.end(), [](const ShEntry& a, const ShEntry& b) {
    if (a.f != b.f) return a.f < b.f;
    return a.owner < b.owner;
  });

  // The p' packs in Rank order: interval k includes the ones at S_h
  // positions >= k.
  std::vector<Prime> primes;
  for (std::size_t a = 0; a < sh.size(); ++a) {
    if (sh[a].p_prime != nullptr) {
      primes.push_back({{sh[a].owner, sh[a].p_prime}, a});
    }
  }
  std::sort(primes.begin(), primes.end(),
            [](const Prime& x, const Prime& y) {
              return RanksBefore(x.sp, y.sp);
            });

  scratch->Fit(orders.size(), instance_.vehicles->size());
  for (const ShEntry& e : sh) {
    scratch->in_sh[static_cast<std::size_t>(e.owner)] = 1;
  }
  std::vector<Money> critical;

  Money pay = bid0;  // line 4
  const std::size_t big_k = sh.size();
  for (std::size_t k = 1; k <= big_k; ++k) {  // line 5
    const Money interval_lo = sh[k - 1].f;
    const Money interval_hi = k < big_k ? sh[k].f : Money(kInf);
    // Bid-monotonicity of the instance switches: f is sorted ascending, so
    // interval k is well formed.
    ARIDE_CHECK_LE(interval_lo, interval_hi) << "interval " << k;

    CriticalUtilities(k, sh, primes, scratch, &critical);

    // For each surviving r_h-pack (a <= k), the smallest bid to dispatch it
    // (lines 8-14). Its utility at bid b is U0 − (bid0 − b); it is dispatched
    // iff that utility reaches the first conflicting pack of the fixed
    // sequence (ties go to the priced pack) and the dispatch threshold.
    for (std::size_t a = 0; a < k; ++a) {
      Money bid_a = bid0 - sh[a].p0->utility + critical[a];  // line 9
      bid_a = std::max(bid_a, Money(0.0));
      if (bid_a < interval_lo) bid_a = interval_lo;  // line 10
      if (bid_a < interval_hi) {                     // lines 11-13
        pay = std::min(pay, bid_a);
      }
    }
    // line 15: later intervals only yield more. pay starts at bid0 and is
    // only ever lowered, so "pay was reduced" is exactly pay < bid0.
    if (pay < bid0) break;
  }
  for (const ShEntry& e : sh) {
    scratch->in_sh[static_cast<std::size_t>(e.owner)] = 0;
  }
  // Individual rationality at the pricing source: the critical payment is
  // initialized to bid0 and only lowered, and every candidate bid is
  // clamped at 0, so pay ∈ [0, bid0] holds before the defensive clamp.
  ARIDE_CHECK_GE(pay, Money(0)) << "order " << order_id;
  ARIDE_CHECK_LE(pay, bid0) << "order " << order_id;
  return std::clamp(pay, Money(0.0), bid0);
}

}  // namespace

Money DnWPriceOrder(const AuctionInstance& instance,
                     const RankArtifacts& artifacts, OrderId order_id) {
  WalkScratch scratch;
  return DnWPricer(instance, artifacts).Price(order_id, &scratch);
}

std::vector<Payment> DnWPriceAll(const AuctionInstance& instance,
                                 const RankArtifacts& artifacts,
                                 const DispatchResult& dispatch,
                                 ThreadPool* pool) {
  const DnWPricer pricer(instance, artifacts);
  std::vector<Payment> payments(dispatch.assignments.size());
  ParallelForOrSerial(pool, payments.size(), [&](std::size_t i) {
    // Reused across this thread's orders (and calls): the walk leaves its
    // flags cleared, so only the first order on a thread allocates.
    thread_local WalkScratch scratch;
    const OrderId id = dispatch.assignments[i].order;
    payments[i] = {id, pricer.Price(id, &scratch)};
  });
  return payments;
}

}  // namespace auctionride
