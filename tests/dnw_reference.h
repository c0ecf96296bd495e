// Test-only reference for DnW pricing (Algorithm 4): the direct
// interval-by-interval simulation. For every interval it copies the fixed
// (r_h-free) packs, sorts them into Rank order, replays Phase II in full and
// scans the dispatched sequence for each surviving r_h-pack's first
// conflict. src/auction/dnw.cc computes the same payments from one shared
// ranking per dispatch with an early-stopping merge walk; tests assert the
// two agree bit for bit.

#ifndef AUCTIONRIDE_TESTS_DNW_REFERENCE_H_
#define AUCTIONRIDE_TESTS_DNW_REFERENCE_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "auction/rank.h"
#include "auction/types.h"
#include "common/check.h"

namespace auctionride {
namespace dnw_reference {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// A pack participating in the pricing simulation.
struct SimPack {
  int32_t owner;               // requester whose Rank slot it occupies
  const PackCandidate* pack;   // members/vehicle/utility (at original bids)
};

inline bool Conflicts(const PackCandidate& a, const PackCandidate& b) {
  if (a.vehicle == b.vehicle) return true;
  for (int32_t m : a.members) {
    if (b.Contains(m)) return true;
  }
  return false;
}

// Descending utility with the same deterministic tie-break as RankDispatch.
inline void SortRanking(std::vector<SimPack>* packs) {
  std::sort(packs->begin(), packs->end(),
            [](const SimPack& a, const SimPack& b) {
              // Mirrors RankDispatch's comparator, including the exact float
              // ordering (epsilon ties would break strict weak ordering).
              if (a.pack->utility > b.pack->utility) return true;
              if (b.pack->utility > a.pack->utility) return false;
              return a.owner < b.owner;
            });
}

// Simulates Algorithm 3's Phase II on r_h-free packs only and returns the
// dispatched ones in dispatch order. Packs that are skipped never change the
// state, so this sequence is what any pack containing r_h competes against.
inline std::vector<const PackCandidate*> SimulateFixedDispatch(
    std::vector<SimPack> packs, Money min_utility,
    std::size_t num_orders, std::size_t num_vehicles) {
  SortRanking(&packs);
  std::vector<char> order_taken(num_orders, 0);
  std::vector<char> vehicle_taken(num_vehicles, 0);
  std::vector<const PackCandidate*> dispatched;
  for (const SimPack& sp : packs) {
    if (sp.pack->utility < min_utility) break;
    if (vehicle_taken[static_cast<std::size_t>(sp.pack->vehicle)]) continue;
    bool conflict = false;
    for (int32_t m : sp.pack->members) {
      if (order_taken[static_cast<std::size_t>(m)]) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    vehicle_taken[static_cast<std::size_t>(sp.pack->vehicle)] = 1;
    for (int32_t m : sp.pack->members) {
      order_taken[static_cast<std::size_t>(m)] = 1;
    }
    dispatched.push_back(sp.pack);
  }
  return dispatched;
}

inline Money ReferenceDnWPriceOrder(const AuctionInstance& instance,
                                    const RankArtifacts& artifacts,
                                    OrderId order_id) {
  const std::vector<Order>& orders = *instance.orders;
  int32_t h = -1;
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (orders[j].id == order_id) {
      h = static_cast<int32_t>(j);
      break;
    }
  }
  ARIDE_ACHECK(h >= 0) << "priced order not in the instance";
  const Money bid0 = orders[static_cast<std::size_t>(h)].bid;

  // S_h: Rank packs containing r_h, with their owners (Algorithm 4 line 1).
  struct ShEntry {
    int32_t owner = -1;
    const PackCandidate* p0 = nullptr;  // the owner's best pack (contains r_h)
    const PackCandidate* p_prime =
        nullptr;       // owner's best pack excluding r_h (or null)
    Money f{-kInf};  // instance-switch bid (line 2)
  };
  std::vector<ShEntry> sh;
  for (std::size_t j = 0; j < orders.size(); ++j) {
    if (artifacts.best[j] < 0) continue;
    const PackCandidate& best =
        artifacts.candidates[j][static_cast<std::size_t>(artifacts.best[j])];
    if (!best.Contains(h)) continue;
    ShEntry entry;
    entry.owner = static_cast<int32_t>(j);
    entry.p0 = &best;
    entry.p_prime = nullptr;
    Money prime_utility{-kInf};
    for (const PackCandidate& cand : artifacts.candidates[j]) {
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

  Money pay = bid0;  // line 4
  const std::size_t big_k = sh.size();
  for (std::size_t k = 1; k <= big_k; ++k) {  // line 5
    const Money interval_lo = sh[k - 1].f;
    const Money interval_hi = k < big_k ? sh[k].f : Money(kInf);
    // Bid-monotonicity of the instance switches: f is sorted ascending, so
    // interval k is well formed.
    ARIDE_CHECK_LE(interval_lo, interval_hi) << "interval " << k;

    // Fixed (r_h-free) packs of this interval: owners outside S_h keep their
    // best pack; owners in S_h with index > k switched to p'_j (line 6).
    std::vector<SimPack> fixed;
    fixed.reserve(orders.size());
    std::vector<char> in_sh(orders.size(), 0);
    for (const ShEntry& e : sh) {
      in_sh[static_cast<std::size_t>(e.owner)] = 1;
    }
    for (std::size_t j = 0; j < orders.size(); ++j) {
      if (in_sh[j]) continue;
      if (artifacts.best[j] < 0) continue;
      fixed.push_back(
          {static_cast<int32_t>(j),
           &artifacts.candidates[j]
                                [static_cast<std::size_t>(artifacts.best[j])]});
    }
    for (std::size_t a = k; a < big_k; ++a) {
      if (sh[a].p_prime != nullptr) {
        fixed.push_back({sh[a].owner, sh[a].p_prime});
      }
    }

    const std::vector<const PackCandidate*> sequence = SimulateFixedDispatch(
        std::move(fixed), instance.config.min_utility, orders.size(),
        instance.vehicles->size());

    // For each surviving r_h-pack (a <= k), the smallest bid to dispatch it
    // (lines 8-14). Its utility at bid b is U0 − (bid0 − b); it is dispatched
    // iff that utility reaches the first conflicting pack of `sequence`
    // (ties go to the priced pack) and the dispatch threshold.
    for (std::size_t a = 0; a < k; ++a) {
      const PackCandidate& q = *sh[a].p0;
      Money critical_utility = instance.config.min_utility;
      for (const PackCandidate* g : sequence) {
        if (Conflicts(q, *g)) {
          critical_utility = std::max(critical_utility, g->utility);
          break;
        }
      }
      Money bid_a = bid0 - q.utility + critical_utility;  // line 9
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
  // Individual rationality at the pricing source: the critical payment is
  // initialized to bid0 and only lowered, and every candidate bid is
  // clamped at 0, so pay ∈ [0, bid0] holds before the defensive clamp.
  ARIDE_CHECK_GE(pay, Money(0)) << "order " << order_id;
  ARIDE_CHECK_LE(pay, bid0) << "order " << order_id;
  return std::clamp(pay, Money(0.0), bid0);
}

/// Reference payments for every requester dispatched in `dispatch`, in
/// assignment order (the layout DnWPriceAll returns).
inline std::vector<Payment> ReferenceDnWPriceAll(
    const AuctionInstance& instance, const RankArtifacts& artifacts,
    const DispatchResult& dispatch) {
  std::vector<Payment> payments;
  for (const Assignment& a : dispatch.assignments) {
    payments.push_back(
        {a.order, ReferenceDnWPriceOrder(instance, artifacts, a.order)});
  }
  return payments;
}

}  // namespace dnw_reference
}  // namespace auctionride

#endif  // AUCTIONRIDE_TESTS_DNW_REFERENCE_H_
