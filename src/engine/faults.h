// Deterministic fault injection for the dispatch engine
// (docs/ROBUSTNESS.md).
//
// A FaultPlan decides — purely from (seed, round, entity id) hash chains —
// which busy vehicles break down, which dispatched-but-unpicked orders
// cancel, and which rounds suffer a synthetic oracle latency spike. Because
// the plan never draws from the world's Rng stream, enabling faults does
// not perturb the idle random walk, and the same seed + profile reproduces
// the exact same fault schedule regardless of thread count or mechanism.

#ifndef AUCTIONRIDE_ENGINE_FAULTS_H_
#define AUCTIONRIDE_ENGINE_FAULTS_H_

#include <cstdint>
#include <string_view>

namespace auctionride {

/// Canned fault mixes; bench and CI select one via AR_FAULT_PROFILE.
enum class FaultProfile {
  kNone,           // no faults; behavior bit-identical to a fault-free build
  kBreakdowns,     // occasional vehicle dropouts
  kCancellations,  // occasional order withdrawals
  kStorm,          // dropouts + cancellations + latency spikes + budgets
};

std::string_view FaultProfileName(FaultProfile profile);

/// Parses a profile name ("none", "breakdowns", "cancellations", "storm").
/// Returns false (leaving *out untouched) on an unknown name.
bool ParseFaultProfile(std::string_view name, FaultProfile* out);

struct FaultOptions {
  FaultProfile profile = FaultProfile::kNone;
  // Seed of the fault hash chains. Independent of EngineOptions::seed so
  // fault schedules can be varied while holding the workload/walk fixed
  // (callers pass the run seed by default).
  uint64_t seed = 1;

  // Per-round probability that an online busy vehicle goes offline,
  // stranding its undelivered orders.
  double breakdown_prob_per_round = 0;
  // Per-round probability that a dispatched, not-yet-picked-up order
  // withdraws (payment refunded, order re-enters the pending pool).
  double cancel_prob_per_round = 0;

  // Per-round probability of an oracle latency spike. During a spike round
  // every oracle query charges spike_query_penalty_s of synthetic time
  // against the round budget, driving the degradation ladder.
  double spike_prob_per_round = 0;
  double spike_query_penalty_s = 0;

  // Per-round dispatch budget in seconds; <= 0 disables budgets. With
  // wall_clock_budget the budget also counts real elapsed time (production
  // behavior, not bit-reproducible); without it only synthetic spike
  // charges count, keeping runs bit-identical for a fixed seed.
  // Knob mirrored into DispatchBudget::budget_s (same `<= 0 disables`
  // sentinel contract), so it stays a raw double with that field.
  double round_budget_s = 0;  // NOLINT-ARIDE(raw-unit-double): budget knob
  bool wall_clock_budget = false;

  /// True when any fault machinery is active (injection or budgets).
  bool any() const {
    return breakdown_prob_per_round > 0 || cancel_prob_per_round > 0 ||
           round_budget_s > 0;
  }
};

/// The canned parameter set of a profile.
FaultOptions FaultOptionsForProfile(FaultProfile profile, uint64_t seed);

/// Reads AR_FAULT_PROFILE (unset or empty means "none") and returns that
/// profile's options. Aborts on an unknown profile name — a typo silently
/// running fault-free would defeat the CI fault matrix.
FaultOptions FaultOptionsFromEnv(uint64_t seed);

/// Stateless fault schedule. All decisions are independent hash lookups, so
/// callers may query them in any order (or not at all) without shifting
/// later decisions.
class FaultPlan {
 public:
  /// Validates ranges (probabilities in [0,1], budgets/penalties >= 0).
  explicit FaultPlan(const FaultOptions& options);

  const FaultOptions& options() const { return options_; }

  bool VehicleBreaksDown(int round, int64_t vehicle_id) const;
  bool OrderCancels(int round, int64_t order_id) const;
  bool IsSpikeRound(int round) const;

 private:
  double HashUniform(uint64_t salt, int round, int64_t id) const;

  FaultOptions options_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ENGINE_FAULTS_H_
