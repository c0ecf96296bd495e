// Travel-plan evaluation: arrival times, feasibility against Definition 4
// (precedence, capacity, time/deadline constraints), and delivery distance.

#ifndef AUCTIONRIDE_PLANNER_PLAN_EVAL_H_
#define AUCTIONRIDE_PLANNER_PLAN_EVAL_H_

#include <span>

#include "common/units.h"

#include "model/vehicle.h"
#include "roadnet/oracle.h"

namespace auctionride {

/// Tolerance granted past a deadline before an arrival counts as late:
/// absorbs the round-off of the clock accumulation so that re-evaluating an
/// unchanged committed plan can never flip feasible -> infeasible.
inline constexpr Seconds kDeadlineEpsilonS{1e-9};

/// Source of per-leg road distances for plan evaluation. Production code
/// always walks plans against the DistanceOracle; this seam exists so tests
/// can feed corrupted legs (NaN, negative, infinite) and pin down how the
/// evaluator defends against a misbehaving oracle.
class LegSource {
 public:
  virtual ~LegSource() = default;
  /// Road distance in meters from `from` to `to`; kInfDistance when
  /// unreachable. Raw double: this mirrors DistanceOracle::Distance().
  virtual double LegDistance(NodeId from, NodeId to) const = 0;
};

/// The production LegSource: forwards to DistanceOracle::Distance().
class OracleLegSource final : public LegSource {
 public:
  explicit OracleLegSource(const DistanceOracle& oracle) : oracle_(oracle) {}
  double LegDistance(NodeId from, NodeId to) const override {
    return oracle_.Distance(from, to);
  }

 private:
  const DistanceOracle& oracle_;
};

struct PlanEvaluation {
  bool feasible = false;
  // Total distance from the vehicle's position through every stop.
  Meters total_distance_m;
  // Distance that counts toward D_i: everything after the first pickup (all
  // of it when the vehicle is already in its delivery phase).
  Meters delivery_distance_m;
  // Completion time of the last stop, absolute.
  Seconds completion_time_s;
};

/// Walk state after some prefix of a plan's stops. Trivially copyable by
/// design: the insertion planner snapshots one of these per prefix into SoA
/// scratch and resumes candidate evaluation from the snapshot instead of
/// re-walking the shared prefix, which is what makes incremental insertion
/// bit-identical to the from-scratch walk — both run the exact same
/// floating-point operation sequence on the exact same values.
struct PlanWalkState {
  Seconds clock_s;
  Meters total_m;
  Meters delivery_m;
  int onboard = 0;
  bool in_delivery = false;
};

/// Outcome of advancing the walk across one leg + stop.
enum class StopAdvance {
  kOk,
  kUnreachable,  // leg not finite (disconnected or corrupted oracle)
  kCapacity,     // pickup would exceed vehicle capacity
  kPrecedence,   // drop-off without a matching onboard rider
  kDeadline,     // arrival past the stop's deadline (+ slack)
};

/// The walk state before the first stop: the vehicle finishes its committed
/// current arc (extra_distance_m) first. Bitwise-identical to the prologue
/// EvaluatePlan has always run.
inline PlanWalkState InitialPlanWalkState(const Vehicle& vehicle,
                                          Seconds now_s,
                                          MetersPerSecond speed_mps) {
  PlanWalkState st;
  st.clock_s = now_s + vehicle.extra_distance_m / speed_mps;
  st.total_m = vehicle.extra_distance_m;
  st.onboard = vehicle.onboard;
  // A vehicle committed to in-flight riders is in delivery regardless of
  // the flag the caller set; keep the two consistent defensively.
  st.in_delivery = vehicle.in_delivery || vehicle.onboard > 0;
  if (st.in_delivery) st.delivery_m += vehicle.extra_distance_m;
  return st;
}

/// Advances `st` across one leg and the stop at its end. This is THE plan
/// walk step: EvaluatePlan and the insertion planner both run it, so its
/// floating-point operation sequence (accumulate leg, then check) is the
/// single definition of plan feasibility. `deadline_slack_s` is the
/// tolerance added to deadlines — kDeadlineEpsilonS for exact evaluation,
/// larger for conservative lower-bound prefilters.
///
/// Deadline contract: drop-offs always carry a real deadline and are always
/// checked. Pickups default to the Seconds(0) no-deadline sentinel and are
/// checked only when a caller sets a positive deadline (pinned by
/// planner_test).
inline StopAdvance AdvancePlanStop(PlanWalkState& st,
                                   // Raw on purpose: compared against the
                                   // geometry layer's kInfDistance sentinel
                                   // before promotion into the typed
                                   // accumulators.
                                   double leg_m,  // NOLINT-ARIDE(raw-unit-double)
                                   const PlanStop& stop, int capacity,
                                   MetersPerSecond speed_mps,
                                   Seconds deadline_slack_s) {
  // Rejects +inf (unreachable) AND NaN (corrupted source): NaN compares
  // false to everything, so the historical `leg_m == kInfDistance` check
  // silently let NaN poison every accumulator downstream.
  if (!(leg_m < kInfDistance)) return StopAdvance::kUnreachable;
  st.total_m += Meters(leg_m);
  if (st.in_delivery) st.delivery_m += Meters(leg_m);
  st.clock_s += Meters(leg_m) / speed_mps;

  if (stop.type == StopType::kPickup) {
    ++st.onboard;
    if (st.onboard > capacity) return StopAdvance::kCapacity;
    st.in_delivery = true;  // delivery phase begins at the first pickup
    if (stop.deadline_s > Seconds(0) &&
        st.clock_s > stop.deadline_s + deadline_slack_s) {
      return StopAdvance::kDeadline;
    }
  } else {
    --st.onboard;
    if (st.onboard < 0) return StopAdvance::kPrecedence;
    if (st.clock_s > stop.deadline_s + deadline_slack_s) {
      return StopAdvance::kDeadline;
    }
  }
  return StopAdvance::kOk;
}

/// Evaluates `stops` as the prospective plan of `vehicle` starting at time
/// `now_s`. Checks capacity at every stage and each drop-off deadline;
/// `feasible` is false on any violation (the distance fields are still
/// filled for the prefix walked). Precedence is the caller's structural
/// responsibility (checked in debug builds).
PlanEvaluation EvaluatePlan(const Vehicle& vehicle,
                            std::span<const PlanStop> stops, Seconds now_s,
                            const DistanceOracle& oracle);

/// As above, but sourcing legs from an arbitrary LegSource (tests inject
/// corrupted legs here; production callers use the oracle overload, which
/// is exactly this with OracleLegSource).
PlanEvaluation EvaluatePlan(const Vehicle& vehicle,
                            std::span<const PlanStop> stops, Seconds now_s,
                            MetersPerSecond speed_mps,
                            const LegSource& legs);

}  // namespace auctionride

#endif  // AUCTIONRIDE_PLANNER_PLAN_EVAL_H_
