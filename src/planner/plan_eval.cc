#include "planner/plan_eval.h"

#include "common/check.h"

namespace auctionride {

PlanEvaluation EvaluatePlan(const Vehicle& vehicle,
                            std::span<const PlanStop> stops, Seconds now_s,
                            MetersPerSecond speed_mps,
                            const LegSource& legs) {
#if ARIDE_CONTRACTS_ENABLED
  {
    TravelPlan check;
    check.stops.assign(stops.begin(), stops.end());
    ARIDE_CHECK(check.PrecedenceHolds()) << "vehicle " << vehicle.id;
  }
  ARIDE_CHECK_GT(speed_mps, MetersPerSecond(0));
  ARIDE_CHECK_GE(vehicle.extra_distance_m, Meters(0)) << "vehicle " << vehicle.id;
  ARIDE_CHECK_GE(vehicle.onboard, 0) << "vehicle " << vehicle.id;
  ARIDE_CHECK_LE(vehicle.onboard, vehicle.capacity)
      << "vehicle " << vehicle.id;
#endif
  PlanEvaluation eval;
  eval.feasible = true;

  PlanWalkState st = InitialPlanWalkState(vehicle, now_s, speed_mps);
  NodeId prev = vehicle.next_node;
  for (const PlanStop& stop : stops) {
    const StopAdvance adv =
        AdvancePlanStop(st, legs.LegDistance(prev, stop.node), stop,
                        vehicle.capacity, speed_mps, kDeadlineEpsilonS);
    if (adv != StopAdvance::kOk) {
      eval.feasible = false;
      break;
    }
    prev = stop.node;
  }

  eval.total_distance_m = st.total_m;
  eval.delivery_distance_m = st.delivery_m;
  eval.completion_time_s = st.clock_s;
  return eval;
}

PlanEvaluation EvaluatePlan(const Vehicle& vehicle,
                            std::span<const PlanStop> stops, Seconds now_s,
                            const DistanceOracle& oracle) {
  return EvaluatePlan(vehicle, stops, now_s, oracle.speed_mps(),
                      OracleLegSource(oracle));
}

}  // namespace auctionride
