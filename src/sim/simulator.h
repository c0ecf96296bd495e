// Round-based ridesharing simulation (paper §V-A).
//
// Orders are issued at their recorded timestamps; undispatched orders pend
// to the next round and are dropped after 5 minutes. Vehicles come online at
// their recorded locations, random-walk over the road network while idle,
// and follow their travel plans (shortest paths, constant speed) when
// dispatched. Every `round_duration_s` the configured mechanism runs on the
// pending orders and online vehicles; accepted plans are applied and
// payments accounted.
//
// A simulation is a replay through the dispatch engine (engine/engine.h):
// orders are submitted as their issue times come due, rounds are stepped to
// the horizon, and deliveries drain. The default single shard runs the
// paper's one batched auction per round; more shards partition the city.

#ifndef AUCTIONRIDE_SIM_SIMULATOR_H_
#define AUCTIONRIDE_SIM_SIMULATOR_H_

#include "engine/engine.h"
#include "engine/result.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

namespace auctionride {

/// Replays `workload` through a fresh Engine and returns the aggregate
/// result. The oracle (and its network) and the workload must outlive the
/// call; orders must be sorted by issue time with dense ids (the generator
/// contract).
SimResult RunSimulation(const DistanceOracle* oracle, const Workload& workload,
                        const EngineOptions& options);

}  // namespace auctionride

#endif  // AUCTIONRIDE_SIM_SIMULATOR_H_
