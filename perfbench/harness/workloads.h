// The benchmark's workloads and the world set-up they share.
//
//   city_rank     engine replay, paper-scale morning peak, Rank+DnW,
//                 4 shards on a 4-worker engine pool, fault-free
//   storm_greedy  engine replay at bench scale, Greedy+GPri, one shard with
//                 4-worker dispatch and pricing pools, storm fault profile
//   fig8_round    one Fig. 8b round (5000 x 5000) through RunMechanism(kRank)
//                 with pricing on one 4-worker pool, on a cold oracle
//
// README.md gives the reason for each and the metric each layer moves.

#ifndef AUCTIONRIDE_PERFBENCH_WORKLOADS_H_
#define AUCTIONRIDE_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "auction/types.h"
#include "report.h"
#include "roadnet/graph.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

namespace auctionride {
namespace perfbench {

/// Set-up phases of one iteration, seconds.
struct SetupTimes {
  double network_s = 0;
  double ch_s = 0;
  double nearest_s = 0;
  double generate_s = 0;
  double construct_s = 0;  // engine or auction-instance construction

  double total() const {
    return network_s + ch_s + nearest_s + generate_s + construct_s;
  }
};

/// Road network, CH oracle and nearest-node index. Heap-held so the
/// oracle's pointer to the network stays valid.
struct World {
  RoadNetwork network;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<NearestNodeIndex> nearest;
};

/// Builds the Beijing-like world (fixed network seed; the workload seed
/// only drives demand), timing each phase into `times`.
std::unique_ptr<World> BuildWorld(SpanRecorder* spans, SetupTimes* times);

/// Table II defaults (the bench suite's PaperWorkload) at `orders` /
/// `vehicles`.
WorkloadOptions PaperWorkloadOptions(uint64_t seed, int orders, int vehicles,
                                     Seconds duration);

/// Generator seed of the benchmark city: hotspot layout and the demand and
/// fleet fields around it stay fixed across runs (the bench suite's
/// default seed). The run seed only draws samples from that city, so runs
/// with different seeds differ the way two days of one city do rather than
/// two different cities.
inline constexpr uint64_t kCitySeed = 42;
/// Size of the generated pool a run samples `sampled` orders or vehicles
/// from: 5/4, so two seeds share most of their inputs and differ in the
/// rest.
inline constexpr int PoolSize(int sampled) { return sampled * 5 / 4; }

/// Draws `orders` orders and `vehicles` vehicles from `pool` with `seed`,
/// keeping issue-time order, and renumbers both densely (the engine's
/// catalog contract).
Workload SampleWorkload(const Workload& pool, int orders, int vehicles,
                        uint64_t seed);

/// Table II auction defaults (the bench suite's PaperAuction).
AuctionConfig PaperAuctionConfig();

bool IsEngineWorkload(const std::string& name);
bool IsRoundWorkload(const std::string& name);

RunOutput RunEngineWorkload(const RunConfig& config);
RunOutput RunRoundWorkload(const RunConfig& config);

/// Layer counts from the global metric registry (reset before the traced
/// section): Rank pack memo, Greedy heap, pricing, anytime cut, planner,
/// CH and thread-pool counters.
void AddLayerCounters(Metrics* m);

/// Median of each set-up phase over a run's iterations.
void AddSetupMetrics(const std::vector<SetupTimes>& setups, Metrics* m);

/// Oracle accessor deltas over the traced section.
void AddOracleMetrics(int64_t queries, int64_t hits, int64_t trivial,
                      double rounds, Metrics* m);

/// Chrome trace of the traced run, written under config.out_dir.
void WriteTrace(const RunConfig& config, RunOutput* out);

}  // namespace perfbench
}  // namespace auctionride

#endif  // AUCTIONRIDE_PERFBENCH_WORKLOADS_H_
