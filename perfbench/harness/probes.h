// Layer probes of the traced run: calls into one layer at a time on inputs
// drawn from the workload, timed from outside.
//
//   * Split round: RankDispatch, DnWPriceAll and VerifyDispatch +
//     VerifyPayments timed separately on one single-round instance, on a
//     freshly built oracle (empty cache, as in a fig8_round round).
//   * BestInsertion on a fixed sample of (vehicle, order) pairs; the
//     vehicles carry the plans the split round's dispatch gave them.
//   * Distance on a fixed sample of node pairs, once on a fresh oracle
//     (cold: every pair misses) and again on the same oracle (warm: every
//     pair hits), plus one DistanceBatch pass over the warm sample.

#ifndef AUCTIONRIDE_PERFBENCH_PROBES_H_
#define AUCTIONRIDE_PERFBENCH_PROBES_H_

#include <vector>

#include "auction/types.h"
#include "exec/thread_pool.h"
#include "report.h"
#include "roadnet/graph.h"

namespace auctionride {
namespace perfbench {

struct ProbeInput {
  const RoadNetwork* network = nullptr;
  // Single-round instance (original bids; the charge ratio is applied the
  // way RunMechanism applies it).
  std::vector<Order> orders;
  std::vector<Vehicle> vehicles;
  Seconds now_s;
  AuctionConfig config;
  ThreadPool* pool = nullptr;  // dispatch and pricing
  uint64_t seed = 1;
  bool tiny = false;  // test scale: a tenth of the samples
};

/// Runs every probe under `spans` and adds its per-layer metrics. A failed
/// verification is reported in `out` (problems, correct = false).
void RunLayerProbes(const ProbeInput& input, SpanRecorder* spans,
                    RunOutput* out);

}  // namespace perfbench
}  // namespace auctionride

#endif  // AUCTIONRIDE_PERFBENCH_PROBES_H_
