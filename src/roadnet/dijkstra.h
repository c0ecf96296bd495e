// Dijkstra shortest-path searches over a RoadNetwork.
//
// DijkstraSearch keeps reusable buffers with generation-stamped labels, so a
// single instance can run many queries without re-allocating. It is the
// reference oracle against which the contraction-hierarchy and A*
// implementations are tested.

#ifndef AUCTIONRIDE_ROADNET_DIJKSTRA_H_
#define AUCTIONRIDE_ROADNET_DIJKSTRA_H_

#include <limits>
#include <queue>
#include <vector>

#include "roadnet/graph.h"

namespace auctionride {

constexpr double kInfDistance = std::numeric_limits<double>::infinity();

class DijkstraSearch {
 public:
  /// The network must outlive this object and be Build()-frozen.
  explicit DijkstraSearch(const RoadNetwork* network);

  /// Shortest distance from `source` to `target` in meters, kInfDistance if
  /// unreachable. Stops as soon as `target` is settled.
  double ShortestDistance(NodeId source, NodeId target);

  /// Shortest path from source to target as a node sequence (inclusive of
  /// both ends). Empty when unreachable.
  std::vector<NodeId> ShortestPath(NodeId source, NodeId target);

 private:
  struct QueueEntry {
    double dist;
    NodeId node;
    bool operator>(const QueueEntry& o) const { return dist > o.dist; }
  };

  // Resets labels lazily via generation counters.
  void BeginQuery();
  double& Dist(NodeId n);

  const RoadNetwork* network_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;
  std::vector<uint32_t> generation_of_;
  uint32_t generation_ = 0;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ROADNET_DIJKSTRA_H_
