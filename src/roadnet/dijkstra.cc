#include "roadnet/dijkstra.h"

#include <algorithm>

#include "common/check.h"

namespace auctionride {

DijkstraSearch::DijkstraSearch(const RoadNetwork* network)
    : network_(network) {
  ARIDE_ACHECK(network != nullptr);
  ARIDE_ACHECK(network->built());
  const auto n = static_cast<std::size_t>(network->num_nodes());
  dist_.assign(n, kInfDistance);
  parent_.assign(n, kInvalidNode);
  generation_of_.assign(n, 0);
}

void DijkstraSearch::BeginQuery() {
  ++generation_;
  ARIDE_ACHECK(generation_ != 0) << "generation counter wrapped";
  queue_ = {};
}

double& DijkstraSearch::Dist(NodeId n) {
  if (generation_of_[n] != generation_) {
    generation_of_[n] = generation_;
    dist_[n] = kInfDistance;
    parent_[n] = kInvalidNode;
  }
  return dist_[n];
}

double DijkstraSearch::ShortestDistance(NodeId source, NodeId target) {
  ARIDE_DCHECK(source >= 0 && source < network_->num_nodes());
  ARIDE_DCHECK(target >= 0 && target < network_->num_nodes());
  if (source == target) return 0;
  BeginQuery();
  Dist(source) = 0;
  queue_.push({0, source});
  while (!queue_.empty()) {
    const auto [d, u] = queue_.top();
    queue_.pop();
    if (d > Dist(u)) continue;  // stale entry
    if (u == target) return d;
    for (const Arc& a : network_->OutArcs(u)) {
      const double nd = d + a.length_m;
      if (nd < Dist(a.head)) {
        Dist(a.head) = nd;
        parent_[a.head] = u;
        queue_.push({nd, a.head});
      }
    }
  }
  return kInfDistance;
}

std::vector<NodeId> DijkstraSearch::ShortestPath(NodeId source,
                                                 NodeId target) {
  const double d = ShortestDistance(source, target);
  if (d == kInfDistance) return {};
  std::vector<NodeId> path;
  if (source == target) return {source};
  for (NodeId n = target; n != kInvalidNode; n = parent_[n]) {
    path.push_back(n);
    if (n == source) break;
  }
  std::reverse(path.begin(), path.end());
  ARIDE_ACHECK(path.front() == source);
  return path;
}

}  // namespace auctionride
