// Hub labels (Abraham, Delling, Goldberg, Werneck, "Hierarchical Hub
// Labelings for Shortest Paths", ESA 2012) built from a contraction
// hierarchy: exact point-to-point distances as a merge of two sorted lists.
//
// Every node v carries a forward label, the nodes ("hubs") its upward
// search over ContractionHierarchy::UpOut reaches with the search's
// distance to each, and a backward label from the upward search over
// UpIn. d(s, t) is the minimum over hubs h common to both lists of
// forward(s)[h] + backward(t)[h]: the highest node of a shortest s-t path
// is in both.
//
// Each label distance is the sum a bidirectional CH query forms, arc
// weights added left to right from the node, so every answer is
// bit-identical to that query (roadnet_test keeps an unstalled one as the
// reference). Deriving a label from its neighbours' labels would sum in
// another order and change the bits.
//
// Labels are pruned while they are built. Levels run top-down (a node's
// level is one more than the deepest of its upward neighbours, so every
// node an upward search reaches sits on a finished level), and a search
// drops a node u, neither labelling nor relaxing it, when u's finished
// opposite label plus the search's tentative distances already give a
// strictly shorter path. Nodes of one level depend only on finished levels
// and are built in parallel; the labels are the same at any thread count.
//
// Storage is struct-of-arrays, 12 bytes per entry (int32 hub + double
// distance), one exact-size block per level and direction. The labels are
// immutable after construction: Distance() may be called from any thread.

#ifndef AUCTIONRIDE_ROADNET_HUB_LABELS_H_
#define AUCTIONRIDE_ROADNET_HUB_LABELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "roadnet/contraction_hierarchy.h"
#include "roadnet/graph.h"

namespace auctionride {

class HubLabels {
 public:
  /// Builds both directions' labels; `ch` is only read during construction.
  explicit HubLabels(const ContractionHierarchy& ch);

  HubLabels(const HubLabels&) = delete;
  HubLabels& operator=(const HubLabels&) = delete;

  /// Exact shortest distance in meters; kInfDistance if unreachable.
  double Distance(NodeId source, NodeId target) const {
    if (source == target) return 0;
    const Label& f = forward_.labels[source];
    const Label& b = backward_.labels[target];
    double best = kInfDistance;
    int32_t i = 0;
    int32_t j = 0;
    while (i < f.size && j < b.size) {
      if (f.hubs[i] < b.hubs[j]) {
        ++i;
      } else if (f.hubs[i] > b.hubs[j]) {
        ++j;
      } else {
        best = std::min(best, f.dists[i] + b.dists[j]);
        ++i;
        ++j;
      }
    }
    return best;
  }

  int num_levels() const { return num_levels_; }
  /// Label entries over all nodes, both directions.
  int64_t num_entries() const { return num_entries_; }
  /// Heap bytes held by the labels and their per-node index.
  std::size_t bytes() const;

 private:
  // One node's label: `size` hubs in ascending order, with their distances.
  struct Label {
    const int32_t* hubs = nullptr;
    const double* dists = nullptr;
    int32_t size = 0;
  };
  struct Side {
    std::vector<Label> labels;  // per node, into the level blocks below
    std::vector<std::vector<int32_t>> hub_blocks;  // one per level
    std::vector<std::vector<double>> dist_blocks;  // one per level
  };

  Side forward_;
  Side backward_;
  int num_levels_ = 0;
  int64_t num_entries_ = 0;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ROADNET_HUB_LABELS_H_
