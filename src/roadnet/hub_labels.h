// Hub labels (Abraham, Delling, Goldberg, Werneck, "Hierarchical Hub
// Labelings for Shortest Paths", ESA 2012) built from a contraction
// hierarchy: exact point-to-point distances as a merge of two sorted lists,
// or, one-to-many, as a scan of one list against the other scattered into a
// dense per-node table.
//
// Every node v carries a forward label, the nodes ("hubs") its upward
// search over ContractionHierarchy::UpOut reaches with the search's
// distance to each, and a backward label from the upward search over
// UpIn. d(s, t) is the minimum over hubs h common to both lists of
// forward(s)[h] + backward(t)[h]: the highest node of a shortest s-t path
// is in both.
//
// Distance() merges the two lists. When one endpoint is asked about many
// others, Scatter() writes its label into a dense table indexed by hub
// (+inf everywhere else) and ScanForward()/ScanBackward() answer each pair
// by walking only the other endpoint's list: the +inf slots drop the hubs
// the two labels do not share, so the scan takes the minimum over the same
// sums, formed from the same operands in the same order, as the merge, and
// returns the same bits. It has no data-dependent branch, where the merge
// picks one of three ways at every step by comparing hub ids.
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
// immutable after construction: every query may be called from any thread.

#ifndef AUCTIONRIDE_ROADNET_HUB_LABELS_H_
#define AUCTIONRIDE_ROADNET_HUB_LABELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
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

  enum class Direction { kForward, kBackward };

  /// Writes v's label of direction `dir` into `dense` (dense[hub] = dist)
  /// and returns the hubs it wrote. `dense` has a slot per node of the
  /// labels' network; the others are left as they are, and
  /// ScanForward()/ScanBackward() need them to hold +inf.
  std::span<const int32_t> Scatter(NodeId v, Direction dir,
                                   double* dense) const {
    const Label& l =
        (dir == Direction::kForward ? forward_ : backward_).labels[v];
    for (int32_t k = 0; k < l.size; ++k) dense[l.hubs[k]] = l.dists[k];
    return {l.hubs, static_cast<std::size_t>(l.size)};
  }

  /// Distance(source, t) for the t whose backward label is scattered in
  /// `dense_b`, source != t.
  double ScanForward(NodeId source, const double* dense_b) const {
    const Label& f = forward_.labels[source];
    double best = kInfDistance;
    for (int32_t k = 0; k < f.size; ++k) {
      best = std::min(best, f.dists[k] + dense_b[f.hubs[k]]);
    }
    return best;
  }

  /// Distance(s, target) for the s whose forward label is scattered in
  /// `dense_f`, s != target.
  double ScanBackward(NodeId target, const double* dense_f) const {
    const Label& b = backward_.labels[target];
    double best = kInfDistance;
    for (int32_t k = 0; k < b.size; ++k) {
      best = std::min(best, dense_f[b.hubs[k]] + b.dists[k]);
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
