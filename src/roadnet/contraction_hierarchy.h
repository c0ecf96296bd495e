// Contraction hierarchies (Geisberger et al. 2008) for fast exact
// point-to-point shortest distances on road networks.
//
// Preprocessing contracts nodes in increasing importance order, inserting
// shortcut arcs that preserve all shortest distances among the remaining
// nodes. The result is a pair of *upward* search graphs: UpOut(v) holds the
// arcs v->w to more important nodes, UpIn(v) the arcs w->v from them.
//
// Nothing queries these graphs directly: HubLabels (hub_labels.h)
// precomputes every node's upward search once and answers a query with a
// two-list merge.

#ifndef AUCTIONRIDE_ROADNET_CONTRACTION_HIERARCHY_H_
#define AUCTIONRIDE_ROADNET_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "roadnet/dijkstra.h"
#include "roadnet/graph.h"

namespace auctionride {

class ContractionHierarchy {
 public:
  /// An arc of the upward graphs: `head` is the other endpoint (the target
  /// for UpOut, the source for UpIn).
  struct UpArc {
    NodeId head;
    double weight;
  };

  /// Builds the hierarchy; the network must stay alive and unchanged.
  /// `witness_settle_limit` caps each local witness search (larger = fewer
  /// redundant shortcuts, slower preprocessing).
  explicit ContractionHierarchy(const RoadNetwork* network,
                                int witness_settle_limit = 60);

  ContractionHierarchy(const ContractionHierarchy&) = delete;
  ContractionHierarchy& operator=(const ContractionHierarchy&) = delete;

  NodeId num_nodes() const { return num_nodes_; }
  int64_t num_shortcuts() const { return num_shortcuts_; }

  /// Contraction order of `v`; higher = more important.
  int32_t rank(NodeId v) const { return rank_[v]; }

  /// Arcs v->w with rank(w) > rank(v): the forward search graph.
  std::span<const UpArc> UpOut(NodeId v) const {
    return {up_out_arcs_.data() + up_out_begin_[v],
            up_out_arcs_.data() + up_out_begin_[v + 1]};
  }
  /// Arcs w->v with rank(w) > rank(v), stored as {w, weight}: the backward
  /// search graph.
  std::span<const UpArc> UpIn(NodeId v) const {
    return {up_in_arcs_.data() + up_in_begin_[v],
            up_in_arcs_.data() + up_in_begin_[v + 1]};
  }

 private:
  NodeId num_nodes_ = 0;
  int64_t num_shortcuts_ = 0;
  std::vector<int32_t> rank_;  // contraction order; higher = more important

  // Upward search graphs in CSR form. up_out: arcs u->v with rank v > rank u
  // (forward search). up_in: reversed arcs; for node v, the sources u of
  // original arcs u->v with rank u > rank v (backward search).
  std::vector<int64_t> up_out_begin_;
  std::vector<UpArc> up_out_arcs_;
  std::vector<int64_t> up_in_begin_;
  std::vector<UpArc> up_in_arcs_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ROADNET_CONTRACTION_HIERARCHY_H_
