#include "roadnet/contraction_hierarchy.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"

namespace auctionride {

namespace {

// Workspace for the local witness searches run during contraction.
struct WitnessSearcher {
  explicit WitnessSearcher(NodeId n)
      : dist(static_cast<std::size_t>(n), kInfDistance),
        generation_of(static_cast<std::size_t>(n), 0) {}

  struct Entry {
    double d;
    NodeId node;
    bool operator>(const Entry& o) const { return d > o.d; }
  };

  double& Dist(NodeId n) {
    if (generation_of[n] != generation) {
      generation_of[n] = generation;
      dist[n] = kInfDistance;
    }
    return dist[n];
  }

  std::vector<double> dist;
  std::vector<uint32_t> generation_of;
  uint32_t generation = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
};

}  // namespace

ContractionHierarchy::ContractionHierarchy(const RoadNetwork* network,
                                           int witness_settle_limit) {
  ARIDE_ACHECK(network != nullptr);
  ARIDE_ACHECK(network->built());
  ARIDE_ACHECK(witness_settle_limit > 0);
  num_nodes_ = network->num_nodes();

  // Dynamic adjacency used during contraction: original arcs + shortcuts.
  // Parallel arcs are deduplicated keeping the minimum weight. Contracting
  // a node erases its arcs from its neighbours' lists, so the lists of
  // uncontracted nodes only ever name uncontracted nodes.
  const NodeId n = num_nodes_;
  std::vector<std::vector<UpArc>> out_adj(n), in_adj(n);
  for (NodeId u = 0; u < n; ++u) {
    for (const Arc& a : network->OutArcs(u)) {
      if (a.head == u) continue;  // self loops never help shortest paths
      out_adj[u].push_back({a.head, a.length_m});
      in_adj[a.head].push_back({u, a.length_m});
    }
  }
  auto dedup = [](std::vector<UpArc>& arcs) {
    std::sort(arcs.begin(), arcs.end(), [](const UpArc& a, const UpArc& b) {
      return a.head < b.head || (a.head == b.head && a.weight < b.weight);
    });
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const UpArc& a, const UpArc& b) {
                             return a.head == b.head;
                           }),
               arcs.end());
  };
  for (NodeId u = 0; u < n; ++u) {
    dedup(out_adj[u]);
    dedup(in_adj[u]);
  }

  std::vector<char> contracted(n, 0);
  std::vector<int32_t> deleted_neighbors(n, 0);
  rank_.assign(n, 0);
  WitnessSearcher witness(n);

  // Runs witness searches for contracting `v` and fills `out` with the
  // shortcuts needed. A shortcut u->w is needed iff the shortest u->w path
  // bypassing v is longer than d(u,v)+d(v,w). The witness search is capped;
  // on cap we conservatively add the shortcut (correct, possibly redundant).
  auto shortcuts_for = [&](NodeId v,
                           std::vector<std::pair<NodeId, UpArc>>* out) {
    out->clear();
    // The cap for witness searches.
    double max_out = 0;
    for (const UpArc& a : out_adj[v]) max_out = std::max(max_out, a.weight);
    if (out_adj[v].empty()) return;

    for (const UpArc& in : in_adj[v]) {
      const NodeId u = in.head;
      const double cap = in.weight + max_out;

      // Local Dijkstra from u avoiding v over uncontracted nodes.
      ++witness.generation;
      ARIDE_ACHECK(witness.generation != 0);
      witness.queue = {};
      witness.Dist(u) = 0;
      witness.queue.push({0, u});
      int settled = 0;
      while (!witness.queue.empty() && settled < witness_settle_limit) {
        const auto [d, x] = witness.queue.top();
        witness.queue.pop();
        if (d > witness.Dist(x)) continue;
        if (d > cap) break;
        ++settled;
        for (const UpArc& a : out_adj[x]) {
          if (a.head == v) continue;
          const double nd = d + a.weight;
          if (nd < witness.Dist(a.head)) {
            witness.Dist(a.head) = nd;
            witness.queue.push({nd, a.head});
          }
        }
      }

      for (const UpArc& outa : out_adj[v]) {
        const NodeId w = outa.head;
        if (w == u) continue;
        const double via = in.weight + outa.weight;
        const double alt = witness.generation_of[w] == witness.generation
                               ? witness.dist[w]
                               : kInfDistance;
        if (alt <= via) continue;  // witness found
        out->push_back({u, {w, via}});
      }
    }
  };

  // Priority of `v`; leaves v's shortcuts in `shortcuts`, so contracting v
  // right after its priority check needs no second round of witness
  // searches.
  std::vector<std::pair<NodeId, UpArc>> shortcuts;
  auto priority_of = [&](NodeId v) -> int64_t {
    shortcuts_for(v, &shortcuts);
    const auto added = static_cast<int64_t>(shortcuts.size());
    const auto degree =
        static_cast<int64_t>(out_adj[v].size() + in_adj[v].size());
    return 2 * (added - degree) + deleted_neighbors[v];
  };
  // Stable erase, so the surviving arcs keep their order.
  auto erase_arcs_to = [](std::vector<UpArc>& arcs, NodeId head) {
    std::erase_if(arcs, [head](const UpArc& a) { return a.head == head; });
  };

  struct PQEntry {
    int64_t priority;
    NodeId node;
    bool operator>(const PQEntry& o) const { return priority > o.priority; }
  };
  std::priority_queue<PQEntry, std::vector<PQEntry>, std::greater<PQEntry>>
      order_queue;
  for (NodeId v = 0; v < n; ++v) order_queue.push({priority_of(v), v});

  int32_t next_rank = 0;
  while (!order_queue.empty()) {
    const auto [prio, v] = order_queue.top();
    order_queue.pop();
    if (contracted[v]) continue;
    // Lazy update: recompute; if the node is no longer the minimum, requeue.
    const int64_t fresh = priority_of(v);
    if (!order_queue.empty() && fresh > order_queue.top().priority) {
      order_queue.push({fresh, v});
      continue;
    }

    contracted[v] = 1;
    rank_[v] = next_rank++;
    for (const UpArc& a : out_adj[v]) {
      ++deleted_neighbors[a.head];
      erase_arcs_to(in_adj[a.head], v);
    }
    for (const UpArc& a : in_adj[v]) {
      ++deleted_neighbors[a.head];
      erase_arcs_to(out_adj[a.head], v);
    }
    for (const auto& [u, arc] : shortcuts) {
      // Keep only the cheapest parallel arc.
      bool replaced = false;
      for (UpArc& existing : out_adj[u]) {
        if (existing.head == arc.head) {
          existing.weight = std::min(existing.weight, arc.weight);
          replaced = true;
          break;
        }
      }
      if (!replaced) out_adj[u].push_back(arc);
      replaced = false;
      for (UpArc& existing : in_adj[arc.head]) {
        if (existing.head == u) {
          existing.weight = std::min(existing.weight, arc.weight);
          replaced = true;
          break;
        }
      }
      if (!replaced) in_adj[arc.head].push_back({u, arc.weight});
      ++num_shortcuts_;
    }
  }

  // Freeze the upward graphs into CSR form. A contracted node's lists were
  // final when it was contracted and hold exactly its upward arcs.
  up_out_begin_.assign(n + 1, 0);
  up_in_begin_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    up_out_begin_[u + 1] = up_out_begin_[u] +
                           static_cast<int64_t>(out_adj[u].size());
    up_in_begin_[u + 1] = up_in_begin_[u] +
                          static_cast<int64_t>(in_adj[u].size());
  }
  up_out_arcs_.reserve(static_cast<std::size_t>(up_out_begin_[n]));
  up_in_arcs_.reserve(static_cast<std::size_t>(up_in_begin_[n]));
  for (NodeId u = 0; u < n; ++u) {
    up_out_arcs_.insert(up_out_arcs_.end(), out_adj[u].begin(),
                        out_adj[u].end());
    up_in_arcs_.insert(up_in_arcs_.end(), in_adj[u].begin(), in_adj[u].end());
  }
}

}  // namespace auctionride
