#include "roadnet/hub_labels.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <span>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace auctionride {

namespace {

// One chunk's search state and output. A chunk is a fixed slice of one
// level's nodes, run as a single task; chunk outputs are concatenated in
// chunk order, so the layout does not depend on which worker ran which.
struct Workspace {
  explicit Workspace(NodeId n)
      : dist(static_cast<std::size_t>(n), kInfDistance),
        generation_of(static_cast<std::size_t>(n), 0) {}

  double& Dist(NodeId x) {
    if (generation_of[x] != generation) {
      generation_of[x] = generation;
      dist[x] = kInfDistance;
    }
    return dist[x];
  }

  struct Entry {
    double d;
    NodeId node;
    bool operator>(const Entry& o) const { return d > o.d; }
  };

  std::vector<double> dist;
  std::vector<uint32_t> generation_of;
  uint32_t generation = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::vector<std::pair<int32_t, double>> found;  // one label, unsorted

  // The chunk's labels back to back, per direction (0 forward, 1 backward).
  struct Output {
    std::vector<int32_t> hubs;
    std::vector<double> dists;
    std::vector<int32_t> sizes;  // one per node of the chunk
  };
  Output out[2];
};

}  // namespace

HubLabels::HubLabels(const ContractionHierarchy& ch) {
  const WallTimer timer;
  const NodeId n = ch.num_nodes();
  forward_.labels.resize(static_cast<std::size_t>(n));
  backward_.labels.resize(static_cast<std::size_t>(n));

  // level(v) = 1 + the deepest level among v's upward neighbours in either
  // direction (0 without any), filled from the most important node down.
  std::vector<NodeId> by_rank(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) by_rank[ch.rank(v)] = v;
  std::vector<int32_t> level(static_cast<std::size_t>(n), 0);
  for (NodeId i = n - 1; i >= 0; --i) {
    const NodeId v = by_rank[i];
    for (const auto& a : ch.UpOut(v)) {
      level[v] = std::max(level[v], level[a.head] + 1);
    }
    for (const auto& a : ch.UpIn(v)) {
      level[v] = std::max(level[v], level[a.head] + 1);
    }
  }
  num_levels_ = n == 0 ? 0 : 1 + *std::max_element(level.begin(), level.end());

  // Nodes grouped by level, ascending id within a level.
  std::vector<int64_t> level_begin(static_cast<std::size_t>(num_levels_) + 1,
                                   0);
  for (NodeId v = 0; v < n; ++v) ++level_begin[level[v] + 1];
  for (int l = 0; l < num_levels_; ++l) level_begin[l + 1] += level_begin[l];
  std::vector<NodeId> by_level(static_cast<std::size_t>(n));
  {
    std::vector<int64_t> pos(level_begin.begin(), level_begin.end() - 1);
    for (NodeId v = 0; v < n; ++v) by_level[pos[level[v]]++] = v;
  }

  // Upward search from `v` in one direction, leaving its label sorted by
  // hub in the chunk's output. Every node it reaches lies on a finished
  // level, so the opposite label of each popped node is complete.
  auto search = [&ch, this](NodeId v, int dir, Workspace& ws) {
    const std::vector<Label>& opposite =
        dir == 0 ? backward_.labels : forward_.labels;
    ++ws.generation;
    ARIDE_ACHECK(ws.generation != 0);
    ws.found.clear();
    ws.Dist(v) = 0;
    ws.queue.push({0, v});
    while (!ws.queue.empty()) {
      const auto [d, u] = ws.queue.top();
      ws.queue.pop();
      if (d > ws.Dist(u)) continue;
      // Prune u when some hub h of its opposite label closes a strictly
      // shorter v -> h -> u path than the upward one just popped.
      if (u != v) {
        const Label& other = opposite[u];
        bool dominated = false;
        for (int32_t k = 0; k < other.size && !dominated; ++k) {
          const int32_t h = other.hubs[k];
          dominated = ws.generation_of[h] == ws.generation &&
                      ws.dist[h] + other.dists[k] < d;
        }
        if (dominated) continue;
      }
      ws.found.push_back({u, d});
      for (const auto& a : dir == 0 ? ch.UpOut(u) : ch.UpIn(u)) {
        const double nd = d + a.weight;
        if (nd < ws.Dist(a.head)) {
          ws.Dist(a.head) = nd;
          ws.queue.push({nd, a.head});
        }
      }
    }
    std::sort(ws.found.begin(), ws.found.end());
    Workspace::Output& out = ws.out[dir];
    for (const auto& [hub, d] : ws.found) {
      out.hubs.push_back(hub);
      out.dists.push_back(d);
    }
    out.sizes.push_back(static_cast<int32_t>(ws.found.size()));
  };

  // One chunk, and one workspace, per worker: a workspace holds two arrays
  // over all nodes.
  ThreadPool pool(std::thread::hardware_concurrency());
  const std::size_t max_chunks = pool.num_threads();
  std::vector<Workspace> workspaces(max_chunks, Workspace(n));
  for (Side* side : {&forward_, &backward_}) {
    side->hub_blocks.reserve(static_cast<std::size_t>(num_levels_));
    side->dist_blocks.reserve(static_cast<std::size_t>(num_levels_));
  }

  for (int l = 0; l < num_levels_; ++l) {
    const std::span<const NodeId> nodes(by_level.data() + level_begin[l],
                                        by_level.data() + level_begin[l + 1]);
    const std::size_t chunks = std::min(max_chunks, nodes.size());
    ParallelForOrSerial(&pool, chunks, [&](std::size_t c) {
      Workspace& ws = workspaces[c];
      for (Workspace::Output& out : ws.out) {
        out.hubs.clear();
        out.dists.clear();
        out.sizes.clear();
      }
      const std::size_t begin = nodes.size() * c / chunks;
      const std::size_t end = nodes.size() * (c + 1) / chunks;
      for (std::size_t i = begin; i < end; ++i) {
        search(nodes[i], 0, ws);
        search(nodes[i], 1, ws);
      }
    });

    // Concatenate the chunks into this level's exact-size blocks.
    for (int dir = 0; dir < 2; ++dir) {
      Side& side = dir == 0 ? forward_ : backward_;
      std::size_t total = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        total += workspaces[c].out[dir].hubs.size();
      }
      std::vector<int32_t>& hubs = side.hub_blocks.emplace_back(total);
      std::vector<double>& dists = side.dist_blocks.emplace_back(total);
      std::size_t at = 0;
      std::size_t node = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const Workspace::Output& out = workspaces[c].out[dir];
        std::copy(out.hubs.begin(), out.hubs.end(), hubs.begin() + at);
        std::copy(out.dists.begin(), out.dists.end(), dists.begin() + at);
        for (const int32_t size : out.sizes) {
          side.labels[nodes[node++]] = {hubs.data() + at, dists.data() + at,
                                        size};
          at += static_cast<std::size_t>(size);
        }
      }
      num_entries_ += static_cast<int64_t>(total);
    }
  }
  OBS_GAUGE_SET("roadnet.labels.bytes", static_cast<double>(bytes()));
  OBS_GAUGE_SET("roadnet.labels.build_s", timer.ElapsedSeconds());
}

std::size_t HubLabels::bytes() const {
  std::size_t total = 0;
  for (const Side* side : {&forward_, &backward_}) {
    total += side->labels.capacity() * sizeof(Label);
    for (const auto& block : side->hub_blocks) {
      total += block.capacity() * sizeof(int32_t);
    }
    for (const auto& block : side->dist_blocks) {
      total += block.capacity() * sizeof(double);
    }
  }
  return total;
}

}  // namespace auctionride
