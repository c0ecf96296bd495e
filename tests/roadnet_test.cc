#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "roadnet/astar.h"
#include "roadnet/builder.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/dijkstra.h"
#include "roadnet/graph.h"
#include "roadnet/hub_labels.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "testutil.h"

namespace auctionride {
namespace {

TEST(RoadNetworkTest, BuildAndAdjacency) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({100, 0});
  const NodeId c = net.AddNode({200, 0});
  net.AddEdge(a, b, 100);
  net.AddEdge(b, c, 120);
  net.AddEdge(c, a, 250);
  net.Build();

  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_EQ(net.num_edges(), 3);
  ASSERT_EQ(net.OutArcs(a).size(), 1u);
  EXPECT_EQ(net.OutArcs(a)[0].head, b);
  EXPECT_DOUBLE_EQ(net.OutArcs(a)[0].length_m, 100);
  ASSERT_EQ(net.InArcs(a).size(), 1u);
  EXPECT_EQ(net.InArcs(a)[0].head, c);
}

TEST(RoadNetworkTest, StrongConnectivityDetection) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({1, 0});
  net.AddEdge(a, b, 1);  // one-way: not strongly connected
  net.Build();
  EXPECT_FALSE(net.IsStronglyConnected());

  RoadNetwork net2 = testutil::LineNetwork(5);
  EXPECT_TRUE(net2.IsStronglyConnected());
}

TEST(RoadNetworkTest, ComputeBounds) {
  RoadNetwork net = testutil::LatticeNetwork(3, 2, 500);
  const BoundingBox box = net.ComputeBounds();
  EXPECT_DOUBLE_EQ(box.min.x, 0);
  EXPECT_DOUBLE_EQ(box.max.x, 1000);
  EXPECT_DOUBLE_EQ(box.max.y, 500);
}

TEST(DijkstraTest, LineDistances) {
  RoadNetwork net = testutil::LineNetwork(10, 250);
  DijkstraSearch search(&net);
  EXPECT_DOUBLE_EQ(search.ShortestDistance(0, 9), 9 * 250);
  EXPECT_DOUBLE_EQ(search.ShortestDistance(9, 0), 9 * 250);
  EXPECT_DOUBLE_EQ(search.ShortestDistance(4, 4), 0);
}

TEST(DijkstraTest, LatticeIsManhattan) {
  RoadNetwork net = testutil::LatticeNetwork(6, 6, 100);
  DijkstraSearch search(&net);
  // (0,0) -> (5,5): 10 hops of 100 m.
  EXPECT_DOUBLE_EQ(search.ShortestDistance(0, 35), 1000);
}

TEST(DijkstraTest, PathEndpointsAndLength) {
  RoadNetwork net = testutil::LatticeNetwork(5, 5, 100);
  DijkstraSearch search(&net);
  const std::vector<NodeId> path = search.ShortestPath(0, 24);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 24);
  EXPECT_EQ(path.size(), 9u);  // 8 hops
}

TEST(DijkstraTest, UnreachableReturnsInfinity) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({1, 1});
  net.Build();
  DijkstraSearch search(&net);
  EXPECT_EQ(search.ShortestDistance(0, 1), kInfDistance);
  EXPECT_TRUE(search.ShortestPath(0, 1).empty());
}

// Property sweep: hub labels built from a contraction hierarchy must
// reproduce Dijkstra on randomized grid networks of varying size and
// irregularity.
struct ChCase {
  int columns;
  int rows;
  double removal;
  uint64_t seed;
};

class ContractionHierarchyPropertyTest
    : public ::testing::TestWithParam<ChCase> {};

TEST_P(ContractionHierarchyPropertyTest, MatchesDijkstra) {
  const ChCase& c = GetParam();
  GridNetworkOptions options;
  options.columns = c.columns;
  options.rows = c.rows;
  options.spacing_m = 300;
  options.removal_fraction = c.removal;
  options.seed = c.seed;
  RoadNetwork net = BuildGridNetwork(options);
  const HubLabels labels{ContractionHierarchy(&net)};
  DijkstraSearch reference(&net);
  Rng rng(c.seed * 7 + 1);
  for (int i = 0; i < 150; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    const double expected = reference.ShortestDistance(s, t);
    ASSERT_NEAR(labels.Distance(s, t), expected, 1e-6)
        << "s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractionHierarchyPropertyTest,
    ::testing::Values(ChCase{6, 6, 0.0, 1}, ChCase{10, 10, 0.1, 2},
                      ChCase{14, 9, 0.2, 3}, ChCase{20, 20, 0.1, 4},
                      ChCase{25, 12, 0.15, 5}));

// Directed correctness: lattices with extra one-way arcs make distances
// asymmetric; the labels must still match Dijkstra in both directions.
class ContractionHierarchyDirectedTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContractionHierarchyDirectedTest, OneWayStreets) {
  Rng rng(GetParam() + 900);
  RoadNetwork net;
  const int cols = 9;
  const int rows = 9;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      net.AddNode({c * 400.0, r * 400.0});
    }
  }
  auto id = [cols](int c, int r) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) net.AddBidirectionalEdge(id(c, r), id(c + 1, r), 400);
      if (r + 1 < rows) net.AddBidirectionalEdge(id(c, r), id(c, r + 1), 400);
    }
  }
  // One-way express arcs: strictly directed shortcuts.
  for (int k = 0; k < 25; ++k) {
    const auto a = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const auto b = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    if (a == b) continue;
    net.AddEdge(a, b,
                EuclideanDistance(net.position(a), net.position(b)) * 0.9);
  }
  net.Build();

  const HubLabels labels{ContractionHierarchy(&net)};
  DijkstraSearch reference(&net);
  int asymmetric = 0;
  for (int i = 0; i < 120; ++i) {
    const auto s = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const auto t = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const double forward = reference.ShortestDistance(s, t);
    const double backward = reference.ShortestDistance(t, s);
    if (std::abs(forward - backward) > 1e-9) ++asymmetric;
    ASSERT_NEAR(labels.Distance(s, t), forward, 1e-6);
    ASSERT_NEAR(labels.Distance(t, s), backward, 1e-6);
  }
  EXPECT_GT(asymmetric, 0) << "test graph should be genuinely directed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractionHierarchyDirectedTest,
                         ::testing::Values(1, 2, 3));

TEST(OracleTest, ConcurrentQueriesMatchSerial) {
  RoadNetwork net = BuildGridNetwork(
      {.columns = 12, .rows = 12, .spacing_m = 300, .seed = 77});
  DistanceOracle oracle(&net);
  DijkstraSearch reference(&net);

  std::vector<std::pair<NodeId, NodeId>> queries;
  Rng rng(123);
  for (int i = 0; i < 400; ++i) {
    queries.push_back(
        {static_cast<NodeId>(
             rng.UniformInt(static_cast<uint64_t>(net.num_nodes()))),
         static_cast<NodeId>(
             rng.UniformInt(static_cast<uint64_t>(net.num_nodes())))});
  }
  std::vector<double> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expected[i] = reference.ShortestDistance(queries[i].first,
                                             queries[i].second);
  }
  // Three passes: later ones are partly served by the threads' front
  // caches, the rest by fresh label merges.
  constexpr std::size_t kPasses = 3;
  std::vector<double> got(kPasses * queries.size(), -1);
  ThreadPool pool(8);
  pool.ParallelFor(got.size(), [&](std::size_t i) {
    const auto& q = queries[i % queries.size()];
    got[i] = oracle.Distance(q.first, q.second);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i % queries.size()], 1e-6) << "query " << i;
  }
  EXPECT_EQ(oracle.num_queries() + oracle.num_trivial_queries(),
            static_cast<int64_t>(got.size()));
}

// The reference the hub labels are checked against: the bidirectional CH
// query. An upward Dijkstra from s over UpOut and one from t over UpIn
// settle nodes in turn, smaller key first; every node a side settles or
// relaxes is a meeting candidate at its distance plus the other side's. A
// side stops once its queue minimum is >= the best meeting distance so far:
// every node it could still settle is at least that far from its root. The
// result is the exhaustive searches' minimum bit for bit: the optimal
// meeting node's two distances are settled before either side stops, and a
// tentative distance is never below the settled one, so no candidate
// undercuts that minimum.
//
// Stall-on-demand: a settled node u is not relaxed when a higher node w this
// side already reached offers a strictly shorter path into u over a
// downward arc — w -> u for the forward side (an UpIn arc of u), u -> w for
// the backward side (an UpOut arc of u). u's distance is then not its
// shortest, so no shortest up-down path continues through u. u is still a
// meeting candidate: its distances belong to real paths, so their sum
// never undercuts the shortest one.
class ChQueryReference {
 public:
  explicit ChQueryReference(const ContractionHierarchy* ch)
      : ch_(ch), fwd_(ch->num_nodes()), bwd_(ch->num_nodes()) {}

  double Distance(NodeId s, NodeId t) {
    if (s == t) return 0;
    fwd_.Reset(s);
    bwd_.Reset(t);
    double best = kInfDistance;
    while (true) {
      const bool fwd_live = fwd_.Live(best);
      const bool bwd_live = bwd_.Live(best);
      if (!fwd_live && !bwd_live) break;
      if (fwd_live &&
          (!bwd_live || fwd_.queue.top().first <= bwd_.queue.top().first)) {
        Settle(&ContractionHierarchy::UpOut, &ContractionHierarchy::UpIn, &fwd_,
               bwd_, &best);
      } else {
        Settle(&ContractionHierarchy::UpIn, &ContractionHierarchy::UpOut, &bwd_,
               fwd_, &best);
      }
    }
    return best;
  }

 private:
  struct Side {
    explicit Side(NodeId n)
        : dist(static_cast<std::size_t>(n), kInfDistance) {}

    void Reset(NodeId root) {
      for (const NodeId v : reached) dist[v] = kInfDistance;
      reached.assign(1, root);
      dist[root] = 0;
      queue = {};
      queue.push({0, root});
    }
    bool Live(double best) const {
      return !queue.empty() && queue.top().first < best;
    }

    std::vector<double> dist;
    std::vector<NodeId> reached;
    std::priority_queue<std::pair<double, NodeId>,
                        std::vector<std::pair<double, NodeId>>,
                        std::greater<>>
        queue;
  };
  using Arcs = std::span<const ContractionHierarchy::UpArc> (
      ContractionHierarchy::*)(NodeId) const;

  // Pops the side's minimum; a current entry is settled, offered as a
  // meeting node and, unless stalled over `stall_arcs`, relaxed.
  void Settle(Arcs arcs, Arcs stall_arcs, Side* side, const Side& other,
              double* best) {
    const auto [d, u] = side->queue.top();
    side->queue.pop();
    if (d > side->dist[u]) return;
    *best = std::min(*best, d + other.dist[u]);
    for (const ContractionHierarchy::UpArc& a : (ch_->*stall_arcs)(u)) {
      if (side->dist[a.head] + a.weight < d) return;
    }
    for (const ContractionHierarchy::UpArc& a : (ch_->*arcs)(u)) {
      double& dist = side->dist[a.head];
      if (d + a.weight >= dist) continue;
      if (dist == kInfDistance) side->reached.push_back(a.head);
      dist = d + a.weight;
      side->queue.push({dist, a.head});
      *best = std::min(*best, dist + other.dist[a.head]);
    }
  }

  const ContractionHierarchy* ch_;
  Side fwd_;
  Side bwd_;
};

// FNV-1a over the IEEE bits of 200k seeded distances on the Beijing-like
// network, pinned from the CH query without stall-on-demand. Neither the
// reference nor the hub labels may change a single bit.
uint64_t DistanceDigest(const std::function<double(NodeId, NodeId)>& distance,
                        NodeId num_nodes) {
  Rng rng(20190408);
  uint64_t digest = 1469598103934665603ull;
  for (int i = 0; i < 200000; ++i) {
    const auto s = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(num_nodes)));
    const auto t = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(num_nodes)));
    const auto bits = std::bit_cast<uint64_t>(distance(s, t));
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (bits >> (8 * byte)) & 0xff;
      digest *= 1099511628211ull;
    }
  }
  return digest;
}

TEST(ContractionHierarchyTest, BeijingDistancesMatchPinnedDigest) {
  const RoadNetwork net = BuildBeijingLikeNetwork(7);
  ContractionHierarchy ch(&net);
  ChQueryReference query(&ch);
  const HubLabels labels(ch);
  EXPECT_EQ(net.num_nodes(), 6400);
  const auto ch_distance = [&](NodeId s, NodeId t) {
    return query.Distance(s, t);
  };
  const auto label_distance = [&](NodeId s, NodeId t) {
    return labels.Distance(s, t);
  };
  EXPECT_EQ(DistanceDigest(ch_distance, net.num_nodes()),
            0x464eedb84c0acaa1ull);
  EXPECT_EQ(DistanceDigest(label_distance, net.num_nodes()),
            0x464eedb84c0acaa1ull);
}

// Hub labels answer bit-for-bit what the CH query answers, on a second
// Beijing-like network.
TEST(HubLabelsTest, BitIdenticalToChQuery) {
  const RoadNetwork net = BuildBeijingLikeNetwork(3);
  ContractionHierarchy ch(&net);
  ChQueryReference query(&ch);
  const HubLabels labels(ch);
  Rng rng(31);
  const auto num_nodes = static_cast<uint64_t>(net.num_nodes());
  int mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto s = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const auto t = static_cast<NodeId>(rng.UniformInt(num_nodes));
    if (std::bit_cast<uint64_t>(labels.Distance(s, t)) !=
        std::bit_cast<uint64_t>(query.Distance(s, t))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(labels.num_levels(), 1);
  EXPECT_GE(labels.num_entries(), 2 * net.num_nodes());  // a node hubs itself
}

TEST(ContractionHierarchyDeathTest, NullNetworkFailsTheCheck) {
  EXPECT_DEATH({ const ContractionHierarchy ch(nullptr); },
               "network != nullptr");
}

// Front-cache entries are tagged per oracle: two oracles over different
// networks, queried alternately on one thread, each answer from their own.
TEST(OracleTest, FrontCacheKeepsOraclesApart) {
  const RoadNetwork short_net = testutil::LineNetwork(20, 100);
  const RoadNetwork long_net = testutil::LineNetwork(20, 250);
  const DistanceOracle short_oracle(&short_net);
  const DistanceOracle long_oracle(&long_net);
  for (int pass = 0; pass < 3; ++pass) {
    for (NodeId s = 0; s < 20; ++s) {
      for (NodeId t = 0; t < 20; ++t) {
        const double hops = std::abs(s - t);
        ASSERT_DOUBLE_EQ(short_oracle.Distance(s, t), 100 * hops)
            << "pass " << pass << " s=" << s << " t=" << t;
        ASSERT_DOUBLE_EQ(long_oracle.Distance(s, t), 250 * hops)
            << "pass " << pass << " s=" << s << " t=" << t;
      }
    }
  }
  // Passes 2 and 3 repeat 2 * 20 * 19 non-trivial lookups per oracle. A
  // slot that two of the 760 live pairs map to misses on every pass, so
  // the exact count depends on the oracles' ids; but if the two oracles
  // shared slots, every pair would evict its twin and no lookup would hit.
  for (const DistanceOracle* oracle : {&short_oracle, &long_oracle}) {
    EXPECT_EQ(oracle->num_queries(), 3 * 20 * 19);
    EXPECT_LE(oracle->num_cache_hits(), 2 * 20 * 19);
    EXPECT_GT(oracle->num_cache_hits(), 20 * 19);
  }
}

// An oracle destroyed and recreated (typically at the same address) over a
// different network never reads its predecessor's front-cache entries.
TEST(OracleTest, RecreatedOracleReturnsFreshValues) {
  const RoadNetwork first_net = testutil::LineNetwork(12, 100);
  const RoadNetwork second_net = testutil::LineNetwork(12, 300);
  auto oracle = std::make_unique<DistanceOracle>(&first_net);
  for (NodeId t = 0; t < 12; ++t) {
    ASSERT_DOUBLE_EQ(oracle->Distance(0, t), 100.0 * t);
  }
  oracle.reset();
  oracle = std::make_unique<DistanceOracle>(&second_net);
  for (NodeId t = 0; t < 12; ++t) {
    EXPECT_DOUBLE_EQ(oracle->Distance(0, t), 300.0 * t) << "t=" << t;
  }
  EXPECT_EQ(oracle->num_cache_hits(), 0);
}

TEST(ContractionHierarchyTest, HandlesLineGraph) {
  RoadNetwork net = testutil::LineNetwork(30, 100);
  const DistanceOracle oracle(&net);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 29), 2900);
  EXPECT_DOUBLE_EQ(oracle.Distance(29, 0), 2900);
  EXPECT_DOUBLE_EQ(oracle.Distance(15, 15), 0);
}

// Unreachable pairs: on a network that is not strongly connected the
// oracle answers kInfDistance exactly where Dijkstra does, on every ordered
// pair.
TEST(OracleTest, DisconnectedPairsMatchDijkstra) {
  const RoadNetwork net = testutil::TwoComponentNetwork();
  const DistanceOracle oracle(&net);
  DijkstraSearch reference(&net);
  int unreachable = 0;
  for (NodeId s = 0; s < net.num_nodes(); ++s) {
    for (NodeId t = 0; t < net.num_nodes(); ++t) {
      const double expected = reference.ShortestDistance(s, t);
      EXPECT_EQ(oracle.Distance(s, t), expected) << "s=" << s << " t=" << t;
      if (expected == kInfDistance) ++unreachable;
    }
  }
  // B -> A (2 x 3 pairs) and every pair with exactly one end at node 5.
  EXPECT_EQ(unreachable, 6 + 2 * 5);
  EXPECT_EQ(oracle.Distance(0, 4), 4000);  // across the one-way arc
}

TEST(AStarTest, MatchesDijkstraOnLine) {
  RoadNetwork net = testutil::LineNetwork(15, 200);
  AStarSearch astar(&net);
  EXPECT_DOUBLE_EQ(astar.ShortestDistance(0, 14), 2800);
  EXPECT_DOUBLE_EQ(astar.ShortestDistance(7, 7), 0);
  const std::vector<NodeId> path = astar.ShortestPath(2, 9);
  ASSERT_EQ(path.size(), 8u);
  EXPECT_EQ(path.front(), 2);
  EXPECT_EQ(path.back(), 9);
}

// Property sweep: A* must equal Dijkstra on random irregular networks while
// settling no more nodes.
class AStarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AStarPropertyTest, ExactAndNoLessEfficient) {
  GridNetworkOptions options;
  options.columns = 14;
  options.rows = 14;
  options.spacing_m = 300;
  options.removal_fraction = 0.15;
  options.seed = GetParam();
  RoadNetwork net = BuildGridNetwork(options);
  AStarSearch astar(&net);
  DijkstraSearch reference(&net);
  Rng rng(GetParam() + 55);
  long long settled_total = 0;
  for (int i = 0; i < 100; ++i) {
    const NodeId s = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const NodeId t = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    ASSERT_NEAR(astar.ShortestDistance(s, t), reference.ShortestDistance(s, t),
                1e-6);
    settled_total += astar.last_settled();

    // Path legs must exist as edges and sum to the reported distance.
    const std::vector<NodeId> path = astar.ShortestPath(s, t);
    if (!path.empty()) {
      double sum = 0;
      for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        double edge = kInfDistance;
        for (const Arc& a : net.OutArcs(path[k])) {
          if (a.head == path[k + 1]) edge = std::min(edge, a.length_m);
        }
        ASSERT_NE(edge, kInfDistance);
        sum += edge;
      }
      EXPECT_NEAR(sum, reference.ShortestDistance(s, t), 1e-6);
    }
  }
  // The heuristic should focus the search: far fewer than n nodes settled
  // on average.
  EXPECT_LT(settled_total / 100, net.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(AStarTest, UnreachableReturnsInfinity) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({10, 10});
  net.Build();
  AStarSearch astar(&net);
  EXPECT_EQ(astar.ShortestDistance(0, 1), kInfDistance);
  EXPECT_TRUE(astar.ShortestPath(0, 1).empty());
}

TEST(NearestNodeIndexTest, FindsExactNearest) {
  RoadNetwork net = testutil::LatticeNetwork(10, 10, 100);
  NearestNodeIndex index(&net, 150);
  // Query near node (3, 4) => id 43.
  EXPECT_EQ(index.Nearest({310, 390}), 43);
  // Far outside the bounds snaps to the closest corner.
  EXPECT_EQ(index.Nearest({-5000, -5000}), 0);
  EXPECT_EQ(index.Nearest({5000, 5000}), 99);
}

TEST(NearestNodeIndexTest, RandomizedAgainstBruteForce) {
  RoadNetwork net = BuildGridNetwork(
      {.columns = 15, .rows = 15, .spacing_m = 200, .seed = 9});
  NearestNodeIndex index(&net, 180);
  Rng rng(4);
  const BoundingBox box = net.ComputeBounds();
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.Uniform(box.min.x, box.max.x),
                  rng.Uniform(box.min.y, box.max.y)};
    NodeId brute = 0;
    double best = kInfDistance;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      const double d = SquaredDistance(p, net.position(n));
      if (d < best) {
        best = d;
        brute = n;
      }
    }
    const NodeId got = index.Nearest(p);
    EXPECT_NEAR(SquaredDistance(p, net.position(got)), best, 1e-9);
    (void)brute;
  }
}

TEST(BuilderTest, GridNetworkIsConnectedAndSized) {
  GridNetworkOptions options;
  options.columns = 20;
  options.rows = 18;
  options.removal_fraction = 0.2;
  options.seed = 17;
  RoadNetwork net = BuildGridNetwork(options);
  EXPECT_EQ(net.num_nodes(), 360);
  EXPECT_TRUE(net.IsStronglyConnected());
}

TEST(BuilderTest, DeterministicInSeed) {
  GridNetworkOptions options;
  options.columns = 8;
  options.rows = 8;
  options.seed = 5;
  RoadNetwork a = BuildGridNetwork(options);
  RoadNetwork b = BuildGridNetwork(options);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.position(n).x, b.position(n).x);
    EXPECT_EQ(a.position(n).y, b.position(n).y);
  }
}

TEST(BuilderTest, BeijingLikeCoversPaperArea) {
  RoadNetwork net = BuildBeijingLikeNetwork(1);
  const BoundingBox box = net.ComputeBounds();
  EXPECT_GT(box.width(), 25000);   // ~29.6 km
  EXPECT_GT(box.height(), 25000);
  EXPECT_TRUE(net.IsStronglyConnected());
}

TEST(OracleTest, MatchesDijkstraSearch) {
  RoadNetwork net = BuildGridNetwork(
      {.columns = 10, .rows = 10, .spacing_m = 250, .seed = 21});
  DistanceOracle oracle(&net);
  DijkstraSearch reference(&net);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    EXPECT_NEAR(oracle.Distance(s, t), reference.ShortestDistance(s, t),
                1e-6);
  }
}

TEST(OracleTest, CachesRepeatQueries) {
  RoadNetwork net = testutil::LineNetwork(20, 100);
  DistanceOracle oracle(&net);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 19), 1900);
  const int64_t hits_before = oracle.num_cache_hits();
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 19), 1900);
  EXPECT_EQ(oracle.num_cache_hits(), hits_before + 1);
}

TEST(OracleTest, TravelTimeUsesSpeed) {
  RoadNetwork net = testutil::LineNetwork(3, 500);
  DistanceOracle oracle(&net, /*speed_mps=*/10.0);
  EXPECT_DOUBLE_EQ(oracle.TravelTime(0, 2).value(), 100.0);
}

TEST(RoadNetworkTest, MinDetourRatioOfStraightEdgesIsOne) {
  // Line and lattice edges run exactly along the segment between their
  // endpoints: length == euclid on every edge.
  EXPECT_DOUBLE_EQ(testutil::LineNetwork(5, 750).min_detour_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(testutil::LatticeNetwork(4, 3, 500).min_detour_ratio(),
                   1.0);
}

TEST(RoadNetworkTest, MinDetourRatioIsTheMinimumOverEdges) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({1000, 0});
  net.AddNode({1000, 1000});
  net.AddBidirectionalEdge(0, 1, 1500);  // ratio 1.5
  net.AddBidirectionalEdge(1, 2, 1200);  // ratio 1.2 — the minimum
  net.Build();
  EXPECT_DOUBLE_EQ(net.min_detour_ratio(), 1.2);
}

TEST(RoadNetworkTest, MinDetourRatioZeroWithoutPositiveEuclidEdges) {
  // Both endpoints at the same position: no edge certifies any bound.
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({0, 0});
  net.AddBidirectionalEdge(0, 1, 100);
  net.Build();
  EXPECT_DOUBLE_EQ(net.min_detour_ratio(), 0.0);
}

TEST(OracleTest, LowerBoundScaleTracksRatioWithSafetyMargin) {
  RoadNetwork net = testutil::LineNetwork(6, 400);
  DistanceOracle oracle(&net);
  EXPECT_DOUBLE_EQ(oracle.lower_bound_scale(),
                   net.min_detour_ratio() * (1.0 - 1e-9));
  // The bound on a concrete pair: scale × euclid, and admissible.
  EXPECT_DOUBLE_EQ(oracle.LowerBoundDistance(0, 5),
                   oracle.lower_bound_scale() * 2000.0);
  EXPECT_LE(oracle.LowerBoundDistance(0, 5), oracle.Distance(0, 5));
}

TEST(OracleTest, LowerBoundAdmissibleOnGridNetworks) {
  GridNetworkOptions options;
  options.columns = 9;
  options.rows = 9;
  options.seed = 12345;
  RoadNetwork net = BuildGridNetwork(options);
  EXPECT_GT(net.min_detour_ratio(), 0.0);
  DistanceOracle oracle(&net);
  Rng rng(99);
  const auto num_nodes = static_cast<uint64_t>(net.num_nodes());
  for (int trial = 0; trial < 500; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(num_nodes));
    EXPECT_LE(oracle.LowerBoundDistance(s, t), oracle.Distance(s, t))
        << "s=" << s << " t=" << t;
  }
}

// DistanceBatch must be indistinguishable from the equivalent sequence of
// Distance() calls: same values and the same query/cache-hit/trivial
// accounting, including trivial pairs, in-batch duplicates, and pairs
// already cached by an earlier batch. The batched and the sequential pass
// query one oracle (front-cache slots depend on the oracle's id) from two
// threads (each thread owns its front cache), so both see identical cache
// states and each pass's counts must match exactly.
struct OracleCounts {
  int64_t queries = 0;
  int64_t hits = 0;
  int64_t trivial = 0;
  bool operator==(const OracleCounts&) const = default;
};

OracleCounts CountsOf(const DistanceOracle& oracle) {
  return {oracle.num_queries(), oracle.num_cache_hits(),
          oracle.num_trivial_queries()};
}

void ExpectBatchMatchesSequential(int grid_side, int num_random_pairs) {
  GridNetworkOptions options;
  options.columns = grid_side;
  options.rows = grid_side;
  options.seed = 4242;
  RoadNetwork net = BuildGridNetwork(options);
  const DistanceOracle oracle(&net);

  std::vector<DistanceOracle::NodePair> pairs;
  Rng rng(7);
  const auto num_nodes = static_cast<uint64_t>(net.num_nodes());
  for (int i = 0; i < num_random_pairs; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.UniformInt(num_nodes)),
                     static_cast<NodeId>(rng.UniformInt(num_nodes))});
  }
  pairs.push_back({3, 3});    // trivial
  pairs.push_back(pairs[0]);  // in-batch duplicate
  pairs.push_back(pairs[0]);  // and again

  // Each kind runs its two passes on a fresh thread of its own, so its
  // second pass sees the front cache its first pass left. Returns the
  // counts each pass added (no two passes overlap).
  auto run_on_own_thread = [&](const std::function<void(int)>& pass) {
    std::array<OracleCounts, 2> added;
    std::thread([&] {
      for (int p = 0; p < 2; ++p) {
        const OracleCounts start = CountsOf(oracle);
        pass(p);
        const OracleCounts end = CountsOf(oracle);
        added[p] = {end.queries - start.queries, end.hits - start.hits,
                    end.trivial - start.trivial};
      }
    }).join();
    return added;
  };
  std::vector<std::vector<double>> batch_out(
      2, std::vector<double>(pairs.size()));
  std::vector<std::vector<double>> sequential_out(
      2, std::vector<double>(pairs.size()));
  std::array<int64_t, 2> thread_queries{};
  const std::array<OracleCounts, 2> batch = run_on_own_thread([&](int p) {
    const int64_t before = DistanceOracle::ThreadQueryCount();
    oracle.DistanceBatch(pairs, batch_out[p]);
    thread_queries[p] = DistanceOracle::ThreadQueryCount() - before;
  });
  const std::array<OracleCounts, 2> sequential =
      run_on_own_thread([&](int p) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          sequential_out[p][i] =
              oracle.Distance(pairs[i].source, pairs[i].target);
        }
      });

  for (int p = 0; p < 2; ++p) {
    // Every pair charges the calling thread exactly one query, same as a
    // Distance() loop would.
    EXPECT_EQ(thread_queries[p], static_cast<int64_t>(pairs.size()))
        << "pass " << p;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(batch_out[p][i], sequential_out[p][i])
          << "pass " << p << " pair " << i;
    }
    EXPECT_EQ(batch[p], sequential[p]) << "pass " << p;
  }
  EXPECT_EQ(batch[0].queries + batch[0].trivial,
            static_cast<int64_t>(pairs.size()));
  // Second pass over the same pairs: a pair whose slot no other pair took
  // is now a cache hit, in both worlds.
  EXPECT_GT(batch[1].hits, batch[0].hits);
}

TEST(OracleBatchTest, BatchMatchesSequentialValuesAndCounters) {
  ExpectBatchMatchesSequential(/*grid_side=*/6,
                               /*num_random_pairs=*/40);
}

// More distinct pairs than a thread's front cache has slots: entries evict
// each other, so the two passes mix cache hits and computes.
TEST(OracleBatchTest, BatchMatchesSequentialBeyondFrontCache) {
  constexpr int kPairs = 3 * DistanceOracle::kFrontCacheSlots;
  ExpectBatchMatchesSequential(/*grid_side=*/14, kPairs);
}

}  // namespace
}  // namespace auctionride
