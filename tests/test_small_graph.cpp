#include "bgr/graph/small_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "bgr/common/rng.hpp"
#include "bgr/route/path_search.hpp"

namespace bgr {
namespace {

/// Naive bridge oracle: an alive edge is a bridge iff removing it splits
/// the component containing its endpoints.
std::vector<bool> brute_force_bridges(const SmallGraph& g) {
  std::vector<bool> out(static_cast<std::size_t>(g.edge_count()), false);
  for (std::int32_t e = 0; e < g.edge_count(); ++e) {
    if (!g.edge_alive(e)) continue;
    const auto u = g.edge(e).u;
    const auto v = g.edge(e).v;
    // BFS avoiding edge e.
    std::vector<bool> seen(static_cast<std::size_t>(g.vertex_count()), false);
    std::vector<std::int32_t> stack{u};
    seen[static_cast<std::size_t>(u)] = true;
    while (!stack.empty()) {
      const auto w = stack.back();
      stack.pop_back();
      for (const auto ie : g.incident_edges(w)) {
        if (ie == e) continue;
        const auto n = g.other_end(ie, w);
        if (!seen[static_cast<std::size_t>(n)]) {
          seen[static_cast<std::size_t>(n)] = true;
          stack.push_back(n);
        }
      }
    }
    out[static_cast<std::size_t>(e)] = !seen[static_cast<std::size_t>(v)];
  }
  return out;
}

SmallGraph random_graph(Rng& rng, std::int32_t n, std::int32_t m) {
  SmallGraph g;
  for (std::int32_t i = 0; i < n; ++i) (void)g.add_vertex();
  for (std::int32_t i = 0; i < m; ++i) {
    const auto u = rng.uniform_i32(0, n - 1);
    auto v = rng.uniform_i32(0, n - 1);
    if (u == v) v = (v + 1) % n;
    (void)g.add_edge(u, v, rng.uniform_real(0.5, 10.0));
  }
  return g;
}

TEST(SmallGraph, AddAndRemoveEdge) {
  SmallGraph g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  const auto e = g.add_edge(a, b, 2.0);
  EXPECT_TRUE(g.edge_alive(e));
  EXPECT_EQ(g.degree(a), 1);
  g.remove_edge(e);
  EXPECT_FALSE(g.edge_alive(e));
  EXPECT_EQ(g.degree(a), 0);
  EXPECT_EQ(g.alive_edge_count(), 0);
}

TEST(SmallGraph, RemoveVertexRequiresNoEdges) {
  SmallGraph g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  const auto e = g.add_edge(a, b, 1.0);
  EXPECT_THROW(g.remove_vertex(a), CheckError);
  g.remove_edge(e);
  g.remove_vertex(a);
  EXPECT_FALSE(g.vertex_alive(a));
}

TEST(SmallGraph, SelfLoopRejected) {
  SmallGraph g;
  const auto a = g.add_vertex();
  EXPECT_THROW((void)g.add_edge(a, a, 1.0), CheckError);
}

TEST(SmallGraph, ConnectsDetectsComponents) {
  SmallGraph g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  const auto c = g.add_vertex();
  (void)g.add_edge(a, b, 1.0);
  EXPECT_TRUE(g.connects({a, b}));
  EXPECT_FALSE(g.connects({a, b, c}));
  (void)g.add_edge(b, c, 1.0);
  EXPECT_TRUE(g.connects({a, b, c}));
}

TEST(SmallGraph, BridgeInPath) {
  SmallGraph g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  const auto c = g.add_vertex();
  const auto e0 = g.add_edge(a, b, 1.0);
  const auto e1 = g.add_edge(b, c, 1.0);
  const auto bridges = g.bridges();
  EXPECT_TRUE(bridges[static_cast<std::size_t>(e0)]);
  EXPECT_TRUE(bridges[static_cast<std::size_t>(e1)]);
}

TEST(SmallGraph, CycleHasNoBridges) {
  SmallGraph g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  const auto c = g.add_vertex();
  (void)g.add_edge(a, b, 1.0);
  (void)g.add_edge(b, c, 1.0);
  (void)g.add_edge(c, a, 1.0);
  const auto bridges = g.bridges();
  for (std::int32_t e = 0; e < g.edge_count(); ++e) {
    EXPECT_FALSE(bridges[static_cast<std::size_t>(e)]);
  }
}

TEST(SmallGraph, ParallelEdgesAreNotBridges) {
  SmallGraph g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  (void)g.add_edge(a, b, 1.0);
  (void)g.add_edge(a, b, 2.0);
  const auto bridges = g.bridges();
  EXPECT_FALSE(bridges[0]);
  EXPECT_FALSE(bridges[1]);
}

TEST(SmallGraph, ReferencePathSearchSimplePath) {
  SmallGraph g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  const auto c = g.add_vertex();
  const auto e0 = g.add_edge(a, b, 1.0);
  const auto e1 = g.add_edge(b, c, 2.0);
  const auto e2 = g.add_edge(a, c, 10.0);
  PathSearchScratch scratch;
  std::vector<std::int32_t> tree;
  (void)path_search_tree(g, a, {c}, SmallGraph::kNone, scratch, &tree);
  EXPECT_DOUBLE_EQ(scratch.dist(c), 3.0);
  EXPECT_EQ(tree, (std::vector<std::int32_t>{e1, e0}));
  // Skipping e1 forces the direct edge.
  (void)path_search_tree(g, a, {c}, e1, scratch, &tree);
  EXPECT_DOUBLE_EQ(scratch.dist(c), 10.0);
  EXPECT_EQ(tree, (std::vector<std::int32_t>{e2}));
}

class SmallGraphRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallGraphRandom, BridgesMatchBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    SmallGraph g = random_graph(rng, rng.uniform_i32(2, 14),
                                rng.uniform_i32(1, 24));
    // Random deletions to exercise the alive-subgraph handling.
    for (std::int32_t e = 0; e < g.edge_count(); ++e) {
      if (g.edge_alive(e) && rng.bernoulli(0.2)) g.remove_edge(e);
    }
    EXPECT_EQ(g.bridges(), brute_force_bridges(g));
  }
}

TEST_P(SmallGraphRandom, ReferencePathSearchMatchesBellmanFord) {
  Rng rng(GetParam() + 100);
  PathSearchScratch scratch;
  std::vector<std::int32_t> tree;
  for (int round = 0; round < 10; ++round) {
    const auto n = rng.uniform_i32(2, 10);
    SmallGraph g = random_graph(rng, n, rng.uniform_i32(1, 20));
    // The source as the only terminal: the labels cover the whole
    // component while the tree stays empty.
    (void)path_search_tree(g, 0, {0}, SmallGraph::kNone, scratch, &tree);
    EXPECT_TRUE(tree.empty());
    // Bellman-Ford oracle.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(static_cast<std::size_t>(n), kInf);
    dist[0] = 0.0;
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t e = 0; e < g.edge_count(); ++e) {
        if (!g.edge_alive(e)) continue;
        const auto& ed = g.edge(e);
        dist[static_cast<std::size_t>(ed.v)] =
            std::min(dist[static_cast<std::size_t>(ed.v)],
                     dist[static_cast<std::size_t>(ed.u)] + ed.weight);
        dist[static_cast<std::size_t>(ed.u)] =
            std::min(dist[static_cast<std::size_t>(ed.u)],
                     dist[static_cast<std::size_t>(ed.v)] + ed.weight);
      }
    }
    for (std::int32_t v = 0; v < n; ++v) {
      const double got = scratch.dist(v);
      const double want = dist[static_cast<std::size_t>(v)];
      if (std::isinf(want)) {
        EXPECT_TRUE(std::isinf(got));
      } else {
        EXPECT_NEAR(got, want, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallGraphRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(UnionFind, Basics) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.same(0, 1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(0, 4));
}

}  // namespace
}  // namespace bgr
