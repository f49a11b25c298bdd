#pragma once

#include <cstdint>
#include <vector>

#include "bgr/common/check.hpp"

namespace bgr {

/// Undirected multigraph sized for per-net routing graphs (tens to a few
/// hundred vertices). Vertices and edges carry alive flags so that edge
/// deletion — the core operation of the routing scheme — is O(degree), and
/// ids stay stable for external annotation arrays.
///
/// All algorithms (bridges, connectivity) operate on the alive subgraph
/// only; shortest paths live in route/path_search.
class SmallGraph {
 public:
  static constexpr std::int32_t kNone = -1;

  struct Edge {
    std::int32_t u = kNone;
    std::int32_t v = kNone;
    double weight = 0.0;
    bool alive = false;
  };

  [[nodiscard]] std::int32_t add_vertex();
  /// Adds an alive edge between two alive vertices; returns its id.
  [[nodiscard]] std::int32_t add_edge(std::int32_t u, std::int32_t v,
                                      double weight);

  void remove_edge(std::int32_t e);
  /// Removes a vertex; all incident edges must already be removed.
  void remove_vertex(std::int32_t v);

  [[nodiscard]] std::int32_t vertex_count() const {
    return static_cast<std::int32_t>(vertex_alive_.size());
  }
  [[nodiscard]] std::int32_t edge_count() const {
    return static_cast<std::int32_t>(edges_.size());
  }
  [[nodiscard]] std::int32_t alive_vertex_count() const { return alive_vertices_; }
  [[nodiscard]] std::int32_t alive_edge_count() const { return alive_edges_; }

  [[nodiscard]] bool vertex_alive(std::int32_t v) const {
    return vertex_alive_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool edge_alive(std::int32_t e) const {
    return edges_[static_cast<std::size_t>(e)].alive;
  }
  [[nodiscard]] const Edge& edge(std::int32_t e) const {
    return edges_[static_cast<std::size_t>(e)];
  }
  void set_edge_weight(std::int32_t e, double w) {
    edges_[static_cast<std::size_t>(e)].weight = w;
  }
  [[nodiscard]] std::int32_t other_end(std::int32_t e, std::int32_t v) const {
    const Edge& ed = edge(e);
    return ed.u == v ? ed.v : ed.u;
  }

  [[nodiscard]] std::int32_t degree(std::int32_t v) const {
    return static_cast<std::int32_t>(adjacency_[static_cast<std::size_t>(v)].size());
  }
  /// Alive incident edge ids of an alive vertex.
  [[nodiscard]] const std::vector<std::int32_t>& incident_edges(
      std::int32_t v) const {
    return adjacency_[static_cast<std::size_t>(v)];
  }

  /// True if every vertex in `required` (alive) lies in one connected
  /// component of the alive subgraph.
  [[nodiscard]] bool connects(const std::vector<std::int32_t>& required) const;

  /// Bridge (cut-edge) flags for all alive edges of the alive subgraph,
  /// indexed by edge id. Parallel edges are correctly non-bridges. Dead
  /// edges report false.
  [[nodiscard]] std::vector<bool> bridges() const;

  /// Vertex ids of the alive component containing `start`.
  [[nodiscard]] std::vector<std::int32_t> component_of(std::int32_t start) const;

 private:
  std::vector<bool> vertex_alive_;
  std::vector<std::vector<std::int32_t>> adjacency_;
  std::vector<Edge> edges_;
  std::int32_t alive_vertices_ = 0;
  std::int32_t alive_edges_ = 0;
};

/// Disjoint-set union with path compression and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<std::int32_t>(i);
  }

  [[nodiscard]] std::int32_t find(std::int32_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  /// Returns true if the two elements were in different sets.
  bool unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[static_cast<std::size_t>(a)] < size_[static_cast<std::size_t>(b)])
      std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
    return true;
  }

  [[nodiscard]] bool same(std::int32_t a, std::int32_t b) {
    return find(a) == find(b);
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> size_;
};

}  // namespace bgr
