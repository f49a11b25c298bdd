#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "bgr/common/check.hpp"

namespace bgr {

/// Directed acyclic graph with mutable edge weights, used for the global
/// delay graph G_D and the per-constraint subgraphs G_d(P). Structure is
/// fixed after freeze(); weights change every time a net's estimated wire
/// capacitance changes.
///
/// Adjacency is stored in CSR (offset + flat index array) form, built once
/// in freeze(): the longest-path sweeps and dirty-cone propagations walk
/// in/out edges for every relaxed vertex, and at the 100k/1M-cell presets
/// the vector-of-vectors layout's pointer chase dominated the sweep.
class Dag {
 public:
  static constexpr double kMinusInf = -std::numeric_limits<double>::infinity();
  static constexpr std::int32_t kNoLabel = -1;

  struct Edge {
    std::int32_t from = 0;
    std::int32_t to = 0;
    double weight = 0.0;
    std::int32_t label = kNoLabel;  // caller-defined tag (e.g. net id)
  };

  [[nodiscard]] std::int32_t add_vertex();
  [[nodiscard]] std::int32_t add_edge(std::int32_t from, std::int32_t to,
                                      double weight,
                                      std::int32_t label = kNoLabel);

  /// Validates acyclicity, builds the CSR adjacency and computes the
  /// topological order. Must be called once after construction, before any
  /// adjacency or longest-path query.
  void freeze();
  [[nodiscard]] bool frozen() const { return frozen_; }

  [[nodiscard]] std::int32_t vertex_count() const { return vertex_count_; }
  [[nodiscard]] std::int32_t edge_count() const {
    return static_cast<std::int32_t>(edges_.size());
  }
  [[nodiscard]] const Edge& edge(std::int32_t e) const {
    return edges_[static_cast<std::size_t>(e)];
  }
  void set_edge_weight(std::int32_t e, double w) {
    edges_[static_cast<std::size_t>(e)].weight = w;
  }
  /// Edge ids leaving/entering v in insertion order. CSR views, valid
  /// after freeze().
  [[nodiscard]] std::span<const std::int32_t> out_edges(std::int32_t v) const {
    return adjacency(out_offsets_, out_list_, v);
  }
  [[nodiscard]] std::span<const std::int32_t> in_edges(std::int32_t v) const {
    return adjacency(in_offsets_, in_list_, v);
  }
  [[nodiscard]] const std::vector<std::int32_t>& topo_order() const {
    BGR_CHECK(frozen_);
    return topo_;
  }

  /// Number of forward topological levels (level(v) = longest edge count
  /// from any zero-indegree vertex). Available after freeze().
  [[nodiscard]] std::int32_t level_count() const {
    BGR_CHECK(frozen_);
    return level_count_;
  }
  [[nodiscard]] std::int32_t level_of(std::int32_t v) const {
    BGR_CHECK(frozen_);
    return level_of_[static_cast<std::size_t>(v)];
  }

  /// Longest-path distance from any vertex of `sources` to every vertex
  /// (kMinusInf when unreachable). If `subset` is non-empty it masks the
  /// graph: only vertices with subset[v] participate.
  [[nodiscard]] std::vector<double> longest_from(
      const std::vector<std::int32_t>& sources,
      const std::vector<bool>& subset = {}) const;

  /// Longest-path distance from every vertex to any vertex of `sinks`.
  [[nodiscard]] std::vector<double> longest_to(
      const std::vector<std::int32_t>& sinks,
      const std::vector<bool>& subset = {}) const;

  /// Vertices lying on some path from `sources` to `sinks` (the support of
  /// the constraint graph G_d(P)).
  [[nodiscard]] std::vector<bool> between(
      const std::vector<std::int32_t>& sources,
      const std::vector<std::int32_t>& sinks) const;

 private:
  [[nodiscard]] std::span<const std::int32_t> adjacency(
      const std::vector<std::int32_t>& offsets,
      const std::vector<std::int32_t>& list, std::int32_t v) const {
    BGR_CHECK(frozen_);
    const auto lo = offsets[static_cast<std::size_t>(v)];
    const auto hi = offsets[static_cast<std::size_t>(v) + 1];
    return {list.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// Counting sort of edge ids by key(edge), insertion order preserved
  /// within a vertex (same order the old per-vertex push_back produced).
  template <typename KeyFn>
  void build_csr(std::vector<std::int32_t>& offsets,
                 std::vector<std::int32_t>& list, KeyFn&& key) const;

  [[nodiscard]] std::vector<bool> reachable_from(
      const std::vector<std::int32_t>& sources, bool forward) const;

  std::int32_t vertex_count_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::int32_t> out_offsets_;
  std::vector<std::int32_t> out_list_;
  std::vector<std::int32_t> in_offsets_;
  std::vector<std::int32_t> in_list_;
  std::vector<std::int32_t> topo_;
  /// Forward topological level of every vertex (DirtyPropagator buckets
  /// its dirty cone by it).
  std::vector<std::int32_t> level_of_;
  std::int32_t level_count_ = 0;
  bool frozen_ = false;
};

}  // namespace bgr
