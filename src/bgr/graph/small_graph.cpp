#include "bgr/graph/small_graph.hpp"

#include <algorithm>


namespace bgr {

std::int32_t SmallGraph::add_vertex() {
  vertex_alive_.push_back(true);
  adjacency_.emplace_back();
  ++alive_vertices_;
  return static_cast<std::int32_t>(vertex_alive_.size()) - 1;
}

std::int32_t SmallGraph::add_edge(std::int32_t u, std::int32_t v, double weight) {
  BGR_CHECK(vertex_alive(u) && vertex_alive(v));
  BGR_CHECK(u != v);
  const auto id = static_cast<std::int32_t>(edges_.size());
  edges_.push_back(Edge{u, v, weight, true});
  adjacency_[static_cast<std::size_t>(u)].push_back(id);
  adjacency_[static_cast<std::size_t>(v)].push_back(id);
  ++alive_edges_;
  return id;
}

void SmallGraph::remove_edge(std::int32_t e) {
  Edge& ed = edges_[static_cast<std::size_t>(e)];
  BGR_CHECK(ed.alive);
  ed.alive = false;
  --alive_edges_;
  auto erase_from = [e](std::vector<std::int32_t>& adj) {
    adj.erase(std::remove(adj.begin(), adj.end(), e), adj.end());
  };
  erase_from(adjacency_[static_cast<std::size_t>(ed.u)]);
  erase_from(adjacency_[static_cast<std::size_t>(ed.v)]);
}

void SmallGraph::remove_vertex(std::int32_t v) {
  BGR_CHECK(vertex_alive(v));
  BGR_CHECK_MSG(adjacency_[static_cast<std::size_t>(v)].empty(),
                "vertex still has incident edges");
  vertex_alive_[static_cast<std::size_t>(v)] = false;
  --alive_vertices_;
}

bool SmallGraph::connects(const std::vector<std::int32_t>& required) const {
  if (required.empty()) return true;
  const auto comp = component_of(required.front());
  std::vector<bool> in_comp(vertex_alive_.size(), false);
  for (auto v : comp) in_comp[static_cast<std::size_t>(v)] = true;
  return std::all_of(required.begin(), required.end(), [&](std::int32_t v) {
    return vertex_alive(v) && in_comp[static_cast<std::size_t>(v)];
  });
}

std::vector<std::int32_t> SmallGraph::component_of(std::int32_t start) const {
  BGR_CHECK(vertex_alive(start));
  std::vector<bool> seen(vertex_alive_.size(), false);
  std::vector<std::int32_t> stack{start};
  std::vector<std::int32_t> out;
  seen[static_cast<std::size_t>(start)] = true;
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    out.push_back(v);
    for (auto e : adjacency_[static_cast<std::size_t>(v)]) {
      const auto w = other_end(e, v);
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return out;
}

std::vector<bool> SmallGraph::bridges() const {
  const auto n = static_cast<std::size_t>(vertex_count());
  std::vector<bool> is_bridge(edges_.size(), false);
  std::vector<std::int32_t> disc(n, -1);
  std::vector<std::int32_t> low(n, 0);
  std::int32_t timer = 0;

  // Iterative DFS; entry_edge distinguishes parallel edges (re-traversing a
  // different parallel edge to the parent is a back edge, so neither is a
  // bridge).
  struct Frame {
    std::int32_t v;
    std::int32_t entry_edge;
    std::size_t next_index;
  };
  std::vector<Frame> stack;
  for (std::int32_t root = 0; root < vertex_count(); ++root) {
    if (!vertex_alive(root) || disc[static_cast<std::size_t>(root)] != -1) continue;
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = timer++;
    stack.push_back(Frame{root, kNone, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto& adj = adjacency_[static_cast<std::size_t>(f.v)];
      if (f.next_index < adj.size()) {
        const auto e = adj[f.next_index++];
        if (e == f.entry_edge) continue;
        const auto w = other_end(e, f.v);
        if (disc[static_cast<std::size_t>(w)] == -1) {
          disc[static_cast<std::size_t>(w)] = low[static_cast<std::size_t>(w)] =
              timer++;
          stack.push_back(Frame{w, e, 0});
        } else {
          low[static_cast<std::size_t>(f.v)] =
              std::min(low[static_cast<std::size_t>(f.v)],
                       disc[static_cast<std::size_t>(w)]);
        }
      } else {
        const auto child = f.v;
        const auto entry = f.entry_edge;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent = stack.back();
          low[static_cast<std::size_t>(parent.v)] =
              std::min(low[static_cast<std::size_t>(parent.v)],
                       low[static_cast<std::size_t>(child)]);
          if (low[static_cast<std::size_t>(child)] >
              disc[static_cast<std::size_t>(parent.v)]) {
            is_bridge[static_cast<std::size_t>(entry)] = true;
          }
        }
      }
    }
  }
  return is_bridge;
}

}  // namespace bgr
