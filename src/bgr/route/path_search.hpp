#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "bgr/graph/small_graph.hpp"

namespace bgr {

class ExecContext;

/// Engine of the tentative-tree path search (see DESIGN.md §11).
///
/// kCached (the default) keeps one no-skip reference Dijkstra per routing
/// graph (SearchCache), rebuilt whenever the graph changes, and answers
/// every skip-edge query from it by dependency-cone repair. kDijkstra runs
/// the reference binary-heap search from scratch for every query; it is a
/// test hook (like RouterOptions::deletion_observer), kept as the oracle
/// the cached engine is checked against. The tree is derived from the
/// distance labels alone (see derive_tree), and the repaired labels are
/// bit-identical to a from-scratch search, so both engines produce the
/// identical tentative trees — and therefore every score, every deletion
/// and the final RouteOutcome.
enum class PathSearchBackend { kDijkstra, kCached };

/// Arena-reused per-search state: epoch-stamped distance labels, the
/// canonical parent tree, tree-walk edge marks, cone marks and the binary
/// heap storage. One instance serves one thread; begin() bumps the epoch
/// instead of reallocating, so steady-state searches do no allocation at
/// all.
class PathSearchScratch {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Prepares for one search over a graph of the given size. Returns true
  /// when the arena was reused as-is (no growth).
  bool begin(std::int32_t vertex_count, std::int32_t edge_count);

  [[nodiscard]] double dist(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return vertex_epoch_[i] == epoch_ ? dist_[i] : kInf;
  }
  void set_dist(std::int32_t v, double d) {
    const auto i = static_cast<std::size_t>(v);
    vertex_epoch_[i] = epoch_;
    dist_[i] = d;
  }

  [[nodiscard]] std::int32_t parent_edge(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return parent_epoch_[i] == epoch_ ? parent_[i] : SmallGraph::kNone;
  }
  void set_parent_edge(std::int32_t v, std::int32_t e) {
    const auto i = static_cast<std::size_t>(v);
    parent_epoch_[i] = epoch_;
    parent_[i] = e;
  }

  [[nodiscard]] bool edge_marked(std::int32_t e) const {
    const auto i = static_cast<std::size_t>(e);
    return edge_epoch_[i] == epoch_;
  }
  void mark_edge(std::int32_t e) {
    edge_epoch_[static_cast<std::size_t>(e)] = epoch_;
  }

  /// Dependency-cone membership for the cached engine's repair (stamped
  /// like the labels).
  [[nodiscard]] bool in_cone(std::int32_t v) const {
    return cone_epoch_[static_cast<std::size_t>(v)] == epoch_;
  }
  void mark_cone(std::int32_t v) {
    cone_epoch_[static_cast<std::size_t>(v)] = epoch_;
  }

  /// Binary-heap storage for the searches and the tree derivation.
  [[nodiscard]] std::vector<std::pair<double, std::int32_t>>& heap() {
    return heap_;
  }
  /// Reused vertex list (the engine's cone repair); cleared by the user.
  [[nodiscard]] std::vector<std::int32_t>& vertex_list() { return list_; }

 private:
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> vertex_epoch_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_epoch_;
  std::vector<std::int32_t> parent_;
  std::vector<std::uint32_t> edge_epoch_;
  std::vector<std::uint32_t> cone_epoch_;
  std::vector<std::pair<double, std::int32_t>> heap_;
  std::vector<std::int32_t> list_;
};

/// Effort of one search, returned to the caller (the engine folds it into
/// its phase-visible totals and the obs counters).
struct SearchEffort {
  std::int64_t pops = 0;         // queue extractions, stale included
  std::int64_t relaxations = 0;  // successful distance improvements
  std::int64_t queue_pushes = 0;
};

/// The uncached reference: one binary-heap Dijkstra from `source`, then
/// the tentative-tree edges (the union of canonical shortest
/// source→terminal paths) emitted into `out`, walking `terminals` in
/// order. `skip_edge` >= 0 is treated as deleted.
SearchEffort path_search_tree(const SmallGraph& graph, std::int32_t source,
                              const std::vector<std::int32_t>& terminals,
                              std::int32_t skip_edge,
                              PathSearchScratch& scratch,
                              std::vector<std::int32_t>* out);

/// Cached no-skip reference search over one routing graph, rebuilt at the
/// serial mutation points (graph build, committed edge deletion) and read
/// concurrently by the parallel timing re-fills. The scoring loop asks for the
/// tentative tree under dozens of hypothetical single-edge deletions of
/// the *same* graph; the cache answers most of them without a search:
///
///   - `dist` is canonical: every label is a min over single additions
///     dist[x] + w, and equal doubles are identical bits, so any correct
///     label-setting search produces these exact bits — which is what
///     makes "reuse the unaffected labels" a bitwise statement.
///   - `seq` records the reference settle order. An edge (x -> v) with
///     dist[x] + w == dist[v] and seq[x] < seq[v] is a *contributing*
///     predecessor; a vertex all of whose contributing predecessors pass
///     through the skipped edge (directly or transitively) forms the
///     dependency cone — the only labels a skip can change. Everything
///     else keeps its label bit for bit, so only the cone is re-searched
///     (see PathSearchEngine::tentative_tree and DESIGN.md §11).
///   - `tree`/`in_tree` short-circuit the common case: an empty cone and
///     a skip edge outside the canonical tree cannot change the output.
struct SearchCache {
  bool valid = false;
  std::vector<double> dist;                // per vertex; kInf if unsettled
  std::vector<std::int32_t> seq;           // settle index; -1 if unsettled
  std::vector<std::int32_t> settle_order;  // vertices, source first
  std::vector<std::int32_t> tree;          // canonical no-skip tree edges
  std::vector<char> in_tree;               // per edge id
};

/// Search-effort totals the router snapshots per phase. Value-driven, so
/// deterministic across thread counts (the selection index re-fills the
/// same stale timing halves whether or not they fan out, hence the same
/// searches run).
struct PathSearchStats {
  std::int64_t searches = 0;
  std::int64_t pops = 0;
  std::int64_t relaxations = 0;
};

/// Path-search engine shared by one router: the engine choice, one
/// scratch arena per exec slot (indexed by ExecContext::current_slot, so
/// concurrent timing re-fill searches never share state), and the running
/// effort totals. RoutingGraphs get a pointer via set_path_search();
/// graphs without an engine fall back to the reference search over a
/// private scratch.
class PathSearchEngine {
 public:
  /// `exec` may be null (slot 0 only — fine for single-threaded use).
  PathSearchEngine(PathSearchBackend backend, const ExecContext* exec);
  ~PathSearchEngine();

  PathSearchEngine(const PathSearchEngine&) = delete;
  PathSearchEngine& operator=(const PathSearchEngine&) = delete;

  [[nodiscard]] PathSearchBackend backend() const { return backend_; }

  /// Rebuilds a graph's search cache with one full reference search (seq
  /// recording included) plus the canonical tree. Must be called from the
  /// graph's serial mutation points only — the cache is read lock-free by
  /// concurrent scorers. The build's pops/relaxations fold into the effort
  /// totals, but it is not counted as a search: `searches` stays the query
  /// count, identical across engines.
  void refresh_cache(const SmallGraph& graph, std::int32_t source,
                     const std::vector<std::int32_t>& terminals,
                     SearchCache* cache);

  /// Answers one tentative-tree query using the calling thread's scratch.
  /// The cached engine requires a valid `cache` and answers from it: the
  /// cached tree when the skip cannot change it, else a cone repair —
  /// bit-identical to a from-scratch search, see SearchCache. The
  /// reference engine ignores `cache` (which may then be null) and runs
  /// path_search_tree.
  void tentative_tree(const SmallGraph& graph, const SearchCache* cache,
                      std::int32_t source,
                      const std::vector<std::int32_t>& terminals,
                      std::int32_t skip_edge, std::vector<std::int32_t>* out);

  [[nodiscard]] PathSearchStats stats() const;

 private:
  /// Folds one search's effort into the per-router totals.
  void tally(const SearchEffort& effort);

  PathSearchBackend backend_;
  const ExecContext* exec_;
  std::vector<std::unique_ptr<PathSearchScratch>> scratch_;  // one per slot
  std::atomic<std::int64_t> searches_{0};
  std::atomic<std::int64_t> pops_{0};
  std::atomic<std::int64_t> relaxations_{0};
};

}  // namespace bgr
