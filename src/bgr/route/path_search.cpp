#include "bgr/route/path_search.hpp"

#include <algorithm>

#include "bgr/common/check.hpp"
#include "bgr/exec/exec_context.hpp"
#include "bgr/obs/metrics.hpp"

namespace bgr {

namespace {

/// Search-effort counters. Everything value-driven is semantic: the set of
/// searches the router runs is a function of the design alone (the
/// selection index re-fills the same stale timing halves at any thread
/// count), and each
/// search's pop/relax counts are a function of the graph and the engine. Arena reuse/growth, by contrast, depends on which exec slot a
/// chunk happens to land on — schedule-dependent, so nondeterministic.
struct PathMetrics {
  Counter& searches = MetricsRegistry::global().counter(
      "path.searches", MetricScope::kSemantic);
  Counter& pops = MetricsRegistry::global().counter(
      "path.pops", MetricScope::kSemantic);
  Counter& relaxations = MetricsRegistry::global().counter(
      "path.relaxations", MetricScope::kSemantic);
  Counter& queue_pushes = MetricsRegistry::global().counter(
      "path.queue_pushes", MetricScope::kSemantic);
  Counter& cache_builds = MetricsRegistry::global().counter(
      "path.cache_builds", MetricScope::kSemantic);
  Counter& cache_hits = MetricsRegistry::global().counter(
      "path.cache_hits", MetricScope::kSemantic);
  Counter& cone_repairs = MetricsRegistry::global().counter(
      "path.cone_repairs", MetricScope::kSemantic);
  Counter& scratch_reuses = MetricsRegistry::global().counter(
      "path.scratch_reuses", MetricScope::kNonDeterministic);
  Counter& scratch_grows = MetricsRegistry::global().counter(
      "path.scratch_grows", MetricScope::kNonDeterministic);
};

PathMetrics& path_metrics() {
  static PathMetrics* const m = new PathMetrics();
  return *m;
}

/// Starts one search epoch on `scratch`, counting arena reuse vs growth.
void begin_search(const SmallGraph& graph, PathSearchScratch& scratch) {
  if (scratch.begin(graph.vertex_count(), graph.edge_count())) {
    path_metrics().scratch_reuses.add(1);
  } else {
    path_metrics().scratch_grows.add(1);
  }
}

void add_effort(const SearchEffort& effort) {
  PathMetrics& metrics = path_metrics();
  metrics.pops.add(effort.pops);
  metrics.relaxations.add(effort.relaxations);
  metrics.queue_pushes.add(effort.queue_pushes);
}

using HeapEntry = std::pair<double, std::int32_t>;

/// Min-heap push/pop over (cost, vertex) pairs; derive_tree relies on the
/// lexicographic (cost, id) pop order for canonical ties.
void heap_push(std::vector<HeapEntry>& heap, double d, std::int32_t v) {
  heap.emplace_back(d, v);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

HeapEntry heap_pop(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const HeapEntry top = heap.back();
  heap.pop_back();
  return top;
}

}  // namespace

// ---------------------------------------------------------------------------
// PathSearchScratch

bool PathSearchScratch::begin(std::int32_t vertex_count,
                              std::int32_t edge_count) {
  const auto vc = static_cast<std::size_t>(vertex_count);
  const auto ec = static_cast<std::size_t>(edge_count);
  bool grew = false;
  if (vertex_epoch_.size() < vc) {
    vertex_epoch_.resize(vc, 0);
    dist_.resize(vc, 0.0);
    parent_epoch_.resize(vc, 0);
    parent_.resize(vc, SmallGraph::kNone);
    cone_epoch_.resize(vc, 0);
    grew = true;
  }
  if (edge_epoch_.size() < ec) {
    edge_epoch_.resize(ec, 0);
    grew = true;
  }
  ++epoch_;
  if (epoch_ == 0) {  // 2^32 searches: wipe stamps so none alias the reborn epoch
    std::fill(vertex_epoch_.begin(), vertex_epoch_.end(), 0u);
    std::fill(parent_epoch_.begin(), parent_epoch_.end(), 0u);
    std::fill(edge_epoch_.begin(), edge_epoch_.end(), 0u);
    std::fill(cone_epoch_.begin(), cone_epoch_.end(), 0u);
    epoch_ = 1;
  }
  heap_.clear();
  return !grew;
}

// ---------------------------------------------------------------------------
// Reference search

namespace {

/// Reference search: plain binary-heap Dijkstra settling the whole alive
/// component (modulo skip_edge) over the epoch-stamped scratch labels. When `record` is non-null the settle
/// sequence is captured into it (seq/settle_order), which is what the
/// cone repair needs: with zero-weight edges a vertex's contributing
/// predecessor can carry a *higher* id at equal distance (the head only
/// enters the heap after the predecessor's relaxation), so (dist, id)
/// order cannot reconstruct who fed whom — the actual pop order can.
void dijkstra_search(const SmallGraph& graph, std::int32_t source,
                     std::int32_t skip_edge, PathSearchScratch& scratch,
                     SearchEffort& effort, SearchCache* record = nullptr) {
  if (record != nullptr) {
    record->seq.assign(static_cast<std::size_t>(graph.vertex_count()), -1);
    record->settle_order.clear();
  }
  std::vector<HeapEntry>& heap = scratch.heap();
  scratch.set_dist(source, 0.0);
  heap_push(heap, 0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap_pop(heap);
    ++effort.pops;
    if (d > scratch.dist(v)) continue;  // stale entry
    if (record != nullptr &&
        record->seq[static_cast<std::size_t>(v)] < 0) {
      record->seq[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(record->settle_order.size());
      record->settle_order.push_back(v);
    }
    for (const std::int32_t e : graph.incident_edges(v)) {
      if (e == skip_edge) continue;
      const std::int32_t w = graph.other_end(e, v);
      const double nd = d + graph.edge(e).weight;
      if (nd < scratch.dist(w)) {
        scratch.set_dist(w, nd);
        ++effort.relaxations;
        heap_push(heap, nd, w);
        ++effort.queue_pushes;
      }
    }
  }
}

/// Derives the canonical tentative tree from the distance labels alone.
///
/// Pass 1 resolves a canonical parent per vertex by a tight-edge Dijkstra:
/// starting from the source, vertices are popped in (dist, id) order and
/// expand their incident edges in adjacency (edge-insertion) order; an edge
/// (v, w) is *tight* when dist[v] + weight == dist[w] bitwise, and the
/// first tight expansion to reach an unresolved w fixes its parent. Every
/// input that can influence a parent — the labels, the pop order, the
/// adjacency order — is the same whether the labels came from a full
/// search or a cone repair, so both engines derive the identical tree.
///
/// Pass 2 walks each terminal's parent chain in terminal order, emitting
/// unmarked edges until it hits the source or an already-marked edge —
/// the same walk (and therefore the same edge output order, on which
/// downstream float summation depends) the router has always done.
void derive_tree(const SmallGraph& graph, std::int32_t source,
                 const std::vector<std::int32_t>& terminals,
                 std::int32_t skip_edge, PathSearchScratch& scratch,
                 std::vector<std::int32_t>* out) {
  std::vector<HeapEntry>& heap = scratch.heap();
  heap.clear();
  scratch.set_parent_edge(source, SmallGraph::kNone);
  heap_push(heap, 0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap_pop(heap);
    for (const std::int32_t e : graph.incident_edges(v)) {
      if (e == skip_edge) continue;
      const std::int32_t w = graph.other_end(e, v);
      if (scratch.parent_edge(w) != SmallGraph::kNone || w == source) continue;
      if (d + graph.edge(e).weight == scratch.dist(w)) {
        scratch.set_parent_edge(w, e);
        heap_push(heap, scratch.dist(w), w);
      }
    }
  }

  out->clear();
  for (const std::int32_t tv : terminals) {
    BGR_CHECK_MSG(scratch.dist(tv) != PathSearchScratch::kInf,
                  "terminal unreachable in tentative tree");
    std::int32_t v = tv;
    while (v != source) {
      const std::int32_t pe = scratch.parent_edge(v);
      BGR_CHECK_MSG(pe != SmallGraph::kNone,
                    "reachable terminal has no canonical parent chain");
      if (scratch.edge_marked(pe)) break;
      scratch.mark_edge(pe);
      out->push_back(pe);
      v = graph.other_end(pe, v);
    }
  }
}

}  // namespace

SearchEffort path_search_tree(const SmallGraph& graph, std::int32_t source,
                              const std::vector<std::int32_t>& terminals,
                              std::int32_t skip_edge,
                              PathSearchScratch& scratch,
                              std::vector<std::int32_t>* out) {
  SearchEffort effort;
  begin_search(graph, scratch);
  dijkstra_search(graph, source, skip_edge, scratch, effort);
  derive_tree(graph, source, terminals, skip_edge, scratch, out);

  path_metrics().searches.add(1);
  add_effort(effort);
  return effort;
}

namespace {

/// Dependency-cone repair against a valid SearchCache (DESIGN.md §11).
///
/// The cone of `skip_edge` is the least set C of settled vertices such
/// that every *contributing* in-edge of a member — an edge (x, v) with
/// cache.dist[x] + weight bitwise equal to cache.dist[v] and x settled
/// strictly earlier in the recorded sequence — is either skip_edge itself
/// or leaves from C. The recorded sequence, not (dist, id) order, is what
/// makes the sweep well-founded: zero-weight edges let a higher-id
/// predecessor settle first, and only the actual pop order knows that.
/// Vertices outside C keep their cached labels bitwise (some surviving
/// contributing chain still achieves their min, and deletion can only
/// lengthen distances); vertices inside C are re-labeled by a
/// boundary-seeded mini-Dijkstra whose candidate sums are drawn from the
/// same (label + weight) value set a from-scratch search would form, so
/// the repaired labels — and hence the derived tree — are bit-identical.
///
/// Returns true when the cached tree can be returned verbatim: the cone
/// is empty (no label changed) and skip_edge is not a canonical tree edge
/// (no parent choice involved it). Otherwise the caller must run
/// derive_tree over the repaired labels.
bool repair_with_cache(const SmallGraph& graph, const SearchCache& cache,
                       std::int32_t skip_edge, PathSearchScratch& scratch,
                       SearchEffort& effort) {
  std::vector<std::int32_t>& cone = scratch.vertex_list();
  cone.clear();
  // Sweep in settle order (source first, never in the cone): when v is
  // classified, every earlier-settled x already is.
  for (std::size_t i = 1; i < cache.settle_order.size(); ++i) {
    const std::int32_t v = cache.settle_order[i];
    const std::int32_t sv = cache.seq[static_cast<std::size_t>(v)];
    const double dv = cache.dist[static_cast<std::size_t>(v)];
    bool safe = false;
    for (const std::int32_t e : graph.incident_edges(v)) {
      if (e == skip_edge) continue;
      const std::int32_t x = graph.other_end(e, v);
      const std::int32_t sx = cache.seq[static_cast<std::size_t>(x)];
      if (sx < 0 || sx >= sv || scratch.in_cone(x)) continue;
      if (cache.dist[static_cast<std::size_t>(x)] + graph.edge(e).weight ==
          dv) {
        safe = true;
        break;
      }
    }
    if (!safe) {
      scratch.mark_cone(v);
      cone.push_back(v);
    }
  }

  if (cone.empty() && !cache.in_tree[static_cast<std::size_t>(skip_edge)]) {
    return true;
  }

  // Non-cone labels are final: copy them verbatim. Cone labels restart
  // from their best surviving boundary crossing and settle cone-internally
  // (relaxing into a non-cone vertex could never improve it: deletion only
  // lengthens distances, and its cached label is already the no-skip min).
  for (const std::int32_t v : cache.settle_order) {
    if (!scratch.in_cone(v)) {
      scratch.set_dist(v, cache.dist[static_cast<std::size_t>(v)]);
    }
  }
  std::vector<HeapEntry>& heap = scratch.heap();
  for (const std::int32_t v : cone) {
    double best = PathSearchScratch::kInf;
    for (const std::int32_t e : graph.incident_edges(v)) {
      if (e == skip_edge) continue;
      const std::int32_t x = graph.other_end(e, v);
      if (cache.seq[static_cast<std::size_t>(x)] < 0 || scratch.in_cone(x)) {
        continue;
      }
      const double nd =
          cache.dist[static_cast<std::size_t>(x)] + graph.edge(e).weight;
      if (nd < best) best = nd;
    }
    if (best != PathSearchScratch::kInf) {
      scratch.set_dist(v, best);
      ++effort.relaxations;
      heap_push(heap, best, v);
      ++effort.queue_pushes;
    }
  }
  while (!heap.empty()) {
    const auto [d, v] = heap_pop(heap);
    ++effort.pops;
    if (d > scratch.dist(v)) continue;  // stale entry
    for (const std::int32_t e : graph.incident_edges(v)) {
      if (e == skip_edge) continue;
      const std::int32_t w = graph.other_end(e, v);
      if (!scratch.in_cone(w)) continue;  // only cone labels can change
      const double nd = d + graph.edge(e).weight;
      if (nd < scratch.dist(w)) {
        scratch.set_dist(w, nd);
        ++effort.relaxations;
        heap_push(heap, nd, w);
        ++effort.queue_pushes;
      }
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// PathSearchEngine

PathSearchEngine::PathSearchEngine(PathSearchBackend backend,
                                   const ExecContext* exec)
    : backend_(backend), exec_(exec) {
  const std::int32_t slots = exec != nullptr ? exec->thread_count() : 1;
  scratch_.reserve(static_cast<std::size_t>(slots));
  for (std::int32_t i = 0; i < slots; ++i) {
    scratch_.push_back(std::make_unique<PathSearchScratch>());
  }
}

PathSearchEngine::~PathSearchEngine() = default;

void PathSearchEngine::refresh_cache(const SmallGraph& graph,
                                     std::int32_t source,
                                     const std::vector<std::int32_t>& terminals,
                                     SearchCache* cache) {
  const std::int32_t slot = exec_ != nullptr ? exec_->current_slot() : 0;
  BGR_CHECK(slot >= 0 &&
            slot < static_cast<std::int32_t>(scratch_.size()));
  PathSearchScratch& scratch = *scratch_[static_cast<std::size_t>(slot)];
  SearchEffort effort;
  cache->valid = false;

  begin_search(graph, scratch);
  dijkstra_search(graph, source, SmallGraph::kNone, scratch, effort, cache);
  cache->dist.assign(static_cast<std::size_t>(graph.vertex_count()),
                     PathSearchScratch::kInf);
  for (const std::int32_t v : cache->settle_order) {
    cache->dist[static_cast<std::size_t>(v)] = scratch.dist(v);
  }
  derive_tree(graph, source, terminals, SmallGraph::kNone, scratch,
              &cache->tree);
  cache->in_tree.assign(static_cast<std::size_t>(graph.edge_count()), 0);
  for (const std::int32_t e : cache->tree) {
    cache->in_tree[static_cast<std::size_t>(e)] = 1;
  }
  cache->valid = true;

  path_metrics().cache_builds.add(1);
  add_effort(effort);
  tally(effort);
}

void PathSearchEngine::tentative_tree(const SmallGraph& graph,
                                      const SearchCache* cache,
                                      std::int32_t source,
                                      const std::vector<std::int32_t>& terminals,
                                      std::int32_t skip_edge,
                                      std::vector<std::int32_t>* out) {
  const std::int32_t slot = exec_ != nullptr ? exec_->current_slot() : 0;
  BGR_CHECK(slot >= 0 &&
            slot < static_cast<std::int32_t>(scratch_.size()));
  searches_.fetch_add(1, std::memory_order_relaxed);
  PathMetrics& metrics = path_metrics();

  if (backend_ == PathSearchBackend::kCached) {
    BGR_CHECK_MSG(cache != nullptr && cache->valid,
                  "cached path search queried without a valid cache");
    BGR_CHECK(cache->dist.size() ==
                  static_cast<std::size_t>(graph.vertex_count()) &&
              cache->in_tree.size() ==
                  static_cast<std::size_t>(graph.edge_count()));
    metrics.searches.add(1);
    if (skip_edge == SmallGraph::kNone) {
      // The cache *is* the no-skip answer.
      *out = cache->tree;
      metrics.cache_hits.add(1);
      return;
    }
    PathSearchScratch& scratch = *scratch_[static_cast<std::size_t>(slot)];
    SearchEffort effort;
    begin_search(graph, scratch);
    if (repair_with_cache(graph, *cache, skip_edge, scratch, effort)) {
      *out = cache->tree;
      metrics.cache_hits.add(1);
      return;
    }
    derive_tree(graph, source, terminals, skip_edge, scratch, out);
    metrics.cone_repairs.add(1);
    add_effort(effort);
    tally(effort);
    return;
  }

  tally(path_search_tree(graph, source, terminals, skip_edge,
                         *scratch_[static_cast<std::size_t>(slot)], out));
}

void PathSearchEngine::tally(const SearchEffort& effort) {
  pops_.fetch_add(effort.pops, std::memory_order_relaxed);
  relaxations_.fetch_add(effort.relaxations, std::memory_order_relaxed);
}

PathSearchStats PathSearchEngine::stats() const {
  PathSearchStats s;
  s.searches = searches_.load(std::memory_order_relaxed);
  s.pops = pops_.load(std::memory_order_relaxed);
  s.relaxations = relaxations_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bgr
