#include "bgr/route/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bgr/common/log.hpp"
#include "bgr/common/natural_order.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/exec/parallel.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/obs/trace.hpp"
#include "bgr/route/selection_index.hpp"

namespace bgr {

namespace {

/// Router metrics. Deletions, reroutes, graph builds and the selection
/// index's work counters are semantic: which key halves go stale after a
/// commit is a function of values only, so the same re-fills and sifts run
/// whether the timing re-fills fan out or not. `route.score_cache_miss`
/// counts re-filled halves (select.rescored_timing + select.rescored_density);
/// `route.score_cache_hit` counts live candidates whose cached key a
/// selection round reused (nondeterministic scope, so semantic diffs skip
/// it).
struct RouteMetrics {
  Counter& deleted_edges = MetricsRegistry::global().counter(
      "route.deleted_edges", MetricScope::kSemantic);
  Counter& reroutes = MetricsRegistry::global().counter(
      "route.reroutes", MetricScope::kSemantic);
  Counter& graphs_built = MetricsRegistry::global().counter(
      "route.graphs_built", MetricScope::kSemantic);
  Counter& score_miss = MetricsRegistry::global().counter(
      "route.score_cache_miss", MetricScope::kSemantic);
  Counter& score_hit = MetricsRegistry::global().counter(
      "route.score_cache_hit", MetricScope::kNonDeterministic);
  Counter& rescored_timing = MetricsRegistry::global().counter(
      "select.rescored_timing", MetricScope::kSemantic);
  Counter& rescored_density = MetricsRegistry::global().counter(
      "select.rescored_density", MetricScope::kSemantic);
  Counter& sifted = MetricsRegistry::global().counter(
      "select.sifted", MetricScope::kSemantic);
  Counter& feed_cells = MetricsRegistry::global().counter(
      "layout.feed_cells_added", MetricScope::kSemantic);
  Counter& widen_pitches = MetricsRegistry::global().counter(
      "layout.widen_pitches", MetricScope::kSemantic);
  Histogram& graph_edges = MetricsRegistry::global().histogram(
      "route.graph_edges", MetricScope::kSemantic);
  /// Sharded-deletion decomposition (DESIGN.md §13). All semantic: the
  /// decomposition is a pure function of the net footprints and each
  /// shard's loop is value-driven, so every count matches at any thread
  /// count (worker adds commute through the atomic counters).
  Counter& shard_components = MetricsRegistry::global().counter(
      "shard.components", MetricScope::kSemantic);
  Counter& shard_commits = MetricsRegistry::global().counter(
      "shard.commits", MetricScope::kSemantic);
  Counter& shard_fallbacks = MetricsRegistry::global().counter(
      "shard.fallbacks", MetricScope::kSemantic);
  Histogram& shard_nets = MetricsRegistry::global().histogram(
      "shard.nets", MetricScope::kSemantic);
};

RouteMetrics& route_metrics() {
  static RouteMetrics* const m = new RouteMetrics();
  return *m;
}

/// Minimum number of stale *timing* halves before a re-fill fans out. One
/// half is a tentative-tree search plus an STA evaluation (a few µs), so
/// below this a region's wake-up cost eats the saving — at 32, the 10k
/// preset's improve_area ran ~2.6k regions of one net's candidates each.
/// Purely a performance knob: the halves are identical either way.
/// Density halves (O(log W) range queries) always re-fill serially.
constexpr std::int64_t kParallelScoreMin = 128;
/// Timing re-fills per chunk (one is a tentative-tree search plus an STA
/// evaluation, so chunks stay small for load balance).
constexpr std::int64_t kScoreGrain = 16;

}  // namespace

GlobalRouter::GlobalRouter(Netlist& netlist, Placement placement,
                           TechParams tech,
                           std::vector<PathConstraint> constraints,
                           RouterOptions options)
    : netlist_(netlist),
      placement_(std::move(placement)),
      tech_(tech),
      options_(options),
      constraints_(std::move(constraints)),
      exec_(options.shared_pool != nullptr
                ? std::make_unique<ExecContext>(options.shared_pool)
                : std::make_unique<ExecContext>(
                      options.threads == 0 ? ExecContext::hardware_threads()
                                           : options.threads)),
      path_engine_(std::make_unique<PathSearchEngine>(options.path_search,
                                                      exec_.get())) {}

GlobalRouter::~GlobalRouter() = default;

const RoutingGraph& GlobalRouter::net_graph(NetId net) const {
  const auto& g = graphs_.at(net);
  BGR_CHECK(g != nullptr);
  return *g;
}

double GlobalRouter::net_length_um(NetId net) const {
  return net_graph(net).alive_length_um();
}

NetId GlobalRouter::primary_of(NetId net) const {
  const Net& n = netlist_.net(net);
  if (n.is_differential() && !n.diff_primary) return n.diff_partner;
  return net;
}

bool GlobalRouter::timing_active_for(NetId net) const {
  return options_.use_constraints &&
         !analyzer_->constraints_of_net(net).empty();
}

std::int32_t GlobalRouter::net_density_width(NetId net) const {
  // Each member of a differential pair contributes its own 1-pitch track;
  // a w-pitch net occupies w tracks everywhere.
  return netlist_.net(net).pitch_width;
}

void GlobalRouter::build_all_graphs() {
  ScopedSpan span("build_graphs", "route");
  graphs_.clear();
  graphs_.resize(static_cast<std::size_t>(netlist_.net_count()));
  // Each G_r(n) depends only on the (const) netlist, placement and
  // feedthrough assignment, so all nets build concurrently — the shadow of
  // a differential pair reads its primary's *assignment*, not its graph.
  parallel_for(
      *exec_, netlist_.net_count(),
      [&](std::int64_t i) {
        const NetId n{static_cast<std::int32_t>(i)};
        const Net& net = netlist_.net(n);
        if (net.is_differential() && !net.diff_primary) {
          graphs_[n] = std::make_unique<RoutingGraph>(
              netlist_, placement_, tech_, *assignment_, n, net.diff_partner,
              1);
        } else {
          graphs_[n] = std::make_unique<RoutingGraph>(netlist_, placement_,
                                                      tech_, *assignment_, n);
        }
        // Attach inside the region so the search caches (one reference
        // Dijkstra per net) also build concurrently.
        graphs_[n]->set_path_search(path_engine_.get());
      },
      /*grain=*/1);
  for (const NetId n : netlist_.nets()) {
    route_metrics().graphs_built.add(1);
    route_metrics().graph_edges.record(graphs_[n]->graph().edge_count());
  }
  // Differential pairs must be homogeneous so edge ids mirror one-to-one.
  for (const NetId n : netlist_.nets()) {
    const Net& net = netlist_.net(n);
    if (!net.is_differential() || !net.diff_primary) continue;
    const RoutingGraph& a = *graphs_[n];
    const RoutingGraph& b = *graphs_[net.diff_partner];
    BGR_CHECK_MSG(a.graph().edge_count() == b.graph().edge_count(),
                  "differential pair graphs not homogeneous: " + net.name);
    for (std::int32_t e = 0; e < a.graph().edge_count(); ++e) {
      BGR_CHECK(a.edge_info(e).kind == b.edge_info(e).kind);
    }
  }
  for (const NetId n : netlist_.nets()) {
    register_graph_density(n);
    refresh_net_estimate(n);
  }
  analyzer_->update_all();
}

void GlobalRouter::register_graph_density(NetId net) {
  const RoutingGraph& g = *graphs_[net];
  const std::int32_t w = net_density_width(net);
  for (const auto e : g.alive_edges()) {
    const RouteEdgeInfo& info = g.edge_info(e);
    if (!info.is_trunk()) continue;
    density_->add_total(info.channel, info.span, w);
    if (g.is_bridge(e)) density_->add_bridge(info.channel, info.span, w);
  }
}

void GlobalRouter::unregister_graph_density(NetId net) {
  const RoutingGraph& g = *graphs_[net];
  const std::int32_t w = net_density_width(net);
  for (const auto e : g.alive_edges()) {
    const RouteEdgeInfo& info = g.edge_info(e);
    if (!info.is_trunk()) continue;
    density_->remove_total(info.channel, info.span, w);
    if (g.is_bridge(e)) density_->remove_bridge(info.channel, info.span, w);
  }
}

double GlobalRouter::net_extra_um(NetId net) const {
  return extra_um_.empty() ? 0.0 : extra_um_.at(net);
}

void GlobalRouter::refresh_net_estimate(NetId net,
                                        TimingAnalyzer::UpdateSlot* slot) {
  const RoutingGraph& g = *graphs_[net];
  const double cap =
      tech_.wire_cap_pf(g.estimated_length_um() + net_extra_um(net),
                        netlist_.net(net).pitch_width);
  if (options_.delay_model == DelayModel::kElmoreRC) {
    const auto rc = g.elmore(tech_, netlist_.net(net).pitch_width,
                             [&](TerminalId t) {
                               return netlist_.terminal_fanin_cap_pf(t);
                             });
    delay_graph_->set_net_rc(net, cap, rc.sink_wire_ps);
  } else {
    delay_graph_->set_net_cap(net, cap);
  }
  if (timing_active_for(net)) {
    if (slot != nullptr) {
      analyzer_->update_for_net(net, *slot);
    } else {
      analyzer_->update_for_net(net);
    }
  }
}

void GlobalRouter::span_density(NetId net, std::int32_t edge,
                                EdgeDensityParams span[2]) const {
  if (!options_.use_density_criteria) return;
  const RouteEdgeInfo& info = graphs_[net]->edge_info(edge);
  span[0] = density_->edge_params(info.channel, info.span);
  if (info.kind == RouteEdgeKind::kFeed) {
    span[1] = density_->edge_params(info.channel + 1, info.span);
  }
}

void GlobalRouter::score_density(NetId net, std::int32_t edge,
                                 const EdgeDensityParams span[2],
                                 SelectionKey& key) const {
  const RouteEdgeInfo& info = graphs_[net]->edge_info(edge);
  key.neg_length = -info.length_um;
  key.branch = info.is_trunk() ? 0 : 1;
  if (!options_.use_density_criteria) return;
  struct Tiers {
    std::int32_t f_min, n_min, f_max, n_max;
  };
  auto tiers = [&](std::int32_t channel, const EdgeDensityParams& ep) {
    const ChannelDensityParams& cp = density_->channel_params(channel);
    return Tiers{cp.c_min - ep.d_min, cp.nc_min - ep.nd_min,
                 cp.c_max - ep.d_max, cp.nc_max - ep.nd_max};
  };
  Tiers t = tiers(info.channel, span[0]);
  if (info.kind == RouteEdgeKind::kFeed) {
    // A feedthrough edge touches both adjacent channels at one column;
    // score it against the more critical of the two.
    const Tiers hi = tiers(info.channel + 1, span[1]);
    const bool lo_worse =
        t.f_min != hi.f_min ? t.f_min < hi.f_min : t.f_max < hi.f_max;
    if (!lo_worse) t = hi;
  }
  key.f_min = t.f_min;
  key.n_min = t.n_min;
  key.f_max = t.f_max;
  key.n_max = t.n_max;
}

void GlobalRouter::score_timing(NetId net, std::int32_t edge,
                                SelectionKey& key) const {
  key.critical_count = 0;
  key.global_delay = 0.0;
  key.local_delay = 0.0;
  if (!options_.use_constraints || !options_.use_delay_criteria) return;
  auto accumulate = [&](NetId member, const RoutingGraph& mg) {
    if (analyzer_->constraints_of_net(member).empty()) return;
    const double len = mg.estimated_length_um(edge) + net_extra_um(member);
    const double cap = tech_.wire_cap_pf(len, netlist_.net(member).pitch_width);
    DelayCriteria dc;
    if (options_.use_net_budgets) {
      dc = budget_criteria(member,
                           delay_graph_->net_arc_delay_for_cap(member, cap));
    } else if (options_.delay_model == DelayModel::kElmoreRC) {
      // Worst-sink arc delay after the deletion: lumped part plus the
      // largest per-sink Elmore wire term (pessimistic, in the spirit of
      // the LM(e, P) estimate).
      const auto rc = mg.elmore(tech_, netlist_.net(member).pitch_width,
                                [&](TerminalId t) {
                                  return netlist_.terminal_fanin_cap_pf(t);
                                },
                                edge);
      double worst_extra = 0.0;
      for (const auto& [term, ps] : rc.sink_wire_ps) {
        (void)term;
        worst_extra = std::max(worst_extra, ps);
      }
      dc = analyzer_->evaluate_arc_delay(
          member, delay_graph_->net_arc_delay_for_cap(member, cap) + worst_extra);
    } else {
      dc = analyzer_->evaluate(member, cap);
    }
    key.critical_count += dc.critical_count;
    key.global_delay += dc.global_delay;
    key.local_delay += dc.local_delay;
  };
  accumulate(net, *graphs_[net]);
  const Net& n = netlist_.net(net);
  if (n.is_differential()) {
    accumulate(n.diff_partner, *graphs_[n.diff_partner]);
  }
}

SelectionKey GlobalRouter::compute_key(NetId net, std::int32_t edge) const {
  SelectionKey key;
  EdgeDensityParams span[2];
  span_density(net, edge, span);
  score_density(net, edge, span, key);
  score_timing(net, edge, key);
  return key;
}

/// Selection state of one deletion loop (DESIGN.md §17): the candidates in
/// a SelectionIndex, plus reverse indexes from net and channel to the
/// candidates whose key halves read them. After a commit, absorb() drops
/// the candidates whose edge died and marks the halves whose inputs moved:
///   timing   every candidate of the committed pair, and of every net of a
///            constraint whose version moved;
///   density  every candidate whose span overlaps an updated chart span
///            (re-query its span maxima), and every other candidate of a
///            channel whose aggregates changed (re-combine only).
/// refill() then re-computes exactly the marked halves and re-sifts the
/// candidates whose key changed. Every other key is unchanged by
/// construction, so the index top equals a full rescan's winner.
class GlobalRouter::Selection {
 public:
  Selection(GlobalRouter& router, std::vector<Candidate> candidates,
            bool by_name)
      : router_(router),
        index_(router.order_),
        cand_(std::move(candidates)),
        timing_(router.options_.use_constraints &&
                router.options_.use_delay_criteria),
        density_(router.options_.use_density_criteria) {
    std::sort(cand_.begin(), cand_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.net != b.net ? a.net < b.net : a.edge < b.edge;
              });
    struct Item {
      std::int32_t channel;
      Span span;
    };
    std::vector<Item> items;
    for (std::size_t i = 0; i < cand_.size(); ++i) {
      const Candidate& c = cand_[i];
      const auto slot = index_.add(by_name ? router.name_rank_[c.net] : 0,
                                   c.edge);
      if (nets_.empty() || nets_.back() != c.net) {
        nets_.push_back(c.net);
        net_first_.push_back(slot);
      }
      const RouteEdgeInfo& info = router.graphs_[c.net]->edge_info(c.edge);
      items.push_back(Item{info.channel, Span{info.span.lo, info.span.hi, slot}});
      if (info.kind == RouteEdgeKind::kFeed) {
        items.push_back(
            Item{info.channel + 1, Span{info.span.lo, info.span.hi, slot}});
      }
      if (!timing_) {
        index_.entry(slot).score.stale &= static_cast<std::uint8_t>(~kTimingHalf);
      }
      stale_.push_back(slot);
    }
    net_first_.push_back(static_cast<std::int32_t>(cand_.size()));
    span_params_.resize(2 * cand_.size());
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.channel != b.channel ? a.channel < b.channel
                                    : a.span.slot < b.span.slot;
    });
    for (const Item& it : items) {
      if (channels_.empty() || channels_.back() != it.channel) {
        channels_.push_back(it.channel);
        chan_first_.push_back(static_cast<std::int32_t>(spans_.size()));
        chan_seen_.push_back(router.density_->aggregate_version(it.channel));
      }
      spans_.push_back(it.span);
    }
    chan_first_.push_back(static_cast<std::int32_t>(spans_.size()));
    chan_end_.assign(chan_first_.begin() + 1, chan_first_.end());
  }

  [[nodiscard]] std::int32_t top() const { return index_.top(); }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] Candidate candidate(std::int32_t slot) const {
    return cand_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const SelectionKey& key(std::int32_t slot) const {
    return index_.entry(slot).score.key;
  }

  /// Cached key of a live candidate; null once it left the index.
  [[nodiscard]] const SelectionKey* cached_key(Candidate c) const {
    const std::int32_t slot = slot_of(c.net, c.edge);
    return slot >= 0 && index_.contains(slot) ? &index_.entry(slot).score.key
                                              : nullptr;
  }

  /// Drops the dead candidates and marks the stale halves of one commit.
  void absorb(CommitEffects& fx) {
    for (const std::int32_t e : fx.dead_edges) {
      const std::int32_t slot = slot_of(fx.net, e);
      if (slot >= 0) index_.erase(slot);
    }
    if (timing_) {
      mark_net(fx.net);
      for (const ConstraintId p : fx.moved) {
        for (const NetId m : router_.analyzer_->nets_of_constraint(p)) {
          mark_net(m);
        }
      }
    }
    if (density_) mark_charts(fx.charts);
  }

  /// Re-fills every marked half of a live candidate and re-sifts the ones
  /// whose key moved. Called with every key clean except the marked ones;
  /// the first call fills every key in place and builds the heap. Later
  /// re-fills are computed aside and written back one at a time, each
  /// followed by its sift: a heap repairs one changed key at a time, not a
  /// batch.
  void refill(bool parallel) {
    RouteMetrics& metrics = route_metrics();
    timing_work_.clear();
    keys_.clear();
    std::size_t live = 0;
    for (const std::int32_t slot : stale_) {
      if (built_ && !index_.contains(slot)) continue;
      stale_[live] = slot;
      if (built_) keys_.push_back(index_.entry(slot).score.key);
      if ((index_.entry(slot).score.stale & kTimingHalf) != 0) {
        timing_work_.push_back(static_cast<std::int32_t>(live));
      }
      ++live;
    }
    stale_.resize(live);
    auto target = [&](std::size_t i) -> SelectionKey& {
      return built_ ? keys_[i] : index_.entry(stale_[i]).score.key;
    };
    auto fill_timing = [&](std::int64_t k) {
      const auto i = static_cast<std::size_t>(
          timing_work_[static_cast<std::size_t>(k)]);
      const Candidate& c = cand_[static_cast<std::size_t>(stale_[i])];
      router_.score_timing(c.net, c.edge, target(i));
    };
    const auto timing_count = static_cast<std::int64_t>(timing_work_.size());
    if (parallel && timing_count >= kParallelScoreMin) {
      parallel_for(*router_.exec_, timing_count, fill_timing, kScoreGrain);
    } else {
      for (std::int64_t k = 0; k < timing_count; ++k) fill_timing(k);
    }
    std::int64_t density_count = 0;
    std::int64_t sifted = 0;
    for (std::size_t i = 0; i < stale_.size(); ++i) {
      const std::int32_t slot = stale_[i];
      ScoreCache& sc = index_.entry(slot).score;
      if ((sc.stale & kDensityHalf) != 0) {
        const Candidate& c = cand_[static_cast<std::size_t>(slot)];
        EdgeDensityParams* span =
            span_params_.data() + 2 * static_cast<std::size_t>(slot);
        if ((sc.stale & kDensitySpan) != 0) {
          router_.span_density(c.net, c.edge, span);
        }
        router_.score_density(c.net, c.edge, span, target(i));
        ++density_count;
      }
      sc.stale = 0;
      if (built_ && key_compare(sc.key, keys_[i], router_.order_) != 0) {
        sc.key = keys_[i];
        index_.update(slot);
        ++sifted;
      }
    }
    if (!built_) {
      index_.build();
      built_ = true;
    }
    metrics.rescored_timing.add(timing_count);
    metrics.rescored_density.add(density_count);
    metrics.score_miss.add(timing_count + density_count);
    metrics.sifted.add(sifted);
    metrics.score_hit.add(static_cast<std::int64_t>(index_.size()) -
                          static_cast<std::int64_t>(stale_.size()));
    stale_.clear();
  }

 private:
  struct Span {
    std::int32_t lo;
    std::int32_t hi;
    std::int32_t slot;
  };

  void mark(std::int32_t slot, std::uint8_t half) {
    if (!index_.contains(slot)) return;
    ScoreCache& sc = index_.entry(slot).score;
    if (sc.stale == 0) stale_.push_back(slot);
    sc.stale |= half;
  }

  [[nodiscard]] std::int32_t local_net(NetId net) const {
    const auto it = std::lower_bound(nets_.begin(), nets_.end(), net);
    return it != nets_.end() && *it == net
               ? static_cast<std::int32_t>(it - nets_.begin())
               : -1;
  }

  /// Slot of candidate (net, edge), or -1 when it is not in this loop.
  [[nodiscard]] std::int32_t slot_of(NetId net, std::int32_t edge) const {
    const std::int32_t i = local_net(net);
    if (i < 0) return -1;
    const auto first = cand_.begin() + net_first_[static_cast<std::size_t>(i)];
    const auto last = cand_.begin() + net_first_[static_cast<std::size_t>(i) + 1];
    const auto it = std::lower_bound(
        first, last, edge,
        [](const Candidate& c, std::int32_t e) { return c.edge < e; });
    return it != last && it->edge == edge
               ? static_cast<std::int32_t>(it - cand_.begin())
               : -1;
  }

  /// Timing half of every live candidate the net's estimate feeds: its
  /// own, or its primary's when it is a differential shadow.
  void mark_net(NetId net) {
    const std::int32_t i = local_net(router_.primary_of(net));
    if (i < 0) return;
    for (std::int32_t slot = net_first_[static_cast<std::size_t>(i)];
         slot < net_first_[static_cast<std::size_t>(i) + 1]; ++slot) {
      mark(slot, kTimingHalf);
    }
  }

  /// Density half of every live candidate an update of the charts moved:
  /// span overlap re-queries the span maxima, a changed channel aggregate
  /// re-combines every other candidate of the channel. One pass per
  /// touched channel, which also compacts the dead candidates out of it.
  void mark_charts(std::vector<std::pair<std::int32_t, IntInterval>>& charts) {
    std::sort(charts.begin(), charts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t t = 0; t < charts.size();) {
      const std::int32_t channel = charts[t].first;
      std::size_t t_end = t;
      while (t_end < charts.size() && charts[t_end].first == channel) ++t_end;
      const auto it =
          std::lower_bound(channels_.begin(), channels_.end(), channel);
      if (it != channels_.end() && *it == channel) {
        const auto i = static_cast<std::size_t>(it - channels_.begin());
        const std::uint64_t aggregate =
            router_.density_->aggregate_version(channel);
        const bool all = chan_seen_[i] != aggregate;
        chan_seen_[i] = aggregate;
        std::int32_t k = chan_first_[i];
        std::int32_t end = chan_end_[i];
        while (k < end) {
          const Span& s = spans_[static_cast<std::size_t>(k)];
          if (!index_.contains(s.slot)) {
            spans_[static_cast<std::size_t>(k)] =
                spans_[static_cast<std::size_t>(--end)];
            continue;
          }
          bool overlap = false;
          for (std::size_t u = t; u < t_end && !overlap; ++u) {
            overlap = s.lo <= charts[u].second.hi && charts[u].second.lo <= s.hi;
          }
          if (overlap) {
            mark(s.slot, kDensityHalf | kDensitySpan);
          } else if (all) {
            mark(s.slot, kDensityHalf);
          }
          ++k;
        }
        chan_end_[i] = end;
      }
      t = t_end;
    }
  }

  GlobalRouter& router_;
  SelectionIndex index_;
  std::vector<Candidate> cand_;        // slot → (net, edge), sorted
  bool timing_;
  bool density_;
  bool built_ = false;
  std::vector<NetId> nets_;            // distinct candidate nets, ascending
  std::vector<std::int32_t> net_first_;  // nets_[i] owns slots [first[i], first[i+1])
  std::vector<std::int32_t> channels_;   // distinct channels read, ascending
  std::vector<std::int32_t> chan_first_;  // channels_[i] owns spans_[first[i], end[i])
  std::vector<std::int32_t> chan_end_;    // live prefix end (dead ones compacted out)
  std::vector<std::uint64_t> chan_seen_;  // aggregate version last absorbed
  std::vector<Span> spans_;
  std::vector<EdgeDensityParams> span_params_;  // 2 per slot (span_density)
  std::vector<std::int32_t> stale_;    // slots with a stale half, each once
  std::vector<std::int32_t> timing_work_;  // indexes into stale_
  std::vector<SelectionKey> keys_;  // re-filled keys, parallel to stale_ once built
};

void GlobalRouter::run_selection(
    std::vector<Candidate> candidates, bool by_name, bool parallel,
    const std::function<void(Candidate, const SelectionKey&, CommitEffects&)>&
        commit,
    std::int64_t* scanned) {
  // The audit sees the candidate list the loop started from; its oracle
  // filters it the way the index drops dead candidates.
  const std::vector<Candidate> audit_list =
      selection_audit_ ? candidates : std::vector<Candidate>{};
  Selection selection(*this, std::move(candidates), by_name);
  parallel = parallel && !exec_->serial();
  selection.refill(parallel);
  CommitEffects fx;
  while (true) {
    if (scanned != nullptr) {
      *scanned += static_cast<std::int64_t>(selection.size());
    }
    const std::int32_t slot = selection.top();
    if (slot < 0) break;
    const Candidate chosen = selection.candidate(slot);
    if (selection_audit_) {
      selection_audit_(audit_list, chosen, [&](Candidate c) {
        return selection.cached_key(c);
      });
    }
    fx.net = chosen.net;
    fx.dead_edges.clear();
    fx.charts.clear();
    fx.moved.clear();
    commit(chosen, selection.key(slot), fx);
    selection.absorb(fx);
    selection.refill(parallel);
  }
}

void GlobalRouter::delete_in_graph(NetId net, std::int32_t edge,
                                   CommitEffects& fx, bool primary) {
  RoutingGraph& g = *graphs_[net];
  const std::int32_t w = net_density_width(net);
  const auto result = g.delete_edge(edge);
  for (const auto& removed : result.removed_edges) {
    if (primary) fx.dead_edges.push_back(removed.edge);
    const RouteEdgeInfo& info = g.edge_info(removed.edge);
    if (!info.is_trunk()) continue;
    density_->remove_total(info.channel, info.span, w);
    if (removed.was_bridge) {
      density_->remove_bridge(info.channel, info.span, w);
    }
    fx.charts.emplace_back(info.channel, info.span);
  }
  for (const auto nb : result.new_bridges) {
    if (primary) fx.dead_edges.push_back(nb);
    const RouteEdgeInfo& info = g.edge_info(nb);
    if (!info.is_trunk()) continue;
    density_->add_bridge(info.channel, info.span, w);
    fx.charts.emplace_back(info.channel, info.span);
  }
}

void GlobalRouter::apply_delete(NetId net, std::int32_t edge,
                                TimingAnalyzer::UpdateSlot* slot,
                                CommitEffects& fx) {
  // Versions of every constraint the pair belongs to, to report the ones
  // the estimate refresh moved.
  const Net& n = netlist_.net(net);
  fx.versions.clear();
  if (options_.use_constraints) {
    auto snapshot = [&](NetId member) {
      for (const ConstraintId p : analyzer_->constraints_of_net(member)) {
        fx.versions.emplace_back(p, analyzer_->version(p));
      }
    };
    snapshot(net);
    if (n.is_differential()) snapshot(n.diff_partner);
  }
  delete_in_graph(net, edge, fx, /*primary=*/true);
  refresh_net_estimate(net, slot);
  if (n.is_differential()) {
    // Mirrored deletion on the homogeneous shadow graph (§4.1).
    delete_in_graph(n.diff_partner, edge, fx, /*primary=*/false);
    refresh_net_estimate(n.diff_partner, slot);
  }
  for (const auto& [p, version] : fx.versions) {
    if (analyzer_->version(p) != version &&
        std::find(fx.moved.begin(), fx.moved.end(), p) == fx.moved.end()) {
      fx.moved.push_back(p);
    }
  }
}

void GlobalRouter::commit_delete(NetId net, std::int32_t edge,
                                 PhaseStats& stats, CommitEffects& fx) {
  apply_delete(net, edge, /*slot=*/nullptr, fx);
  ++stats.deletions;
  route_metrics().deleted_edges.add(1);
  if (options_.deletion_observer) options_.deletion_observer(net, edge);
}

bool GlobalRouter::run_sharded_deletion(
    const std::vector<Candidate>& candidates, PhaseStats& stats) {
  // Footprints of the nets that still own deletable edges. A net whose
  // graph is already a tree neither reads nor writes anything in the loop,
  // so it joins no shard (and cannot glue otherwise-independent components
  // together).
  std::vector<ShardNetInfo> infos;
  IdVector<NetId, std::int32_t> info_of;
  info_of.assign(static_cast<std::size_t>(netlist_.net_count()), -1);
  for (const Candidate& c : candidates) {
    if (info_of[c.net] >= 0) continue;
    info_of[c.net] = static_cast<std::int32_t>(infos.size());
    ShardNetInfo info;
    info.net = c.net;
    auto add_member = [&](NetId member) {
      // Channels of *all* alive edges, not just the current candidates:
      // pruned tails and freshly re-flagged bridges update density on any
      // of them, and candidate scoring reads the channel-wide aggregates.
      const RoutingGraph& g = *graphs_[member];
      for (const auto e : g.alive_edges()) {
        const RouteEdgeInfo& ei = g.edge_info(e);
        info.channels.push_back(ei.channel);
        if (ei.kind == RouteEdgeKind::kFeed) {
          info.channels.push_back(ei.channel + 1);
        }
      }
      if (options_.use_constraints) {
        for (const ConstraintId p : analyzer_->constraints_of_net(member)) {
          info.constraints.push_back(p.index());
        }
      }
    };
    add_member(c.net);
    const Net& n = netlist_.net(c.net);
    if (n.is_differential()) add_member(n.diff_partner);
    auto uniq = [](std::vector<std::int32_t>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    uniq(info.channels);
    uniq(info.constraints);
    infos.push_back(std::move(info));
  }

  shards_ = compute_shards(std::move(infos), density_->channel_count(),
                           analyzer_->constraint_count());
  route_metrics().shard_components.add(shards_.shard_count());
  for (const auto& members : shards_.shards) {
    route_metrics().shard_nets.record(
        static_cast<std::int64_t>(members.size()));
  }
  if (shards_.shard_count() <= 1) {
    // One interaction component: the global loop the caller falls back to
    // *is* that single shard's loop, minus the replay detour.
    route_metrics().shard_fallbacks.add(1);
    return false;
  }

  const auto shard_count = static_cast<std::size_t>(shards_.shard_count());
  std::vector<std::vector<Candidate>> per_shard(shard_count);
  for (const Candidate& c : candidates) {
    per_shard[static_cast<std::size_t>(
                  shards_.shard_of[static_cast<std::size_t>(info_of[c.net])])]
        .push_back(c);
  }

  // One timing slot per exec slot: workers run their STA refreshes through
  // private scratch and the caller folds the counters back after the join.
  std::vector<TimingAnalyzer::UpdateSlot> slots;
  slots.reserve(static_cast<std::size_t>(exec_->thread_count()));
  for (std::int32_t i = 0; i < exec_->thread_count(); ++i) {
    slots.emplace_back(*analyzer_);
  }

  // Each worker runs the exact serial greedy over its shard, recording
  // every commit with the key it was selected under. Cross-shard state is
  // disjoint, so that key equals the key the unsharded global loop would
  // see at the step where it commits the same edge — which is what makes
  // the replay below a faithful reconstruction of the serial order.
  struct CommitRec {
    NetId net;
    std::int32_t edge;
    SelectionKey key;  // key at selection == key at global commit time
  };
  std::vector<std::vector<CommitRec>> logs(shard_count);
  parallel_for(
      *exec_, static_cast<std::int64_t>(shard_count),
      [&](std::int64_t s) {
        std::vector<Candidate>& cand = per_shard[static_cast<std::size_t>(s)];
        std::vector<CommitRec>& log = logs[static_cast<std::size_t>(s)];
        TimingAnalyzer::UpdateSlot& slot =
            slots[static_cast<std::size_t>(exec_->current_slot())];
        std::int64_t scanned = 0;
        // The global loop's selection, minus the parallel re-fill —
        // regions never nest.
        run_selection(
            std::move(cand), /*by_name=*/true, /*parallel=*/false,
            [&](Candidate chosen, const SelectionKey& key, CommitEffects& fx) {
              log.push_back(CommitRec{chosen.net, chosen.edge, key});
              apply_delete(chosen.net, chosen.edge, &slot, fx);
            },
            &scanned);
        shards_.scans[static_cast<std::size_t>(s)] = scanned;
        shards_.commits[static_cast<std::size_t>(s)] =
            static_cast<std::int64_t>(log.size());
      },
      /*grain=*/1);
  for (auto& slot : slots) analyzer_->absorb(slot);

  // Canonical replay: k-way merge of the shard logs, always advancing the
  // best *front*. The serial loop's next commit is the minimum over all
  // candidates; within a shard that minimum is the shard's own next local
  // commit (nothing outside the shard can change its keys), so the global
  // minimum is the best front. Comparing fronts — never sorting whole
  // logs, since a shard's key sequence is not monotone — reproduces the
  // serial commit order exactly, and with it the observer call sequence
  // and stats.
  struct HeapEntry {
    SelectionKey key;
    const std::string* name;
    std::int32_t edge;
    std::int32_t shard;
  };
  auto better = [&](const HeapEntry& a, const HeapEntry& b) {
    if (key_less(a.key, b.key, order_)) return true;
    if (key_less(b.key, a.key, order_)) return false;
    return natural_less(*a.name, *b.name) ||
           (*a.name == *b.name && a.edge < b.edge);
  };
  // std::push_heap keeps the comparator's greatest on top; invert.
  auto heap_cmp = [&](const HeapEntry& a, const HeapEntry& b) {
    return better(b, a);
  };
  std::vector<HeapEntry> heap;
  std::vector<std::size_t> pos(shard_count, 0);
  auto push_front = [&](std::int32_t s) {
    const auto& log = logs[static_cast<std::size_t>(s)];
    const std::size_t i = pos[static_cast<std::size_t>(s)];
    if (i >= log.size()) return;
    heap.push_back(HeapEntry{log[i].key, &netlist_.net(log[i].net).name,
                             log[i].edge, s});
    std::push_heap(heap.begin(), heap.end(), heap_cmp);
  };
  for (std::size_t s = 0; s < shard_count; ++s) {
    push_front(static_cast<std::int32_t>(s));
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_cmp);
    const std::int32_t s = heap.back().shard;
    heap.pop_back();
    const CommitRec& rec =
        logs[static_cast<std::size_t>(s)][pos[static_cast<std::size_t>(s)]++];
    ++stats.deletions;
    route_metrics().deleted_edges.add(1);
    route_metrics().shard_commits.add(1);
    if (options_.deletion_observer) options_.deletion_observer(rec.net, rec.edge);
    push_front(s);
  }
  return true;
}

void GlobalRouter::compute_net_budgets() {
  // Huang-style budgeting: every net starts from its current (full
  // candidate graph, i.e. near-minimal) wiring delay and receives an even
  // share of each constraint's margin, divided by the number of nets on
  // that constraint's critical path. Nets under several constraints keep
  // the tightest budget.
  net_budget_ps_.assign(static_cast<std::size_t>(netlist_.net_count()),
                        std::numeric_limits<double>::infinity());
  for (const ConstraintId p : analyzer_->constraints()) {
    const auto path_nets = analyzer_->critical_path_nets(p);
    const double share =
        std::max(0.0, analyzer_->margin_ps(p)) /
        std::max<std::size_t>(path_nets.size(), 1);
    for (const NetId n : analyzer_->nets_of_constraint(p)) {
      const double budget = delay_graph_->net_arc_delay(n) + share;
      net_budget_ps_[n] = std::min(net_budget_ps_[n], budget);
    }
  }
}

DelayCriteria GlobalRouter::budget_criteria(NetId net,
                                            double new_arc_delay_ps) const {
  DelayCriteria out;
  const double budget = net_budget_ps_.at(net);
  if (!std::isfinite(budget)) return out;
  const double d_cur = delay_graph_->net_arc_delay(net);
  const double margin_new = budget - new_arc_delay_ps;
  const double margin_cur = budget - d_cur;
  if (margin_new <= 0.0) ++out.critical_count;
  const double scale = std::max(budget, 1.0);
  out.global_delay = penalty(margin_new, scale) - penalty(margin_cur, scale);
  out.local_delay = new_arc_delay_ps - d_cur;
  return out;
}

void GlobalRouter::initial_routing(PhaseStats& stats) {
  if (!options_.concurrent_initial) {
    // Sequential baseline: slack-ordered net-at-a-time reduction.
    const auto slacks = analyzer_->net_slacks();
    std::vector<NetId> order;
    for (const NetId n : netlist_.nets()) {
      const Net& net = netlist_.net(n);
      if (net.is_differential() && !net.diff_primary) continue;
      order.push_back(n);
    }
    std::stable_sort(order.begin(), order.end(), [&](NetId a, NetId b) {
      if (slacks.at(a) != slacks.at(b)) return slacks.at(a) < slacks.at(b);
      // Names, not ids: relabeling-invariant order (natural_order.hpp).
      return natural_less(netlist_.net(a).name, netlist_.net(b).name);
    });
    for (const NetId n : order) {
      reduce_net_to_tree(n, stats);
    }
    return;
  }

  std::vector<Candidate> candidates;
  for (const NetId n : netlist_.nets()) {
    const Net& net = netlist_.net(n);
    if (net.is_differential() && !net.diff_primary) continue;  // led by primary
    for (const auto e : graphs_[n]->non_bridge_edges()) {
      candidates.push_back(Candidate{n, e});
    }
  }

  // Key ties break on (net name, edge) rather than raw net ids: names
  // survive a relabeling of the netlist, so the deletion order (and thus
  // the routed result) is invariant under net-id permutation.
  std::vector<NetId> by_name;
  for (const NetId n : netlist_.nets()) by_name.push_back(n);
  std::sort(by_name.begin(), by_name.end(), [&](NetId a, NetId b) {
    return natural_less(netlist_.net(a).name, netlist_.net(b).name);
  });
  name_rank_.assign(by_name.size(), 0);
  for (std::size_t i = 0; i < by_name.size(); ++i) {
    name_rank_[by_name[i]] = static_cast<std::int32_t>(i);
  }

  if (options_.shard_deletion && run_sharded_deletion(candidates, stats)) {
    return;
  }
  run_selection(
      std::move(candidates), /*by_name=*/true, /*parallel=*/true,
      [&](Candidate chosen, const SelectionKey&, CommitEffects& fx) {
        commit_delete(chosen.net, chosen.edge, stats, fx);
      },
      nullptr);
}

void GlobalRouter::reduce_net_to_tree(NetId net, PhaseStats& stats) {
  std::vector<Candidate> candidates;
  for (const auto e : graphs_[net]->non_bridge_edges()) {
    candidates.push_back(Candidate{net, e});
  }
  run_selection(
      std::move(candidates), /*by_name=*/false, /*parallel=*/true,
      [&](Candidate chosen, const SelectionKey&, CommitEffects& fx) {
        commit_delete(chosen.net, chosen.edge, stats, fx);
      },
      nullptr);
}

void GlobalRouter::reroute_net(NetId net, PhaseStats& stats) {
  net = primary_of(net);
  const Net& n = netlist_.net(net);
  std::vector<NetId> members{net};
  if (n.is_differential()) members.push_back(n.diff_partner);
  for (const NetId member : members) {
    unregister_graph_density(member);
    if (member == net) {
      graphs_[member] = std::make_unique<RoutingGraph>(netlist_, placement_,
                                                       tech_, *assignment_,
                                                       member);
    } else {
      graphs_[member] = std::make_unique<RoutingGraph>(
          netlist_, placement_, tech_, *assignment_, member, net, 1);
    }
    graphs_[member]->set_path_search(path_engine_.get());
    route_metrics().graphs_built.add(1);
    route_metrics().graph_edges.record(graphs_[member]->graph().edge_count());
    register_graph_density(member);
    refresh_net_estimate(member);
  }
  reduce_net_to_tree(net, stats);
  ++stats.reroutes;
  route_metrics().reroutes.add(1);
}

void GlobalRouter::recover_violations(PhaseStats& stats) {
  constexpr double kEps = 1e-9;
  if (options_.use_net_budgets) {
    // Budget mode: re-route the nets that exceed their own budget.
    for (std::int32_t pass = 0; pass < options_.improvement_passes; ++pass) {
      std::vector<NetId> over;
      for (const NetId n : netlist_.nets()) {
        if (std::isfinite(net_budget_ps_.at(n)) &&
            delay_graph_->net_arc_delay(n) > net_budget_ps_.at(n)) {
          over.push_back(n);
        }
      }
      if (over.empty()) break;
      for (const NetId n : over) reroute_net(n, stats);
    }
    return;
  }
  for (std::int32_t pass = 0; pass < options_.improvement_passes; ++pass) {
    auto violated = analyzer_->violated();
    if (violated.empty()) break;
    std::sort(violated.begin(), violated.end(),
              [&](ConstraintId a, ConstraintId b) {
                return analyzer_->margin_ps(a) < analyzer_->margin_ps(b);
              });
    const double before = analyzer_->worst_margin_ps();
    for (const ConstraintId p : violated) {
      if (analyzer_->margin_ps(p) >= 0.0) continue;  // fixed along the way
      for (const NetId net : analyzer_->critical_path_nets(p)) {
        reroute_net(net, stats);
      }
    }
    if (analyzer_->worst_margin_ps() <= before + kEps) break;
  }
}

void GlobalRouter::improve_delay(PhaseStats& stats) {
  constexpr double kEps = 1e-9;
  auto total_penalty = [&]() {
    double sum = 0.0;
    for (const ConstraintId p : analyzer_->constraints()) {
      sum += penalty(analyzer_->margin_ps(p),
                     analyzer_->constraint(p).limit_ps);
    }
    return sum;
  };
  for (std::int32_t pass = 0; pass < options_.improvement_passes; ++pass) {
    std::vector<ConstraintId> order;
    for (const ConstraintId p : analyzer_->constraints()) order.push_back(p);
    if (order.empty()) break;
    std::sort(order.begin(), order.end(), [&](ConstraintId a, ConstraintId b) {
      return analyzer_->margin_ps(a) < analyzer_->margin_ps(b);
    });
    const double before = total_penalty();
    for (const ConstraintId p : order) {
      for (const NetId net : analyzer_->critical_path_nets(p)) {
        reroute_net(net, stats);
      }
    }
    if (total_penalty() >= before - kEps) break;
  }
}

void GlobalRouter::improve_area(PhaseStats& stats) {
  const CriteriaOrder saved = order_;
  // Keys do not read the tier order, only the comparison does: each
  // reroute below builds its selection index under the new order.
  order_ = CriteriaOrder::kAreaFirst;
  for (std::int32_t pass = 0; pass < options_.improvement_passes; ++pass) {
    const std::int64_t before = density_->sum_max_density();
    // Nets running through the most congested points, most congested first.
    struct Entry {
      NetId net;
      std::int32_t congestion;
    };
    std::vector<Entry> entries;
    for (const NetId n : netlist_.nets()) {
      const Net& net = netlist_.net(n);
      if (net.is_differential() && !net.diff_primary) continue;
      const RoutingGraph& g = *graphs_[n];
      std::int32_t best = 0;
      bool at_peak = false;
      for (const auto e : g.alive_edges()) {
        const RouteEdgeInfo& info = g.edge_info(e);
        if (!info.is_trunk()) continue;
        const auto ep = density_->edge_params(info.channel, info.span);
        const auto& cp = density_->channel_params(info.channel);
        best = std::max(best, ep.d_max);
        at_peak = at_peak || ep.d_max == cp.c_max;
      }
      if (at_peak) entries.push_back(Entry{n, best});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [&](const Entry& a, const Entry& b) {
                       if (a.congestion != b.congestion) {
                         return a.congestion > b.congestion;
                       }
                       // Name tie-break: relabeling-invariant order.
                       return netlist_.net(a.net).name <
                              netlist_.net(b.net).name;
                     });
    for (const Entry& entry : entries) {
      reroute_net(entry.net, stats);
    }
    if (density_->sum_max_density() >= before) break;
  }
  order_ = saved;
}

void GlobalRouter::finish_phase(PhaseStats& stats) {
  stats.worst_margin_ps = analyzer_->constraint_count() > 0
                              ? analyzer_->worst_margin_ps()
                              : 0.0;
  stats.critical_delay_ps = delay_graph_->critical_delay_ps();
  stats.sum_max_density = density_->sum_max_density();
}

RouteOutcome GlobalRouter::refine(const IdVector<NetId, double>& extra_um) {
  BGR_CHECK_MSG(run_state_ == RunState::kDone,
                "refine() requires a completed run()");
  BGR_CHECK(extra_um.size() == static_cast<std::size_t>(netlist_.net_count()));
  extra_um_ = extra_um;
  for (const NetId n : netlist_.nets()) {
    refresh_net_estimate(n);
  }
  analyzer_->update_all();

  RouteOutcome outcome;
  auto run_phase = [&](const std::string& name, auto&& body, bool enabled) {
    PhaseStats stats;
    stats.name = name;
    ScopedSpan span(name, "phase");
    const ExecStats exec_before = exec_->stats();
    const StaStats sta_before = analyzer_->sta_stats();
    const PathSearchStats path_before = path_engine_->stats();
    Stopwatch watch;
    if (enabled) body(stats);
    stats.seconds = watch.seconds();
    stats.exec_regions = exec_->stats().regions - exec_before.regions;
    stats.exec_chunks = exec_->stats().chunks - exec_before.chunks;
    const StaStats& sta = analyzer_->sta_stats();
    stats.sta_updates = sta.incremental_updates - sta_before.incremental_updates;
    stats.sta_dirty_vertices = sta.dirty_vertices - sta_before.dirty_vertices;
    stats.sta_relaxations = sta.relaxations() - sta_before.relaxations();
    const PathSearchStats path = path_engine_->stats();
    stats.path_searches = path.searches - path_before.searches;
    stats.path_pops = path.pops - path_before.pops;
    stats.path_relaxations = path.relaxations - path_before.relaxations;
    finish_phase(stats);
    outcome.phases.push_back(stats);
  };
  run_phase("refine_recover", [&](PhaseStats& s) { recover_violations(s); },
            options_.use_constraints && options_.enable_violation_recovery);
  run_phase("refine_delay", [&](PhaseStats& s) { improve_delay(s); },
            options_.use_constraints && options_.enable_delay_improvement);
  run_phase("refine_area", [&](PhaseStats& s) { improve_area(s); },
            options_.enable_area_improvement);

  double total_um = 0.0;
  for (const NetId n : netlist_.nets()) {
    BGR_CHECK(graphs_[n]->is_tree());
    total_um += graphs_[n]->alive_length_um();
    refresh_net_estimate(n);
  }
  analyzer_->update_all();
  outcome.critical_delay_ps = delay_graph_->critical_delay_ps();
  outcome.total_length_um = total_um;
  outcome.worst_margin_ps =
      analyzer_->constraint_count() > 0 ? analyzer_->worst_margin_ps() : 0.0;
  outcome.violated_constraints =
      static_cast<std::int32_t>(analyzer_->violated().size());
  outcome.feed_cells_added = feed_cells_added_;
  outcome.widen_pitches = widen_pitches_;
  return outcome;
}

RouteOutcome GlobalRouter::reroute(const std::vector<NetId>& nets) {
  BGR_CHECK_MSG(run_state_ == RunState::kDone,
                "reroute() requires a completed run()");
  RouteOutcome outcome;
  PhaseStats stats;
  stats.name = "eco_reroute";
  ScopedSpan span(stats.name, "phase");
  const ExecStats exec_before = exec_->stats();
  const StaStats sta_before = analyzer_->sta_stats();
  const PathSearchStats path_before = path_engine_->stats();
  Stopwatch watch;
  for (const NetId n : nets) {
    reroute_net(n, stats);
  }
  stats.seconds = watch.seconds();
  stats.exec_regions = exec_->stats().regions - exec_before.regions;
  stats.exec_chunks = exec_->stats().chunks - exec_before.chunks;
  const StaStats& sta = analyzer_->sta_stats();
  stats.sta_updates = sta.incremental_updates - sta_before.incremental_updates;
  stats.sta_dirty_vertices = sta.dirty_vertices - sta_before.dirty_vertices;
  stats.sta_relaxations = sta.relaxations() - sta_before.relaxations();
  const PathSearchStats path = path_engine_->stats();
  stats.path_searches = path.searches - path_before.searches;
  stats.path_pops = path.pops - path_before.pops;
  stats.path_relaxations = path.relaxations - path_before.relaxations;
  finish_phase(stats);
  outcome.phases.push_back(stats);

  double total_um = 0.0;
  for (const NetId n : netlist_.nets()) {
    BGR_CHECK(graphs_[n]->is_tree());
    total_um += graphs_[n]->alive_length_um();
  }
  outcome.critical_delay_ps = delay_graph_->critical_delay_ps();
  outcome.total_length_um = total_um;
  outcome.worst_margin_ps =
      analyzer_->constraint_count() > 0 ? analyzer_->worst_margin_ps() : 0.0;
  outcome.violated_constraints =
      static_cast<std::int32_t>(analyzer_->violated().size());
  outcome.feed_cells_added = feed_cells_added_;
  outcome.widen_pitches = widen_pitches_;
  return outcome;
}

RouteOutcome GlobalRouter::run() {
  BGR_CHECK_MSG(run_state_ == RunState::kIdle,
                "GlobalRouter::run() is single-shot: this router "
                    << (run_state_ == RunState::kDone
                            ? "already completed a run"
                            : "is mid-run or its run failed/was cancelled")
                    << "; construct a fresh GlobalRouter (or use "
                       "serve::RoutingSession, which is re-runnable)");
  run_state_ = RunState::kRunning;
  // Cooperative cancellation point: throws CancelledError when the owner
  // asked this run to stop. Checked at every phase boundary below.
  auto poll_cancel = [&](const char* where) {
    if (options_.cancel_requested && options_.cancel_requested()) {
      throw CancelledError(std::string("route cancelled before ") + where);
    }
  };
  poll_cancel("netlist validation");
  netlist_.validate();

  delay_graph_ = std::make_unique<DelayGraph>(netlist_);
  analyzer_ = std::make_unique<TimingAnalyzer>(
      *delay_graph_,
      options_.use_constraints ? constraints_ : std::vector<PathConstraint>{},
      exec_.get(), options_.incremental_sta);

  // §3.1: net ordering by static slack (zero interconnection capacitance —
  // caps are zero-initialised), then external pin & feedthrough assignment
  // with feed-cell insertion (§4.3).
  const auto slacks = analyzer_->net_slacks();
  auto pipeline = run_assignment_pipeline(netlist_, placement_, slacks);
  assignment_ =
      std::make_unique<FeedthroughAssignment>(std::move(pipeline.assignment));
  feed_cells_added_ = pipeline.feed_cells_added;
  widen_pitches_ = pipeline.widen_pitches;
  route_metrics().feed_cells.add(feed_cells_added_);
  route_metrics().widen_pitches.add(widen_pitches_);

  poll_cancel("routing-graph construction");
  density_ = std::make_unique<DensityMap>(placement_.channel_count(),
                                          placement_.width());
  build_all_graphs();
  if (options_.use_constraints && options_.use_net_budgets) {
    compute_net_budgets();
  }

  RouteOutcome outcome;
  auto run_phase = [&](const std::string& name, auto&& body, bool enabled) {
    poll_cancel(name.c_str());
    PhaseStats stats;
    stats.name = name;
    ScopedSpan span(name, "phase");
    const ExecStats exec_before = exec_->stats();
    const StaStats sta_before = analyzer_->sta_stats();
    const PathSearchStats path_before = path_engine_->stats();
    Stopwatch watch;
    if (enabled) body(stats);
    stats.seconds = watch.seconds();
    stats.exec_regions = exec_->stats().regions - exec_before.regions;
    stats.exec_chunks = exec_->stats().chunks - exec_before.chunks;
    const StaStats& sta = analyzer_->sta_stats();
    stats.sta_updates = sta.incremental_updates - sta_before.incremental_updates;
    stats.sta_dirty_vertices = sta.dirty_vertices - sta_before.dirty_vertices;
    stats.sta_relaxations = sta.relaxations() - sta_before.relaxations();
    const PathSearchStats path = path_engine_->stats();
    stats.path_searches = path.searches - path_before.searches;
    stats.path_pops = path.pops - path_before.pops;
    stats.path_relaxations = path.relaxations - path_before.relaxations;
    finish_phase(stats);
    outcome.phases.push_back(stats);
  };

  run_phase("initial", [&](PhaseStats& s) { initial_routing(s); }, true);
  run_phase("recover_violate", [&](PhaseStats& s) { recover_violations(s); },
            options_.use_constraints && options_.enable_violation_recovery);
  run_phase("improve_delay", [&](PhaseStats& s) { improve_delay(s); },
            options_.use_constraints && options_.enable_delay_improvement);
  run_phase("improve_area", [&](PhaseStats& s) { improve_area(s); },
            options_.enable_area_improvement);

  // Final state: every routing graph is a tree.
  double total_um = 0.0;
  for (const NetId n : netlist_.nets()) {
    BGR_CHECK_MSG(graphs_[n]->is_tree(), "net not reduced to a tree");
    total_um += graphs_[n]->alive_length_um();
    refresh_net_estimate(n);
  }
  analyzer_->update_all();
  outcome.critical_delay_ps = delay_graph_->critical_delay_ps();
  outcome.total_length_um = total_um;
  outcome.worst_margin_ps =
      analyzer_->constraint_count() > 0 ? analyzer_->worst_margin_ps() : 0.0;
  outcome.violated_constraints =
      static_cast<std::int32_t>(analyzer_->violated().size());
  outcome.feed_cells_added = feed_cells_added_;
  outcome.widen_pitches = widen_pitches_;
  run_state_ = RunState::kDone;
  return outcome;
}

}  // namespace bgr
