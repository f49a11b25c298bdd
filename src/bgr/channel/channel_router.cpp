#include "bgr/channel/channel_router.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "bgr/obs/metrics.hpp"
#include "bgr/obs/trace.hpp"
#include "bgr/route/net_span.hpp"

namespace bgr {

namespace {

/// Channel-stage totals: all recorded from the serial per-channel loop in
/// ChannelStage::run(), so they are semantic. `tracks_above_density` sums
/// max(0, tracks - density) over channels — tracks spent above the density
/// lower bound (not an overflow: no capacity is exceeded).
struct ChannelMetrics {
  Counter& segments = MetricsRegistry::global().counter(
      "channel.segments", MetricScope::kSemantic);
  Counter& tracks_above_density = MetricsRegistry::global().counter(
      "channel.tracks_above_density", MetricScope::kSemantic);
  Counter& vcg_violations = MetricsRegistry::global().counter(
      "channel.vcg_violations", MetricScope::kSemantic);
  Histogram& tracks = MetricsRegistry::global().histogram(
      "channel.tracks", MetricScope::kSemantic);
};

ChannelMetrics& channel_metrics() {
  static ChannelMetrics* const m = new ChannelMetrics();
  return *m;
}

}  // namespace

std::int32_t left_edge_assign(std::vector<ChannelSegment>& segments) {
  std::stable_sort(segments.begin(), segments.end(),
                   [](const ChannelSegment& a, const ChannelSegment& b) {
                     if (a.span.lo != b.span.lo) return a.span.lo < b.span.lo;
                     return a.span.hi > b.span.hi;  // long first at equal left
                   });
  // last_hi[t]: rightmost occupied column of track t (0-based internally).
  std::vector<std::int32_t> last_hi;
  std::int32_t used = 0;
  for (ChannelSegment& seg : segments) {
    BGR_CHECK(seg.width >= 1 && !seg.span.empty());
    std::int32_t placed = -1;
    for (std::int32_t t = 0; placed < 0; ++t) {
      while (static_cast<std::size_t>(t + seg.width) > last_hi.size()) {
        last_hi.push_back(std::numeric_limits<std::int32_t>::min());
      }
      bool fits = true;
      for (std::int32_t k = 0; k < seg.width && fits; ++k) {
        fits = last_hi[static_cast<std::size_t>(t + k)] < seg.span.lo;
      }
      if (fits) placed = t;
    }
    for (std::int32_t k = 0; k < seg.width; ++k) {
      last_hi[static_cast<std::size_t>(placed + k)] = seg.span.hi;
    }
    seg.track = placed + 1;  // 1-based
    used = std::max(used, placed + seg.width);
  }
  return used;
}

std::int32_t improve_track_assignment(std::vector<ChannelSegment>& segments,
                                      std::int32_t tracks) {
  if (tracks <= 1 || segments.empty()) return 0;
  // occupancy[t]: intervals currently on track t (0-based).
  std::vector<std::vector<std::pair<IntInterval, std::size_t>>> occupancy(
      static_cast<std::size_t>(tracks));
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const ChannelSegment& seg = segments[i];
    BGR_CHECK(seg.track >= 1 && seg.track + seg.width - 1 <= tracks);
    for (std::int32_t k = 0; k < seg.width; ++k) {
      occupancy[static_cast<std::size_t>(seg.track - 1 + k)].emplace_back(
          seg.span, i);
    }
  }
  auto run_free = [&](std::int32_t track0, std::int32_t w, IntInterval span,
                      std::size_t self) {
    for (std::int32_t k = 0; k < w; ++k) {
      for (const auto& [iv, owner] : occupancy[static_cast<std::size_t>(
               track0 + k)]) {
        if (owner != self && iv.overlaps(span)) return false;
      }
    }
    return true;
  };
  // Cost of placing the segment's bottom track at t (1-based): every
  // bottom tap runs t track pitches, every top tap (tracks + 1 − t).
  auto cost = [&](const ChannelSegment& seg, std::int32_t t) {
    std::int64_t total = 0;
    for (const ChannelTap& tap : seg.taps) {
      total += tap.from_top ? (tracks + 1 - t) : t;
    }
    return total;
  };

  std::int32_t moves = 0;
  for (std::int32_t round = 0; round < 2; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      ChannelSegment& seg = segments[i];
      if (seg.taps.empty()) continue;
      std::int32_t best_t = seg.track;
      std::int64_t best_cost = cost(seg, seg.track);
      for (std::int32_t t = 1; t + seg.width - 1 <= tracks; ++t) {
        if (t == seg.track) continue;
        if (cost(seg, t) >= best_cost) continue;
        if (!run_free(t - 1, seg.width, seg.span, i)) continue;
        best_t = t;
        best_cost = cost(seg, t);
      }
      if (best_t != seg.track) {
        // Erase every old entry before adding the new ones: when the old
        // and new track ranges overlap, interleaving would drop a
        // freshly-added entry.
        for (std::int32_t k = 0; k < seg.width; ++k) {
          auto& from = occupancy[static_cast<std::size_t>(seg.track - 1 + k)];
          from.erase(std::remove_if(from.begin(), from.end(),
                                    [&](const auto& e) { return e.second == i; }),
                     from.end());
        }
        for (std::int32_t k = 0; k < seg.width; ++k) {
          occupancy[static_cast<std::size_t>(best_t - 1 + k)].emplace_back(
              seg.span, i);
        }
        seg.track = best_t;
        ++moves;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return moves;
}

std::int32_t constrained_left_edge_assign(std::vector<ChannelSegment>& segments,
                                          std::int32_t* vcg_violations) {
  *vcg_violations = 0;
  if (segments.empty()) return 0;
  const auto n = segments.size();

  // Vertical constraint graph: above[i] ∋ j means segment i must sit above
  // segment j (i has a top tap in a column where j has a bottom tap).
  std::map<std::int32_t, std::vector<std::size_t>> top_at;
  std::map<std::int32_t, std::vector<std::size_t>> bottom_at;
  for (std::size_t i = 0; i < n; ++i) {
    for (const ChannelTap& tap : segments[i].taps) {
      (tap.from_top ? top_at : bottom_at)[tap.column].push_back(i);
    }
  }
  std::vector<std::set<std::size_t>> below(n);  // successors (must be below)
  std::vector<std::int32_t> pending_above(n, 0);  // unplaced predecessors
  for (const auto& [column, tops] : top_at) {
    const auto it = bottom_at.find(column);
    if (it == bottom_at.end()) continue;
    for (const std::size_t t : tops) {
      for (const std::size_t b : it->second) {
        if (t == b || segments[t].net == segments[b].net) continue;
        if (below[t].insert(b).second) ++pending_above[b];
      }
    }
  }

  // Pack levels from the top edge downwards. A wide segment placed at
  // level l also blocks the next width-1 levels over its span.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return segments[a].span.lo < segments[b].span.lo;
  });

  std::vector<bool> placed(n, false);
  std::vector<std::int32_t> level_of(n, -1);
  std::vector<std::vector<IntInterval>> carry;  // blocked spans per future level
  std::size_t remaining = n;
  std::int32_t level = 0;
  while (remaining > 0) {
    std::vector<IntInterval> used =
        carry.empty() ? std::vector<IntInterval>{} : std::move(carry.front());
    if (!carry.empty()) carry.erase(carry.begin());
    auto fits = [&](IntInterval span) {
      for (const IntInterval iv : used) {
        if (iv.overlaps(span)) return false;
      }
      return true;
    };
    bool any = false;
    std::vector<std::size_t> placed_now;
    for (const std::size_t i : order) {
      if (placed[i] || pending_above[i] > 0) continue;
      if (!fits(segments[i].span)) continue;
      placed[i] = true;
      level_of[i] = level;
      --remaining;
      any = true;
      used.push_back(segments[i].span);
      // Wide segments block the same span on the next width-1 levels.
      for (std::int32_t k = 1; k < segments[i].width; ++k) {
        if (static_cast<std::size_t>(k - 1) >= carry.size()) carry.emplace_back();
        carry[static_cast<std::size_t>(k - 1)].push_back(segments[i].span);
      }
      placed_now.push_back(i);
    }
    // Successors only become eligible on the *next* level: releasing them
    // within this level would place them side by side with their
    // predecessor instead of below it.
    for (const std::size_t i : placed_now) {
      for (const std::size_t j : below[i]) --pending_above[j];
    }
    if (!any) {
      // Vertical-constraint cycle: force the blocked segment with the
      // fewest pending predecessors (a real channel router would dogleg).
      std::size_t pick = n;
      for (const std::size_t i : order) {
        if (placed[i] || !fits(segments[i].span)) continue;
        if (pick == n || pending_above[i] < pending_above[pick]) pick = i;
      }
      if (pick == n) {
        ++level;  // everything unplaced overlaps this level's carry
        continue;
      }
      *vcg_violations += pending_above[pick];
      pending_above[pick] = 0;
      placed[pick] = true;
      level_of[pick] = level;
      --remaining;
      for (std::int32_t k = 1; k < segments[pick].width; ++k) {
        if (static_cast<std::size_t>(k - 1) >= carry.size()) carry.emplace_back();
        carry[static_cast<std::size_t>(k - 1)].push_back(segments[pick].span);
      }
      for (const std::size_t j : below[pick]) --pending_above[j];
    }
    ++level;
  }
  const std::int32_t total_levels =
      level + static_cast<std::int32_t>(carry.size());
  // Convert top-based levels to bottom-based tracks: a segment at level l
  // with width w occupies levels l..l+w-1, i.e. bottom track
  // total - (l + w - 1).
  for (std::size_t i = 0; i < n; ++i) {
    segments[i].track = total_levels - (level_of[i] + segments[i].width - 1);
    BGR_CHECK(segments[i].track >= 1);
  }
  return total_levels;
}

void split_segments_at_taps(std::vector<ChannelSegment>& segments,
                            std::vector<std::vector<std::size_t>>& chains) {
  std::vector<ChannelSegment> out;
  for (const ChannelSegment& seg : segments) {
    // Interior tap columns, sorted and deduplicated.
    std::vector<std::int32_t> cuts;
    for (const ChannelTap& tap : seg.taps) {
      if (tap.column > seg.span.lo && tap.column < seg.span.hi) {
        cuts.push_back(tap.column);
      }
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    if (cuts.empty()) {
      out.push_back(seg);
      continue;
    }
    std::vector<std::size_t> chain;
    std::int32_t lo = seg.span.lo;
    for (std::size_t i = 0; i <= cuts.size(); ++i) {
      const std::int32_t hi = i < cuts.size() ? cuts[i] : seg.span.hi;
      ChannelSegment piece;
      piece.net = seg.net;
      piece.width = seg.width;
      piece.span = IntInterval{lo, hi};
      // A tap at a cut column stays with the piece to its left: piece 0
      // takes [lo, hi], later pieces take (lo, hi].
      for (const ChannelTap& tap : seg.taps) {
        const bool mine =
            tap.column <= hi && (i == 0 ? tap.column >= lo : tap.column > lo);
        if (mine) piece.taps.push_back(tap);
      }
      chain.push_back(out.size());
      out.push_back(std::move(piece));
      lo = hi;
    }
    chains.push_back(std::move(chain));
  }
  segments = std::move(out);
}

ChannelStage::ChannelStage(const GlobalRouter& router, ChannelOptions options)
    : netlist_(router.analyzer().delay_graph().netlist()),
      router_(router),
      options_(options) {
  plans_.resize(static_cast<std::size_t>(router.placement().channel_count()));
  vertical_um_.assign(static_cast<std::size_t>(netlist_.net_count()), 0.0);
  base_um_.assign(static_cast<std::size_t>(netlist_.net_count()), 0.0);
}

void ChannelStage::extract(const GlobalRouter& router) {
  const Placement& placement = router.placement();
  for (const NetId n : netlist_.nets()) {
    const RoutingGraph& g = router.net_graph(n);
    BGR_CHECK_MSG(g.is_tree(), "channel stage requires routed trees");
    base_um_[n] = g.alive_length_um();

    // Group the net's trunk edges per channel and merge touching runs.
    std::map<std::int32_t, std::vector<IntInterval>> runs;
    struct Tap {
      std::int32_t channel;
      ChannelTap tap;
    };
    std::vector<Tap> taps;
    for (const auto e : g.alive_edges()) {
      const RouteEdgeInfo& info = g.edge_info(e);
      switch (info.kind) {
        case RouteEdgeKind::kTrunk:
          runs[info.channel].push_back(info.span);
          break;
        case RouteEdgeKind::kFeed:
          // Crossing row r == info.channel: taps channel r from its top
          // edge and channel r+1 from its bottom edge.
          taps.push_back({info.channel, ChannelTap{info.span.lo, true}});
          taps.push_back({info.channel + 1, ChannelTap{info.span.lo, false}});
          break;
        case RouteEdgeKind::kTermLink: {
          // The terminal end of the edge identifies the pin's row/side.
          const auto& edge = g.graph().edge(e);
          const auto term_v =
              g.vertex_info(edge.u).kind == RouteVertexKind::kTerminal ? edge.u
                                                                       : edge.v;
          const TerminalId term = g.vertex_info(term_v).terminal;
          const Terminal& t = netlist_.terminal(term);
          bool from_top;
          if (t.kind == TerminalKind::kCellPin) {
            // Pin on row r: channel r is below the row (tap from top edge),
            // channel r+1 above it (tap from bottom edge).
            from_top = info.channel == placement.placed(t.cell).row.value();
          } else {
            from_top = placement.pad_site(term).top;
          }
          taps.push_back({info.channel, ChannelTap{info.span.lo, from_top}});
          break;
        }
      }
    }

    const std::int32_t w = netlist_.net(n).pitch_width;
    for (auto& [channel, intervals] : runs) {
      std::sort(intervals.begin(), intervals.end(),
                [](IntInterval a, IntInterval b) { return a.lo < b.lo; });
      std::vector<ChannelSegment> merged;
      for (const IntInterval iv : intervals) {
        if (!merged.empty() && merged.back().span.hi >= iv.lo) {
          merged.back().span = merged.back().span.merge(iv);
        } else {
          ChannelSegment seg;
          seg.net = n;
          seg.width = w;
          seg.span = iv;
          merged.push_back(seg);
        }
      }
      for (const Tap& tap : taps) {
        if (tap.channel != channel) continue;
        for (ChannelSegment& seg : merged) {
          if (seg.span.contains(tap.tap.column)) {
            seg.taps.push_back(tap.tap);
            break;
          }
        }
      }
      auto& plan = plans_[static_cast<std::size_t>(channel)];
      plan.segments.insert(plan.segments.end(), merged.begin(), merged.end());
    }

    // Taps whose channel has no trunk run of this net (a pure crossing or a
    // pin directly under a feedthrough) form zero-length segments so their
    // verticals still get a track position.
    for (const Tap& tap : taps) {
      const auto it = runs.find(tap.channel);
      bool covered = false;
      if (it != runs.end()) {
        for (const IntInterval iv : it->second) {
          covered = covered || iv.contains(tap.tap.column);
        }
      }
      if (!covered) {
        ChannelSegment seg;
        seg.net = n;
        seg.width = w;
        seg.span = IntInterval::point(tap.tap.column);
        seg.taps.push_back(tap.tap);
        plans_[static_cast<std::size_t>(tap.channel)].segments.push_back(seg);
      }
    }
  }
}

void ChannelStage::assign_tracks(ChannelPlan& plan) const {
  // Density lower bound.
  std::map<std::int32_t, std::int32_t> delta;
  for (const ChannelSegment& seg : plan.segments) {
    delta[seg.span.lo] += seg.width;
    delta[seg.span.hi + 1] -= seg.width;
  }
  std::int32_t run = 0;
  plan.density = 0;
  for (const auto& [x, d] : delta) {
    run += d;
    plan.density = std::max(plan.density, run);
  }
  switch (options_.algorithm) {
    case TrackAlgorithm::kConstrainedLeftEdge:
      plan.tracks =
          constrained_left_edge_assign(plan.segments, &plan.vcg_violations);
      break;
    case TrackAlgorithm::kDoglegLeftEdge:
      split_segments_at_taps(plan.segments, plan.chains);
      plan.tracks =
          constrained_left_edge_assign(plan.segments, &plan.vcg_violations);
      break;
    case TrackAlgorithm::kLeftEdge:
      plan.tracks = left_edge_assign(plan.segments);
      if (options_.improve_taps) {
        (void)improve_track_assignment(plan.segments, plan.tracks);
      }
      break;
  }
}

void ChannelStage::run() {
  BGR_CHECK(!ran_);
  ran_ = true;
  ScopedSpan span("channel_route", "channel");
  extract(router_);
  const TechParams& tech = router_.tech();
  for (auto& plan : plans_) {
    assign_tracks(plan);
    channel_metrics().segments.add(
        static_cast<std::int64_t>(plan.segments.size()));
    channel_metrics().tracks.record(plan.tracks);
    channel_metrics().tracks_above_density.add(
        std::max<std::int32_t>(0, plan.tracks - plan.density));
    channel_metrics().vcg_violations.add(plan.vcg_violations);
    // Vertical jog lengths: distance from the segment's track to the edge
    // each tap enters from. Track t (1-based) sits t * pitch above the
    // channel's bottom edge.
    for (const ChannelSegment& seg : plan.segments) {
      for (const ChannelTap& tap : seg.taps) {
        (void)tap;
        const double up = static_cast<double>(seg.track) * tech.track_pitch_um;
        const double down =
            static_cast<double>(plan.tracks + 1 - seg.track) *
            tech.track_pitch_um;
        vertical_um_[seg.net] += tap.from_top ? down : up;
      }
    }
    // Dogleg jogs between consecutive chain pieces at their shared column.
    for (const auto& chain : plan.chains) {
      for (std::size_t i = 1; i < chain.size(); ++i) {
        const ChannelSegment& a = plan.segments[chain[i - 1]];
        const ChannelSegment& b = plan.segments[chain[i]];
        vertical_um_[a.net] +=
            std::abs(a.track - b.track) * tech.track_pitch_um;
      }
    }
  }
}

std::vector<std::int32_t> ChannelStage::track_counts() const {
  std::vector<std::int32_t> out;
  out.reserve(plans_.size());
  for (const auto& plan : plans_) out.push_back(plan.tracks);
  return out;
}

double ChannelStage::net_detailed_length_um(NetId net) const {
  BGR_CHECK(ran_);
  return base_um_.at(net) + vertical_um_.at(net);
}

double ChannelStage::total_detailed_length_um() const {
  double total = 0.0;
  for (const NetId n : netlist_.nets()) total += net_detailed_length_um(n);
  return total;
}

double ChannelStage::chip_height_um() const {
  BGR_CHECK(ran_);
  return router_.placement().chip_height_um(router_.tech(), track_counts());
}

double ChannelStage::chip_area_mm2() const {
  const double w_um = router_.placement().chip_width_um(router_.tech());
  return w_um * chip_height_um() * 1e-6;
}

double ChannelStage::apply_and_critical_delay_ps(DelayGraph& delay_graph,
                                                 DelayModel model) const {
  BGR_CHECK(ran_);
  const TechParams& tech = router_.tech();
  for (const NetId n : netlist_.nets()) {
    const double cap = tech.wire_cap_pf(net_detailed_length_um(n),
                                        netlist_.net(n).pitch_width);
    if (model == DelayModel::kElmoreRC) {
      const RoutingGraph& g = router_.net_graph(n);
      auto rc = g.elmore(tech, netlist_.net(n).pitch_width, [&](TerminalId t) {
        return netlist_.terminal_fanin_cap_pf(t);
      });
      // The Elmore term grows roughly quadratically with length; scale by
      // the squared detailed/estimated ratio to account for the exact jogs.
      const double est = g.estimated_length_um();
      const double ratio = est > 0.0 ? net_detailed_length_um(n) / est : 1.0;
      for (auto& [term, ps] : rc.sink_wire_ps) {
        (void)term;
        ps *= ratio * ratio;
      }
      delay_graph.set_net_rc(n, cap, rc.sink_wire_ps);
    } else {
      delay_graph.set_net_cap(n, cap);
    }
  }
  return delay_graph.critical_delay_ps();
}

}  // namespace bgr
