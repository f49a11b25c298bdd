#include "bgr/verify/verifier.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "bgr/obs/trace.hpp"

namespace bgr {
namespace {

void add(std::vector<VerifyIssue>& out, VerifyIssue::Severity severity,
         const std::string& check, const std::string& message) {
  out.push_back(VerifyIssue{severity, check, message});
}

/// A trunk edge of one net, bucketed under its channel.
struct Trunk {
  NetId net;
  IntInterval span;
};

/// What the gather pass collects from every net's alive edges: the
/// per-net findings (tree, geometry, feedthrough, kept apart so they can
/// be emitted grouped by check), the density recount and the trunks per
/// channel in (net, edge) order.
struct Gathered {
  std::vector<VerifyIssue> trees;
  std::vector<VerifyIssue> geometry;
  std::vector<VerifyIssue> feeds;
  DensityMap fresh;
  std::vector<std::vector<Trunk>> trunks;  // empty without a channel stage

  Gathered(const Placement& pl, std::int32_t track_channels)
      : fresh(pl.channel_count(), pl.width()),
        trunks(static_cast<std::size_t>(track_channels)) {}
};

void check_tree(const Netlist& nl, NetId n, const RoutingGraph& g,
                std::vector<VerifyIssue>& out) {
  if (!g.graph().connects(g.terminal_vertices())) {
    add(out, VerifyIssue::Severity::kError, "tree",
        "net " + nl.net(n).name + " terminals disconnected");
    return;
  }
  if (g.graph().alive_edge_count() != g.graph().alive_vertex_count() - 1) {
    add(out, VerifyIssue::Severity::kError, "tree",
        "net " + nl.net(n).name + " is not a tree (edges " +
            std::to_string(g.graph().alive_edge_count()) + ", vertices " +
            std::to_string(g.graph().alive_vertex_count()) + ")");
  }
  // Every leaf must be a terminal (no dangling wire).
  for (std::int32_t v = 0; v < g.graph().vertex_count(); ++v) {
    if (!g.graph().vertex_alive(v)) continue;
    if (g.graph().degree(v) <= 1 &&
        g.vertex_info(v).kind != RouteVertexKind::kTerminal) {
      add(out, VerifyIssue::Severity::kWarning, "tree",
          "net " + nl.net(n).name + " has a dangling branch at vertex " +
              std::to_string(v));
    }
  }
}

void check_geometry(const Netlist& nl, const Placement& pl, NetId n,
                    std::int32_t e, const RouteEdgeInfo& info,
                    std::vector<VerifyIssue>& out) {
  const bool channel_ok = info.channel >= 0 && info.channel < pl.channel_count();
  const bool span_ok =
      !info.span.empty() && info.span.lo >= 0 && info.span.hi < pl.width();
  if (!channel_ok || !span_ok) {
    std::ostringstream oss;
    oss << "net " << nl.net(n).name << " edge " << e << " at channel "
        << info.channel << " span [" << info.span.lo << "," << info.span.hi
        << "] outside the chip";
    add(out, VerifyIssue::Severity::kError, "geometry", oss.str());
  }
}

/// (row, column) → owning net; differential shadows share their primary's
/// group, and a w-pitch crossing owns w adjacent columns.
using FeedOwners = std::map<std::pair<std::int32_t, std::int32_t>, NetId>;

void check_feed(const Netlist& nl, const Placement& pl, NetId n,
                const RouteEdgeInfo& info, FeedOwners& owner,
                std::vector<VerifyIssue>& out) {
  const Net& net = nl.net(n);
  const std::int32_t row = info.channel;  // crossing row == lower channel
  for (std::int32_t k = 0; k < net.pitch_width; ++k) {
    const std::int32_t col = info.span.lo + k;
    if (pl.column_blocked(RowId{row}, col)) {
      add(out, VerifyIssue::Severity::kError, "feedthrough",
          "net " + net.name + " crosses row " + std::to_string(row) +
              " at blocked column " + std::to_string(col));
    }
    const auto key = std::make_pair(row, col);
    const auto it = owner.find(key);
    const NetId primary =
        net.is_differential() && !net.diff_primary ? net.diff_partner : n;
    if (it != owner.end() && it->second != primary && it->second != n) {
      // A differential shadow one column right of its primary is legal.
      const Net& other = nl.net(it->second);
      const bool paired =
          other.is_differential() &&
          (other.diff_partner == n || other.diff_partner == primary);
      if (!paired) {
        add(out, VerifyIssue::Severity::kError, "feedthrough",
            "nets " + other.name + " and " + net.name +
                " share feedthrough column " + std::to_string(col) +
                " in row " + std::to_string(row));
      }
    } else {
      owner[key] = primary;
    }
  }
}

/// The gather pass: one alive_edges() walk per net, in net order.
void gather(const GlobalRouter& router, Gathered& g) {
  const Netlist& nl = router.analyzer().delay_graph().netlist();
  const Placement& pl = router.placement();
  FeedOwners owner;
  for (const NetId n : nl.nets()) {
    const RoutingGraph& graph = router.net_graph(n);
    check_tree(nl, n, graph, g.trees);
    for (const std::int32_t e : graph.alive_edges()) {
      const RouteEdgeInfo& info = graph.edge_info(e);
      check_geometry(nl, pl, n, e, info, g.geometry);
      if (info.kind == RouteEdgeKind::kFeed) {
        check_feed(nl, pl, n, info, owner, g.feeds);
      }
      if (!info.is_trunk()) continue;
      g.fresh.add_total(info.channel, info.span, nl.net(n).pitch_width);
      if (info.channel >= 0 &&
          info.channel < static_cast<std::int32_t>(g.trunks.size())) {
        g.trunks[static_cast<std::size_t>(info.channel)].push_back(
            Trunk{n, info.span});
      }
    }
  }
}

void check_density(const DensityMap& incremental, const DensityMap& fresh,
                   std::vector<VerifyIssue>& out) {
  for (std::int32_t c = 0; c < fresh.channel_count(); ++c) {
    for (std::int32_t x = 0; x < fresh.width(); ++x) {
      if (incremental.total_at(c, x) != fresh.total_at(c, x)) {
        add(out, VerifyIssue::Severity::kError, "density",
            "density mismatch at channel " + std::to_string(c) + " column " +
                std::to_string(x) + ": incremental " +
                std::to_string(incremental.total_at(c, x)) + " vs recount " +
                std::to_string(fresh.total_at(c, x)));
        return;  // one detailed finding is enough
      }
    }
  }
}

void check_differential(const GlobalRouter& router,
                        std::vector<VerifyIssue>& out) {
  const Netlist& nl = router.analyzer().delay_graph().netlist();
  for (const NetId n : nl.nets()) {
    const Net& net = nl.net(n);
    if (!net.is_differential() || !net.diff_primary) continue;
    const RoutingGraph& a = router.net_graph(n);
    const RoutingGraph& b = router.net_graph(net.diff_partner);
    if (a.graph().edge_count() != b.graph().edge_count()) {
      add(out, VerifyIssue::Severity::kError, "differential",
          "pair " + net.name + " graphs not homogeneous");
      continue;
    }
    for (std::int32_t e = 0; e < a.graph().edge_count(); ++e) {
      if (a.graph().edge_alive(e) != b.graph().edge_alive(e)) {
        add(out, VerifyIssue::Severity::kError, "differential",
            "pair " + net.name + " diverged at edge " + std::to_string(e));
        break;
      }
      if (a.graph().edge_alive(e) &&
          (a.edge_info(e).span.lo + 1 != b.edge_info(e).span.lo ||
           a.edge_info(e).channel != b.edge_info(e).channel)) {
        add(out, VerifyIssue::Severity::kError, "differential",
            "pair " + net.name + " not mirrored at edge " + std::to_string(e));
        break;
      }
    }
  }
}

/// Every pair (i, j), i < j, of segments that share a track and a column,
/// sorted. Each segment sits on each of its w tracks; per track a sweep in
/// span.lo order keeps the segments whose span still reaches the current
/// one, and each of them overlaps it.
std::vector<std::pair<std::size_t, std::size_t>> overlapping_pairs(
    const std::vector<ChannelSegment>& segs) {
  struct Slot {
    std::int64_t track;
    std::int32_t lo;
    std::int32_t hi;
    std::size_t seg;
  };
  std::vector<Slot> slots;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const ChannelSegment& s = segs[i];
    if (s.span.empty()) continue;  // overlaps nothing
    for (std::int32_t k = 0; k < s.width; ++k) {
      slots.push_back(Slot{std::int64_t{s.track} + k, s.span.lo, s.span.hi, i});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.track != b.track) return a.track < b.track;
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.seg < b.seg;
  });
  std::vector<const Slot*> active;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const Slot& s = slots[k];
    if (k == 0 || slots[k - 1].track != s.track) active.clear();
    std::erase_if(active, [&](const Slot* a) { return a->hi < s.lo; });
    for (const Slot* a : active) {
      pairs.emplace_back(std::min(a->seg, s.seg), std::max(a->seg, s.seg));
    }
    active.push_back(&s);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

void check_tracks(const Netlist& nl, const ChannelStage& stage,
                  const std::vector<std::vector<Trunk>>& trunks,
                  std::vector<VerifyIssue>& out) {
  std::vector<std::size_t> by_net;
  for (std::int32_t c = 0; c < stage.channel_count(); ++c) {
    const ChannelPlan& plan = stage.plan(c);
    const std::vector<ChannelSegment>& segs = plan.segments;
    // No overlaps: each segment's own finding, then its pairs (i, j > i).
    const auto pairs = overlapping_pairs(segs);
    std::size_t p = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const ChannelSegment& a = segs[i];
      if (a.track < 1 || a.track + a.width - 1 > plan.tracks) {
        add(out, VerifyIssue::Severity::kError, "tracks",
            "segment of net " + nl.net(a.net).name + " outside channel " +
                std::to_string(c));
      }
      for (; p < pairs.size() && pairs[p].first == i; ++p) {
        add(out, VerifyIssue::Severity::kError, "tracks",
            "nets " + nl.net(a.net).name + " and " +
                nl.net(segs[pairs[p].second].net).name +
                " overlap in channel " + std::to_string(c));
      }
    }
    // Coverage of every trunk edge, looked up among its own net's segments.
    by_net.resize(segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) by_net[i] = i;
    const auto net_of = [&](std::size_t i) { return segs[i].net.value(); };
    std::sort(by_net.begin(), by_net.end(),
              [&](std::size_t a, std::size_t b) { return net_of(a) < net_of(b); });
    for (const Trunk& t : trunks[static_cast<std::size_t>(c)]) {
      auto it = std::lower_bound(
          by_net.begin(), by_net.end(), t.net.value(),
          [&](std::size_t i, std::int32_t net) { return net_of(i) < net; });
      bool covered = false;
      for (; !covered && it != by_net.end() && net_of(*it) == t.net.value();
           ++it) {
        covered = segs[*it].span.contains(t.span);
      }
      if (!covered) {
        add(out, VerifyIssue::Severity::kError, "tracks",
            "trunk of net " + nl.net(t.net).name + " in channel " +
                std::to_string(c) + " not covered by any segment");
      }
    }
  }
}

void append(std::vector<VerifyIssue>& out, std::vector<VerifyIssue>& part) {
  out.insert(out.end(), std::make_move_iterator(part.begin()),
             std::make_move_iterator(part.end()));
}

}  // namespace

std::vector<VerifyIssue> RouteVerifier::run() const {
  ScopedSpan span("verify", "verify");
  Gathered g(router_.placement(),
             channel_ != nullptr ? channel_->channel_count() : 0);
  gather(router_, g);
  std::vector<VerifyIssue> out;
  append(out, g.trees);
  append(out, g.geometry);
  append(out, g.feeds);
  check_density(router_.density(), g.fresh, out);
  check_differential(router_, out);
  if (channel_ != nullptr) {
    check_tracks(router_.analyzer().delay_graph().netlist(), *channel_,
                 g.trunks, out);
  }
  return out;
}

}  // namespace bgr
