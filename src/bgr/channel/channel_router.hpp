#pragma once

#include <vector>

#include "bgr/common/ids.hpp"
#include "bgr/common/interval.hpp"
#include "bgr/common/tech.hpp"
#include "bgr/route/router.hpp"

namespace bgr {

/// Vertical tap entering a channel segment: a pin connection or a
/// feedthrough continuation at one column, from the channel's top edge
/// (the row above) or bottom edge (the row below).
struct ChannelTap {
  std::int32_t column = 0;
  bool from_top = false;
};

/// One maximal run of a net's trunk edges inside a channel; it is assigned
/// `width` adjacent tracks by the track assigner.
struct ChannelSegment {
  NetId net;
  std::int32_t width = 1;
  IntInterval span;
  std::vector<ChannelTap> taps;
  std::int32_t track = -1;  // bottom-most of its tracks, 1-based after run()
};

struct ChannelPlan {
  std::vector<ChannelSegment> segments;
  std::int32_t tracks = 0;       // track count after assignment
  std::int32_t density = 0;      // max column density (lower bound)
  /// Constrained modes only: vertical-constraint cycles that had to be
  /// broken (a detailed router would resolve each with a dogleg).
  std::int32_t vcg_violations = 0;
  /// Dogleg mode only: chains of split subsegments (indices into
  /// `segments`, left to right); consecutive members join with a vertical
  /// jog at their shared column.
  std::vector<std::vector<std::size_t>> chains;
};

/// Track assignment algorithm of the channel stage.
enum class TrackAlgorithm {
  /// Width-aware left edge, ignoring vertical constraints (a detailed
  /// router with free doglegs), followed by the tap-driven improvement.
  kLeftEdge,
  /// Constrained left edge: a segment whose column is shared between its
  /// top tap and another segment's bottom tap must lie above that segment.
  /// Cycles are broken greedily and counted as needed doglegs.
  kConstrainedLeftEdge,
  /// Dogleg routing (Deutsch-style): segments are split at their interior
  /// tap columns before the constrained assignment, which dissolves most
  /// vertical-constraint cycles; the connecting jogs are charged to the
  /// nets' vertical wire length.
  kDoglegLeftEdge,
};

struct ChannelOptions {
  TrackAlgorithm algorithm = TrackAlgorithm::kLeftEdge;
  bool improve_taps = true;  // kLeftEdge only (the pass is not VCG-aware)
};

/// Post-global-routing channel stage: extracts every net's trunk segments
/// and taps from the final routing trees, assigns tracks per channel with
/// the width-aware left-edge algorithm, and produces the detailed
/// geometry the paper measures — channel heights (area) and per-net
/// routed lengths including in-channel vertical jogs (delay).
class ChannelStage {
 public:
  explicit ChannelStage(const GlobalRouter& router,
                        ChannelOptions options = {});

  /// Runs track assignment over all channels.
  void run();

  [[nodiscard]] const ChannelPlan& plan(std::int32_t channel) const {
    return plans_.at(static_cast<std::size_t>(channel));
  }
  [[nodiscard]] std::int32_t channel_count() const {
    return static_cast<std::int32_t>(plans_.size());
  }
  [[nodiscard]] std::vector<std::int32_t> track_counts() const;

  /// Detailed routed length of a net (um): trunks + row crossings +
  /// in-channel verticals.
  [[nodiscard]] double net_detailed_length_um(NetId net) const;
  [[nodiscard]] double total_detailed_length_um() const;

  /// Chip area (mm²) with the assigned channel heights.
  [[nodiscard]] double chip_area_mm2() const;
  [[nodiscard]] double chip_height_um() const;

  /// Loads the detailed lengths into the delay graph and returns the
  /// resulting chip critical delay — the paper's Table 2 delay figure
  /// ("obtained from routing lengths after channel routing"). Under the
  /// RC extension the per-sink Elmore wire terms of the final trees are
  /// applied on top, scaled to the detailed length of each net.
  [[nodiscard]] double apply_and_critical_delay_ps(
      DelayGraph& delay_graph,
      DelayModel model = DelayModel::kLumpedC) const;

 private:
  /// Test access (tests/test_verifier.cpp): edits plans_ to inject the
  /// faults the signoff track checks must find.
  friend struct ChannelPlanEditor;

  void extract(const GlobalRouter& router);
  void assign_tracks(ChannelPlan& plan) const;

  const Netlist& netlist_;
  const GlobalRouter& router_;
  ChannelOptions options_;
  std::vector<ChannelPlan> plans_;
  IdVector<NetId, double> vertical_um_;   // in-channel vertical per net
  IdVector<NetId, double> base_um_;       // trunks + row crossings per net
  bool ran_ = false;
};

/// Width-aware left-edge track assignment: segments sorted by left edge,
/// each placed on the lowest run of `width` adjacent tracks free beyond
/// its left edge. Exposed for direct testing.
[[nodiscard]] std::int32_t left_edge_assign(std::vector<ChannelSegment>& segments);

/// Post-pass over a feasible assignment: each segment is moved (track
/// count held fixed) toward the channel edge most of its taps enter from,
/// shortening the vertical jogs. Returns the number of moves applied.
std::int32_t improve_track_assignment(std::vector<ChannelSegment>& segments,
                                      std::int32_t tracks);

/// Constrained left-edge track assignment: respects the vertical
/// constraint graph induced by shared tap columns (top-tap segment above
/// bottom-tap segment), packing tracks from the top edge downwards.
/// Cycles are broken greedily; each break increments *vcg_violations.
/// Returns the track count.
[[nodiscard]] std::int32_t constrained_left_edge_assign(
    std::vector<ChannelSegment>& segments, std::int32_t* vcg_violations);

/// Splits every segment at its interior tap columns (the classic dogleg
/// preparation). Taps at a split column stay with the left piece; the
/// resulting left-to-right chains are appended to `chains`.
void split_segments_at_taps(std::vector<ChannelSegment>& segments,
                            std::vector<std::vector<std::size_t>>& chains);

}  // namespace bgr
