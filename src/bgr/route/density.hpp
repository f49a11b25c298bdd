#pragma once

#include <cstdint>
#include <vector>

#include "bgr/common/check.hpp"
#include "bgr/common/interval.hpp"

namespace bgr {

/// Channel aggregates of §3.3: C_M / C_m are the maxima of the total and
/// bridge-edge density charts, NC_M / NC_m the number of grid columns at
/// those maxima.
struct ChannelDensityParams {
  std::int32_t c_max = 0;    // C_M(c)
  std::int32_t nc_max = 0;   // NC_M(c)
  std::int32_t c_min = 0;    // C_m(c)
  std::int32_t nc_min = 0;   // NC_m(c)
};

/// Per-edge aggregates over the edge's interval (Fig. 4): D_M / D_m are the
/// chart maxima within the interval, ND_M / ND_m the number of interval
/// columns attaining them.
struct EdgeDensityParams {
  std::int32_t d_max = 0;    // D_M(e)
  std::int32_t nd_max = 0;   // ND_M(e)
  std::int32_t d_min = 0;    // D_m(e)
  std::int32_t nd_min = 0;   // ND_m(e)
};

/// Density charts d_M(c, x) (all trunk edges) and d_m(c, x) (bridge trunk
/// edges — the unrecoverable lower bound) for every channel.
///
/// Each chart row is a segment tree over the columns whose nodes hold the
/// maximum over the node's columns and how many of them attain it; the
/// leaves are the exact column values. An update rewrites the leaves of
/// its span (checking that no column goes negative) and rebuilds their
/// ancestors, so edge_params() is an O(log W) range query and
/// channel_params() reads the roots. Trees are padded to a power of two
/// with (−1, 0) leaves, which never attain a maximum.
///
/// Two per-channel counters let the edge-selection index (DESIGN.md §17)
/// detect what an update moved: version() bumps on every chart update,
/// aggregate_version() only when ChannelDensityParams actually changed.
/// All per-channel state (tree rows, params slot, counters) occupies
/// disjoint memory per channel, so callers touching disjoint channel sets
/// may mutate and read concurrently — the contract the sharded deletion
/// loop relies on. Every accessor is a pure read.
class DensityMap {
 public:
  DensityMap(std::int32_t channels, std::int32_t width);

  [[nodiscard]] std::int32_t channel_count() const { return channel_count_; }
  [[nodiscard]] std::int32_t width() const { return width_; }

  /// Adds/removes a w-pitch trunk edge's contribution to d_M.
  void add_total(std::int32_t channel, IntInterval span, std::int32_t w);
  void remove_total(std::int32_t channel, IntInterval span, std::int32_t w);
  /// Adds/removes a w-pitch bridge trunk edge's contribution to d_m.
  void add_bridge(std::int32_t channel, IntInterval span, std::int32_t w);
  void remove_bridge(std::int32_t channel, IntInterval span, std::int32_t w);

  [[nodiscard]] const ChannelDensityParams& channel_params(
      std::int32_t channel) const {
    BGR_CHECK(channel >= 0 && channel < channel_count_);
    return params_[static_cast<std::size_t>(channel)];
  }
  [[nodiscard]] EdgeDensityParams edge_params(std::int32_t channel,
                                              IntInterval span) const;
  [[nodiscard]] std::uint64_t version(std::int32_t channel) const {
    return version_[static_cast<std::size_t>(channel)];
  }
  [[nodiscard]] std::uint64_t aggregate_version(std::int32_t channel) const {
    return aggregate_version_[static_cast<std::size_t>(channel)];
  }

  [[nodiscard]] std::int32_t total_at(std::int32_t channel, std::int32_t x) const {
    return total_[leaf(channel, x)].max;
  }
  [[nodiscard]] std::int32_t bridge_at(std::int32_t channel, std::int32_t x) const {
    return bridge_[leaf(channel, x)].max;
  }

  /// Σ_c C_M(c): the track-count proxy minimized by the area phase.
  [[nodiscard]] std::int64_t sum_max_density() const;

 private:
  /// Segment-tree node: the maximum of one chart over the node's columns
  /// and how many of them attain it.
  struct Peak {
    std::int32_t max = 0;
    std::int32_t count = 0;
  };

  /// Offset of the channel's tree: node 1 is its root, nodes
  /// [leaves_, 2·leaves_) its columns.
  [[nodiscard]] std::size_t row(std::int32_t channel) const {
    return static_cast<std::size_t>(channel) * 2 *
           static_cast<std::size_t>(leaves_);
  }
  [[nodiscard]] std::size_t leaf(std::int32_t channel, std::int32_t x) const {
    return row(channel) + static_cast<std::size_t>(leaves_) +
           static_cast<std::size_t>(x);
  }

  void apply(std::vector<Peak>& chart, std::int32_t channel, IntInterval span,
             std::int32_t delta);

  std::int32_t width_;
  std::int32_t channel_count_;
  std::int32_t leaves_;        // power of two ≥ width_
  std::vector<Peak> total_;    // d_M: channels × 2·leaves_ nodes, heap layout
  std::vector<Peak> bridge_;   // d_m: same layout
  std::vector<ChannelDensityParams> params_;
  std::vector<std::uint64_t> version_;
  std::vector<std::uint64_t> aggregate_version_;
};

}  // namespace bgr
