#include "bgr/route/density.hpp"

#include <algorithm>

namespace bgr {

namespace {

/// (max, count-of-max) merge of two disjoint column sets; branch-free, so
/// the ancestor rebuild loops vectorize.
template <typename Peak>
Peak merge(const Peak& a, const Peak& b) {
  const std::int32_t max = a.max > b.max ? a.max : b.max;
  return Peak{max, (a.max == max ? a.count : 0) + (b.max == max ? b.count : 0)};
}

}  // namespace

DensityMap::DensityMap(std::int32_t channels, std::int32_t width)
    : width_(width), channel_count_(channels), leaves_(1) {
  BGR_CHECK(channels >= 1 && width >= 1);
  while (leaves_ < width) leaves_ *= 2;
  // One all-zero row: every real column attains the zero maximum, padding
  // leaves (−1, 0) never do.
  std::vector<Peak> blank(2 * static_cast<std::size_t>(leaves_));
  for (std::int32_t x = 0; x < leaves_; ++x) {
    blank[static_cast<std::size_t>(leaves_ + x)] =
        x < width ? Peak{0, 1} : Peak{-1, 0};
  }
  for (auto i = static_cast<std::size_t>(leaves_) - 1; i >= 1; --i) {
    blank[i] = merge(blank[2 * i], blank[2 * i + 1]);
  }
  total_.reserve(blank.size() * static_cast<std::size_t>(channels));
  for (std::int32_t c = 0; c < channels; ++c) {
    total_.insert(total_.end(), blank.begin(), blank.end());
  }
  bridge_ = total_;
  params_.assign(static_cast<std::size_t>(channels),
                 ChannelDensityParams{0, width, 0, width});
  version_.assign(static_cast<std::size_t>(channels), 0);
  aggregate_version_.assign(static_cast<std::size_t>(channels), 0);
}

void DensityMap::apply(std::vector<Peak>& chart, std::int32_t channel,
                       IntInterval span, std::int32_t delta) {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  BGR_CHECK(!span.empty());
  BGR_CHECK(span.lo >= 0 && span.hi < width_);
  Peak* tree = chart.data() + row(channel);
  auto lo = static_cast<std::size_t>(leaves_ + span.lo);
  auto hi = static_cast<std::size_t>(leaves_ + span.hi);
  std::int32_t lowest = 0;
  for (std::size_t i = lo; i <= hi; ++i) {
    tree[i].max += delta;
    lowest = std::min(lowest, tree[i].max);
  }
  BGR_CHECK(lowest >= 0);
  for (lo /= 2, hi /= 2; lo >= 1; lo /= 2, hi /= 2) {
    for (std::size_t i = lo; i <= hi; ++i) {
      tree[i] = merge(tree[2 * i], tree[2 * i + 1]);
    }
  }
  const auto c = static_cast<std::size_t>(channel);
  ++version_[c];
  const Peak& t = total_[row(channel) + 1];
  const Peak& b = bridge_[row(channel) + 1];
  const ChannelDensityParams p{t.max, t.count, b.max, b.count};
  ChannelDensityParams& cached = params_[c];
  if (p.c_max != cached.c_max || p.nc_max != cached.nc_max ||
      p.c_min != cached.c_min || p.nc_min != cached.nc_min) {
    cached = p;
    ++aggregate_version_[c];
  }
}

void DensityMap::add_total(std::int32_t channel, IntInterval span,
                           std::int32_t w) {
  apply(total_, channel, span, w);
}

void DensityMap::remove_total(std::int32_t channel, IntInterval span,
                              std::int32_t w) {
  apply(total_, channel, span, -w);
}

void DensityMap::add_bridge(std::int32_t channel, IntInterval span,
                            std::int32_t w) {
  apply(bridge_, channel, span, w);
}

void DensityMap::remove_bridge(std::int32_t channel, IntInterval span,
                               std::int32_t w) {
  apply(bridge_, channel, span, -w);
}

EdgeDensityParams DensityMap::edge_params(std::int32_t channel,
                                          IntInterval span) const {
  BGR_CHECK(channel >= 0 && channel < channel_count_);
  BGR_CHECK(!span.empty() && span.lo >= 0 && span.hi < width_);
  const Peak* total = total_.data() + row(channel);
  const Peak* bridge = bridge_.data() + row(channel);
  Peak t{-1, 0};
  Peak b{-1, 0};
  // Bottom-up walk over the half-open leaf range [lo, hi) of both charts.
  auto lo = static_cast<std::size_t>(leaves_ + span.lo);
  auto hi = static_cast<std::size_t>(leaves_ + span.hi) + 1;
  for (; lo < hi; lo /= 2, hi /= 2) {
    if ((lo & 1U) != 0) {
      t = merge(t, total[lo]);
      b = merge(b, bridge[lo]);
      ++lo;
    }
    if ((hi & 1U) != 0) {
      --hi;
      t = merge(t, total[hi]);
      b = merge(b, bridge[hi]);
    }
  }
  return EdgeDensityParams{t.max, t.count, b.max, b.count};
}

std::int64_t DensityMap::sum_max_density() const {
  std::int64_t sum = 0;
  for (const ChannelDensityParams& p : params_) sum += p.c_max;
  return sum;
}

}  // namespace bgr
