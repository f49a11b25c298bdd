#include "bgr/route/density.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bgr/common/rng.hpp"

namespace bgr {
namespace {

TEST(Density, EmptyChannelParams) {
  DensityMap map(2, 10);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 0);
  EXPECT_EQ(p.nc_max, 10);  // every column attains the zero maximum
  EXPECT_EQ(p.c_min, 0);
  EXPECT_EQ(p.nc_min, 10);
}

TEST(Density, AddAndRemoveTotal) {
  DensityMap map(1, 10);
  map.add_total(0, {2, 6}, 1);
  map.add_total(0, {4, 8}, 1);
  EXPECT_EQ(map.total_at(0, 3), 1);
  EXPECT_EQ(map.total_at(0, 5), 2);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 2);
  EXPECT_EQ(p.nc_max, 3);  // columns 4,5,6
  map.remove_total(0, {2, 6}, 1);
  EXPECT_EQ(map.channel_params(0).c_max, 1);
}

TEST(Density, MultiPitchContributesWidth) {
  DensityMap map(1, 10);
  map.add_total(0, {0, 4}, 3);
  EXPECT_EQ(map.total_at(0, 2), 3);
  EXPECT_EQ(map.channel_params(0).c_max, 3);
}

TEST(Density, BridgeChartIsSeparate) {
  DensityMap map(1, 10);
  map.add_total(0, {0, 9}, 1);
  map.add_bridge(0, {3, 5}, 1);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 1);
  EXPECT_EQ(p.c_min, 1);
  EXPECT_EQ(p.nc_min, 3);
  EXPECT_EQ(map.bridge_at(0, 4), 1);
  EXPECT_EQ(map.bridge_at(0, 6), 0);
}

TEST(Density, NegativeChartRejected) {
  DensityMap map(1, 10);
  EXPECT_THROW(map.remove_total(0, {0, 0}, 1), CheckError);
}

TEST(Density, OutOfRangeRejected) {
  DensityMap map(1, 10);
  EXPECT_THROW(map.add_total(0, {8, 12}, 1), CheckError);
  EXPECT_THROW(map.add_total(0, IntInterval{}, 1), CheckError);
}

TEST(Density, EdgeParamsFigure4Semantics) {
  // Reconstruct the Fig. 4 situation: an edge interval that covers part of
  // the channel; D_M / ND_M are the chart maxima *within the interval*.
  DensityMap map(1, 12);
  map.add_total(0, {0, 3}, 1);
  map.add_total(0, {2, 9}, 1);
  map.add_total(0, {2, 5}, 1);  // peak 3 on columns 2..3
  const auto& cp = map.channel_params(0);
  EXPECT_EQ(cp.c_max, 3);
  EXPECT_EQ(cp.nc_max, 2);
  // Edge covering columns 4..9 sees maximum 2 (columns 4,5) → ND_M = 2.
  const auto ep = map.edge_params(0, {4, 9});
  EXPECT_EQ(ep.d_max, 2);
  EXPECT_EQ(ep.nd_max, 2);
  // Edge covering the peak directly.
  const auto ep2 = map.edge_params(0, {2, 3});
  EXPECT_EQ(ep2.d_max, 3);
  EXPECT_EQ(ep2.nd_max, 2);
}

TEST(Density, VersionBumpsOnEveryChange) {
  DensityMap map(2, 10);
  const auto v0 = map.version(0);
  map.add_total(0, {0, 1}, 1);
  EXPECT_GT(map.version(0), v0);
  EXPECT_EQ(map.version(1), 0u);
  const auto v1 = map.version(0);
  map.add_bridge(0, {0, 0}, 1);
  EXPECT_GT(map.version(0), v1);
}

TEST(Density, SumMaxDensity) {
  DensityMap map(3, 10);
  map.add_total(0, {0, 5}, 2);
  map.add_total(2, {0, 5}, 1);
  EXPECT_EQ(map.sum_max_density(), 3);
}

/// Property sweep: incremental params equal a brute-force recomputation.
class DensityRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DensityRandom, ParamsMatchBruteForce) {
  Rng rng(GetParam());
  constexpr std::int32_t kWidth = 24;
  DensityMap map(1, kWidth);
  std::vector<std::int32_t> total(kWidth, 0);
  std::vector<std::int32_t> bridge(kWidth, 0);
  struct Op {
    IntInterval span;
    std::int32_t w;
    bool is_bridge;
  };
  std::vector<Op> live;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      Op op{IntInterval::spanning(rng.uniform_i32(0, kWidth - 1),
                                  rng.uniform_i32(0, kWidth - 1)),
            rng.uniform_i32(1, 3), rng.bernoulli(0.3)};
      live.push_back(op);
      if (op.is_bridge) {
        map.add_bridge(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          bridge[static_cast<std::size_t>(x)] += op.w;
      } else {
        map.add_total(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          total[static_cast<std::size_t>(x)] += op.w;
      }
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
      const Op op = live[i];
      live[i] = live.back();
      live.pop_back();
      if (op.is_bridge) {
        map.remove_bridge(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          bridge[static_cast<std::size_t>(x)] -= op.w;
      } else {
        map.remove_total(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          total[static_cast<std::size_t>(x)] -= op.w;
      }
    }
    // Verify the charts and aggregates.
    std::int32_t c_max = 0, c_min = 0;
    for (std::int32_t x = 0; x < kWidth; ++x) {
      EXPECT_EQ(map.total_at(0, x), total[static_cast<std::size_t>(x)]);
      EXPECT_EQ(map.bridge_at(0, x), bridge[static_cast<std::size_t>(x)]);
      c_max = std::max(c_max, total[static_cast<std::size_t>(x)]);
      c_min = std::max(c_min, bridge[static_cast<std::size_t>(x)]);
    }
    const auto& p = map.channel_params(0);
    EXPECT_EQ(p.c_max, c_max);
    EXPECT_EQ(p.c_min, c_min);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityRandom, ::testing::Values(1u, 2u, 3u));

TEST(Density, AggregateVersionMovesOnlyOnParamChange) {
  DensityMap map(2, 10);
  const auto a0 = map.aggregate_version(0);
  map.add_total(0, {0, 9}, 1);  // max 0 → 1 on every column
  EXPECT_GT(map.aggregate_version(0), a0);
  EXPECT_EQ(map.aggregate_version(1), 0u);
  const auto a1 = map.aggregate_version(0);
  map.add_total(0, {2, 3}, 2);  // new peak 3 on two columns
  const auto a2 = map.aggregate_version(0);
  EXPECT_GT(a2, a1);
  map.add_total(0, {7, 7}, 1);  // 2, below the peak: C_M, NC_M unchanged
  EXPECT_EQ(map.aggregate_version(0), a2);
  map.remove_total(0, {7, 7}, 1);
  EXPECT_EQ(map.aggregate_version(0), a2);
  map.add_total(0, {5, 5}, 2);  // third column at the peak: NC_M moves
  EXPECT_GT(map.aggregate_version(0), a2);
}

/// Property sweep for the segment-tree charts: multi-pitch add/remove
/// sequences over several channels and widths (powers of two and not),
/// checked against a naive column scan after every update — every column,
/// the channel aggregates, edge params over random spans, and the
/// aggregate version moving exactly when the aggregates changed.
TEST(Density, SegmentTreeMatchesNaiveColumnScan) {
  struct Naive {
    std::vector<std::int32_t> total, bridge;
  };
  auto max_count = [](const std::vector<std::int32_t>& chart,
                      std::int32_t lo, std::int32_t hi) {
    std::int32_t best = 0, count = 0;
    for (std::int32_t x = lo; x <= hi; ++x) {
      const auto v = chart[static_cast<std::size_t>(x)];
      if (v > best) {
        best = v;
        count = 1;
      } else if (v == best) {
        ++count;
      }
    }
    return std::pair<std::int32_t, std::int32_t>{best, count};
  };
  for (const std::int32_t width : {1, 7, 16, 37, 100}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    Rng rng(static_cast<std::uint64_t>(width) * 31 + 7);
    constexpr std::int32_t kChannels = 3;
    DensityMap map(kChannels, width);
    std::vector<Naive> naive(kChannels);
    for (auto& n : naive) {
      n.total.assign(static_cast<std::size_t>(width), 0);
      n.bridge.assign(static_cast<std::size_t>(width), 0);
    }
    struct Op {
      std::int32_t channel;
      IntInterval span;
      std::int32_t w;
      bool is_bridge;
    };
    std::vector<Op> live;
    for (int step = 0; step < 400; ++step) {
      const bool add = live.empty() || rng.bernoulli(0.55);
      Op op;
      if (add) {
        op = Op{rng.uniform_i32(0, kChannels - 1),
                IntInterval::spanning(rng.uniform_i32(0, width - 1),
                                      rng.uniform_i32(0, width - 1)),
                rng.uniform_i32(1, 4), rng.bernoulli(0.4)};
        live.push_back(op);
      } else {
        const auto i = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
        op = live[i];
        live[i] = live.back();
        live.pop_back();
      }
      const ChannelDensityParams before = map.channel_params(op.channel);
      const auto aggregate = map.aggregate_version(op.channel);
      const std::int32_t delta = add ? op.w : -op.w;
      auto& chart = op.is_bridge ? naive[static_cast<std::size_t>(op.channel)].bridge
                                 : naive[static_cast<std::size_t>(op.channel)].total;
      for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x) {
        chart[static_cast<std::size_t>(x)] += delta;
      }
      if (op.is_bridge) {
        add ? map.add_bridge(op.channel, op.span, op.w)
            : map.remove_bridge(op.channel, op.span, op.w);
      } else {
        add ? map.add_total(op.channel, op.span, op.w)
            : map.remove_total(op.channel, op.span, op.w);
      }
      for (std::int32_t c = 0; c < kChannels; ++c) {
        const Naive& n = naive[static_cast<std::size_t>(c)];
        for (std::int32_t x = 0; x < width; ++x) {
          ASSERT_EQ(map.total_at(c, x), n.total[static_cast<std::size_t>(x)]);
          ASSERT_EQ(map.bridge_at(c, x), n.bridge[static_cast<std::size_t>(x)]);
        }
        const auto [c_max, nc_max] = max_count(n.total, 0, width - 1);
        const auto [c_min, nc_min] = max_count(n.bridge, 0, width - 1);
        const ChannelDensityParams& p = map.channel_params(c);
        ASSERT_EQ(p.c_max, c_max);
        ASSERT_EQ(p.nc_max, nc_max);
        ASSERT_EQ(p.c_min, c_min);
        ASSERT_EQ(p.nc_min, nc_min);
        for (int q = 0; q < 4; ++q) {
          const IntInterval span = IntInterval::spanning(
              rng.uniform_i32(0, width - 1), rng.uniform_i32(0, width - 1));
          const auto [d_max, nd_max] = max_count(n.total, span.lo, span.hi);
          const auto [d_min, nd_min] = max_count(n.bridge, span.lo, span.hi);
          const EdgeDensityParams ep = map.edge_params(c, span);
          ASSERT_EQ(ep.d_max, d_max);
          ASSERT_EQ(ep.nd_max, nd_max);
          ASSERT_EQ(ep.d_min, d_min);
          ASSERT_EQ(ep.nd_min, nd_min);
        }
      }
      const ChannelDensityParams& after = map.channel_params(op.channel);
      const bool changed = after.c_max != before.c_max ||
                           after.nc_max != before.nc_max ||
                           after.c_min != before.c_min ||
                           after.nc_min != before.nc_min;
      EXPECT_EQ(map.aggregate_version(op.channel) != aggregate, changed);
    }
  }
}

}  // namespace
}  // namespace bgr
