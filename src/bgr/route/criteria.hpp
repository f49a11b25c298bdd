#pragma once

#include <cstdint>

#include "bgr/timing/analyzer.hpp"

namespace bgr {

/// Ordering of the heuristic tiers (§3.4 / §3.5): the initial routing and
/// the delay phases compare delay criteria first; the area-improvement
/// phase moves the density tiers right after C_d and compares Gl / LD last.
enum class CriteriaOrder {
  kDelayFirst,  // C_d, Gl, LD, density tiers, length
  kAreaFirst,   // C_d, density tiers, Gl, LD, length
};

/// Full per-edge selection key. The edge with the *smallest* key is deleted
/// — deleting it has the least fatal disadvantage. Density tier semantics:
///   branch      trunk edges (0) are preferred over branch edges (1);
///   f_min       C_m(c) − D_m(e): small ⇒ the edge runs over the channel's
///               forced-density maximum, delete before it can become forced;
///   n_min       NC_m(c) − ND_m(e): residual most-congested length;
///   f_max       C_M(c) − D_M(e): small ⇒ deletion attacks the congested
///               region directly;
///   n_max       NC_M(c) − ND_M(e);
///   neg_length  longer edges preferred (more wire removed).
struct SelectionKey {
  std::int32_t critical_count = 0;  // C_d(e)
  double global_delay = 0.0;        // Gl(e)
  double local_delay = 0.0;         // LD(e)
  std::int32_t branch = 0;
  std::int32_t f_min = 0;
  std::int32_t n_min = 0;
  std::int32_t f_max = 0;
  std::int32_t n_max = 0;
  double neg_length = 0.0;
};

/// The two halves of a SelectionKey, split by what they read.
///   timing   C_d, Gl, LD: the net's (and its differential partner's)
///            routing graph and wiring delay, and the arrival times of the
///            constraints they belong to. Expensive: a tentative-tree path
///            search plus an STA evaluation per member net.
///   density  branch, the f/n tiers and length: the density charts of the
///            edge's channel(s) over its span, and the channel aggregates.
///            Cheap: two O(log W) range queries per channel.
/// A density-only change (the common case: a commit moves a chart that
/// many candidates share) therefore re-fills only the cheap half. The
/// density half is itself two-level: the edge's own span maxima
/// (EdgeDensityParams, re-queried only when an update overlapped the span)
/// and the channel aggregates they are subtracted from.
enum ScoreHalf : std::uint8_t {
  kTimingHalf = 1U << 0,
  kDensityHalf = 1U << 1,
  kDensitySpan = 1U << 2,  // with kDensityHalf: the span maxima moved too
};

/// Cached selection key of one candidate edge. `stale` marks the halves
/// whose inputs moved since they were filled; the selection index
/// (DESIGN.md §17) sets the bits from its reverse indexes after every
/// commit and re-fills exactly those halves before the next selection, so
/// the cached key always equals a from-scratch evaluation when it is read.
struct ScoreCache {
  SelectionKey key;
  std::uint8_t stale = kTimingHalf | kDensityHalf | kDensitySpan;
};

/// Three-way lexicographic comparison under the given tier order: negative
/// when `a` should be deleted in preference to `b`, positive for the
/// reverse, zero when every tier ties.
[[nodiscard]] inline int key_compare(const SelectionKey& a,
                                     const SelectionKey& b,
                                     CriteriaOrder order) {
  auto cmp_delay_tail = [](const SelectionKey& x, const SelectionKey& y,
                           bool with_cd) -> int {
    if (with_cd && x.critical_count != y.critical_count)
      return x.critical_count < y.critical_count ? -1 : 1;
    if (x.global_delay != y.global_delay)
      return x.global_delay < y.global_delay ? -1 : 1;
    if (x.local_delay != y.local_delay)
      return x.local_delay < y.local_delay ? -1 : 1;
    return 0;
  };
  auto cmp_density = [](const SelectionKey& x, const SelectionKey& y) -> int {
    if (x.branch != y.branch) return x.branch < y.branch ? -1 : 1;
    if (x.f_min != y.f_min) return x.f_min < y.f_min ? -1 : 1;
    if (x.n_min != y.n_min) return x.n_min < y.n_min ? -1 : 1;
    if (x.f_max != y.f_max) return x.f_max < y.f_max ? -1 : 1;
    if (x.n_max != y.n_max) return x.n_max < y.n_max ? -1 : 1;
    return 0;
  };

  int c = 0;
  if (order == CriteriaOrder::kDelayFirst) {
    c = cmp_delay_tail(a, b, /*with_cd=*/true);
    if (c == 0) c = cmp_density(a, b);
  } else {
    if (a.critical_count != b.critical_count) {
      c = a.critical_count < b.critical_count ? -1 : 1;
    } else {
      c = cmp_density(a, b);
      if (c == 0) c = cmp_delay_tail(a, b, /*with_cd=*/false);
    }
  }
  if (c != 0) return c;
  if (a.neg_length != b.neg_length) return a.neg_length < b.neg_length ? -1 : 1;
  return 0;
}

/// Lexicographic comparison under the given tier order. Returns true when
/// `a` should be deleted in preference to `b`.
[[nodiscard]] inline bool key_less(const SelectionKey& a, const SelectionKey& b,
                                   CriteriaOrder order) {
  return key_compare(a, b, order) < 0;
}

}  // namespace bgr
