#pragma once

#include <string>
#include <vector>

#include "bgr/channel/channel_router.hpp"
#include "bgr/route/router.hpp"

namespace bgr {

/// One verification finding. `kError` findings mean the result is not a
/// legal global routing; `kWarning` findings are quality or consistency
/// observations.
struct VerifyIssue {
  enum class Severity { kError, kWarning };
  Severity severity = Severity::kError;
  std::string check;    // short check identifier
  std::string message;  // human-readable details
};

/// Independent signoff checks over a routed design. The verifier rebuilds
/// every invariant from primary data (netlist, placement, final routing
/// graphs, channel plans) rather than trusting the router's bookkeeping.
/// One gather pass walks each net's alive edges once and feeds the first
/// four checks plus the trunk buckets of the track check. Costs below, for
/// V and E the vertices and edges of all routing graphs, F the feed
/// crossings, C channels of width W and S channel segments of width ≤ w:
///
///   tree            every net is a connected spanning tree of its
///                   terminals, with no dangling non-terminal leaf — O(V+E)
///   geometry        every edge lies inside the chip and uses valid
///                   channels — O(E)
///   feedthrough     vertical crossings sit on unblocked assigned columns
///                   (all w columns of a w-pitch net), and no two nets
///                   share a feedthrough column in a row — O(F·w·log F)
///   density         the incremental density map equals a fresh recount
///                   — O(Σ trunk spans + C·W)
///   differential    pair members are exact mirrors one column apart
///                   — O(E)
///   tracks          channel segments do not overlap on their tracks (a
///                   per-track sweep, O(S·w·log S + overlapping pairs)) and
///                   cover every trunk edge (a net-sorted segment index per
///                   channel, O(E + S·log S))
///
/// Findings come out grouped by check in the order above; within a check
/// in net order, then edge order (tracks: channel, then segment order).
class RouteVerifier {
 public:
  RouteVerifier(const GlobalRouter& router, const ChannelStage* channel)
      : router_(router), channel_(channel) {}

  /// Runs every check; returns all findings (empty = clean).
  [[nodiscard]] std::vector<VerifyIssue> run() const;

  [[nodiscard]] static bool has_errors(const std::vector<VerifyIssue>& issues) {
    for (const VerifyIssue& issue : issues) {
      if (issue.severity == VerifyIssue::Severity::kError) return true;
    }
    return false;
  }

 private:
  const GlobalRouter& router_;
  const ChannelStage* channel_;  // track checks skipped when null
};

}  // namespace bgr
