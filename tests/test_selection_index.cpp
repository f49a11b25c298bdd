// Oracle battery for incremental candidate selection (DESIGN.md §17). The
// router keeps its candidates in a SelectionIndex and re-fills only the key
// halves whose inputs a commit moved; this file checks, at every selection
// of every deletion loop (global, per shard, per net), that every live
// candidate's cached key equals a from-scratch compute_key and that the
// index winner equals a brute-force scan breaking ties on (net name, edge).
#include "bgr/route/selection_index.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bgr/common/natural_order.hpp"
#include "bgr/common/rng.hpp"
#include "bgr/fuzz/spec_sampler.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/route/router.hpp"
#include "test_util.hpp"

namespace bgr {

/// Friend of GlobalRouter: installs a selection audit that replays the
/// full rescan the index replaced, and checks every live candidate's
/// cached key against a fresh evaluation (so a missed dirty rule shows up
/// even where it does not flip the winner).
struct SelectionOracle {
  struct Tally {
    std::atomic<std::int64_t> checks{0};
    std::atomic<std::int64_t> mismatches{0};
    std::atomic<std::int64_t> multi_net{0};   // global and shard loops
    std::atomic<std::int64_t> area_first{0};  // under CriteriaOrder::kAreaFirst
  };

  static void install(GlobalRouter& router, Tally& tally) {
    router.selection_audit_ =
        [&router, &tally](const std::vector<GlobalRouter::Candidate>& list,
                          GlobalRouter::Candidate chosen,
                          const GlobalRouter::CachedKeyLookup& cached) {
          const GlobalRouter::Candidate* best = nullptr;
          SelectionKey best_key;
          bool multi = false;
          std::int64_t stale = 0;
          for (const GlobalRouter::Candidate& c : list) {
            multi = multi || c.net != list.front().net;
            const RoutingGraph& g = router.net_graph(c.net);
            const SelectionKey* kept = cached(c);
            if (!g.graph().edge_alive(c.edge) || g.is_bridge(c.edge)) {
              if (kept != nullptr) ++stale;  // a dead candidate still indexed
              continue;
            }
            const SelectionKey key = router.compute_key(c.net, c.edge);
            if (kept == nullptr || key_compare(*kept, key, router.order_) != 0) {
              ++stale;
            }
            bool take = best == nullptr || key_less(key, best_key, router.order_);
            if (!take && !key_less(best_key, key, router.order_)) {
              const std::string& cn = router.netlist_.net(c.net).name;
              const std::string& bn = router.netlist_.net(best->net).name;
              take = natural_less(cn, bn) || (cn == bn && c.edge < best->edge);
            }
            if (take) {
              best = &c;
              best_key = key;
            }
          }
          ++tally.checks;
          if (multi) ++tally.multi_net;
          if (router.order_ == CriteriaOrder::kAreaFirst) ++tally.area_first;
          if (best == nullptr || best->net != chosen.net ||
              best->edge != chosen.edge || stale != 0) {
            ++tally.mismatches;
          }
        };
  }
};

namespace {

struct Audited {
  std::int64_t checks = 0;
  std::int64_t mismatches = 0;
  std::int64_t multi_net = 0;
  std::int64_t area_first = 0;
  std::int32_t shards = 0;
  RouteOutcome outcome;
};

Audited route_audited(const CircuitSpec& spec, RouterOptions options) {
  Dataset design = generate_circuit(spec);
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  SelectionOracle::Tally tally;
  SelectionOracle::install(router, tally);
  Audited out;
  out.outcome = router.run();
  out.checks = tally.checks;
  out.mismatches = tally.mismatches;
  out.multi_net = tally.multi_net;
  out.area_first = tally.area_first;
  out.shards = router.shard_decomposition().shard_count();
  return out;
}

void expect_clean(const Audited& a) {
  EXPECT_GT(a.checks, 0);
  EXPECT_EQ(a.mismatches, 0) << "of " << a.checks << " selections";
}

// Every selection on 50 fuzz-sampled designs; every fifth seed also at 2
// and 8 threads (parallel timing re-fills).
TEST(SelectionIndexOracle, WinnerEqualsFullRescanOnSampledDesigns) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<std::int32_t> thread_counts{1};
    if (seed % 5 == 0) thread_counts = {1, 2, 8};
    for (const std::int32_t threads : thread_counts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      RouterOptions options;
      options.threads = threads;
      expect_clean(route_audited(sample_spec(seed), options));
    }
  }
}

TEST(SelectionIndexOracle, DifferentialPairsAndRcDelays) {
  CircuitSpec spec = testutil::small_spec(71);
  spec.diff_pairs = 4;
  for (const DelayModel model : {DelayModel::kLumpedC, DelayModel::kElmoreRC}) {
    RouterOptions options;
    options.delay_model = model;
    const Audited a = route_audited(spec, options);
    expect_clean(a);
    EXPECT_GT(a.multi_net, 0);
  }
}

// The per-shard loops run the same index concurrently; each audit scans
// only its own shard's candidates.
TEST(SelectionIndexOracle, ShardLoops) {
  CircuitSpec spec = testutil::small_spec(73);
  spec.name = "SHARD73";
  spec.blocks = 3;
  spec.rows = 3;
  spec.target_cells = 300;
  spec.diff_pairs = 3;
  for (const std::int32_t threads : {1, 4}) {
    RouterOptions options;
    options.threads = threads;
    const Audited a = route_audited(spec, options);
    expect_clean(a);
    EXPECT_GT(a.shards, 1);
    EXPECT_GT(a.multi_net, 0);
  }
}

// improve_area switches the tier order to kAreaFirst and back without
// touching any cached key: the index compares under the order current at
// its construction. Audits run under both orders — inside improve_area,
// and in an ECO reroute after the switch back.
TEST(SelectionIndexOracle, WinnerFollowsBothOrderSwitches) {
  Dataset design = generate_circuit(testutil::small_spec(79));
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, RouterOptions{});
  SelectionOracle::Tally tally;
  SelectionOracle::install(router, tally);
  (void)router.run();
  EXPECT_GT(tally.area_first.load(), 0);
  const std::int64_t after_run = tally.checks;
  const std::int64_t area_first = tally.area_first;
  std::vector<NetId> nets;
  for (const NetId n : design.netlist.nets()) {
    if (nets.size() < 8) nets.push_back(n);
  }
  (void)router.reroute(nets);
  EXPECT_GT(tally.checks.load(), after_run);
  EXPECT_EQ(tally.area_first.load(), area_first);  // back under kDelayFirst
  EXPECT_EQ(tally.mismatches.load(), 0);
}

// The index alone: random keys, updates and erasures against a linear
// scan under both tier orders.
TEST(SelectionIndex, TopMatchesLinearScanUnderRandomUpdates) {
  for (const CriteriaOrder order :
       {CriteriaOrder::kDelayFirst, CriteriaOrder::kAreaFirst}) {
    Rng rng(order == CriteriaOrder::kDelayFirst ? 5 : 6);
    SelectionIndex index(order);
    constexpr std::int32_t kSlots = 200;
    auto random_key = [&]() {
      SelectionKey k;
      k.critical_count = rng.uniform_i32(0, 1);
      k.global_delay = rng.uniform_i32(0, 3) * 0.5;
      k.local_delay = rng.uniform_i32(-2, 2) * 1.25;
      k.branch = rng.uniform_i32(0, 1);
      k.f_min = rng.uniform_i32(-1, 1);
      k.n_min = rng.uniform_i32(0, 2);
      k.f_max = rng.uniform_i32(0, 2);
      k.n_max = rng.uniform_i32(0, 2);
      k.neg_length = -rng.uniform_i32(1, 3) * 10.0;
      return k;
    };
    for (std::int32_t s = 0; s < kSlots; ++s) {
      const std::int32_t slot = index.add(rng.uniform_i32(0, 20), s);
      index.entry(slot).score.key = random_key();
    }
    index.build();
    std::vector<bool> live(kSlots, true);
    for (int step = 0; step < 2000 && index.size() > 0; ++step) {
      std::int32_t best = -1;
      for (std::int32_t s = 0; s < kSlots; ++s) {
        if (!live[static_cast<std::size_t>(s)]) continue;
        if (best < 0) {
          best = s;
          continue;
        }
        const auto& a = index.entry(s);
        const auto& b = index.entry(best);
        const int c = key_compare(a.score.key, b.score.key, order);
        if (c < 0 || (c == 0 && (a.rank < b.rank ||
                                 (a.rank == b.rank && a.edge < b.edge)))) {
          best = s;
        }
      }
      ASSERT_EQ(index.top(), best) << "step " << step;
      const auto slot = rng.uniform_i32(0, kSlots - 1);
      if (!live[static_cast<std::size_t>(slot)]) continue;
      if (rng.bernoulli(0.1)) {
        index.erase(slot);
        live[static_cast<std::size_t>(slot)] = false;
      } else {
        index.entry(slot).score.key = random_key();
        index.update(slot);
      }
    }
  }
}

}  // namespace
}  // namespace bgr
