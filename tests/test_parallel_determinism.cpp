// The exec/ determinism contract, end to end: the full router pipeline
// must produce a bit-identical RouteOutcome — critical delay, total
// length, violations, feed cells, per-phase deletion counts, and per-net
// routed lengths — for 1 and N threads, on several generated designs.
#include <vector>

#include <gtest/gtest.h>

#include "bgr/gen/generator.hpp"
#include "bgr/route/router.hpp"
#include "test_util.hpp"

namespace bgr {
namespace {

struct RunResultSnapshot {
  RouteOutcome outcome;
  std::vector<double> net_lengths_um;
  std::int32_t shards = 0;  // initial-routing shard decomposition size
};

RunResultSnapshot route_design(Dataset design, RouterOptions options,
                               std::int32_t threads) {
  options.threads = threads;
  GlobalRouter router(design.netlist, std::move(design.placement), design.tech,
                      design.constraints, options);
  RunResultSnapshot snap;
  snap.outcome = router.run();
  for (const NetId n : design.netlist.nets()) {
    snap.net_lengths_um.push_back(router.net_length_um(n));
  }
  snap.shards = router.shard_decomposition().shard_count();
  return snap;
}

/// Regenerates the design per run: the router inserts feed cells into the
/// netlist it routes, so the two thread counts must not share one Dataset.
RunResultSnapshot route_with_threads(const CircuitSpec& spec,
                                     RouterOptions options,
                                     std::int32_t threads) {
  return route_design(generate_circuit(spec), options, threads);
}

void expect_bit_identical(const RunResultSnapshot& a,
                          const RunResultSnapshot& b) {
  // EXPECT_EQ on doubles throughout: the contract is bit-identity, not
  // tolerance.
  EXPECT_EQ(a.outcome.critical_delay_ps, b.outcome.critical_delay_ps);
  EXPECT_EQ(a.outcome.total_length_um, b.outcome.total_length_um);
  EXPECT_EQ(a.outcome.violated_constraints, b.outcome.violated_constraints);
  EXPECT_EQ(a.outcome.worst_margin_ps, b.outcome.worst_margin_ps);
  EXPECT_EQ(a.outcome.feed_cells_added, b.outcome.feed_cells_added);
  EXPECT_EQ(a.outcome.widen_pitches, b.outcome.widen_pitches);
  ASSERT_EQ(a.outcome.phases.size(), b.outcome.phases.size());
  for (std::size_t i = 0; i < a.outcome.phases.size(); ++i) {
    const PhaseStats& pa = a.outcome.phases[i];
    const PhaseStats& pb = b.outcome.phases[i];
    EXPECT_EQ(pa.deletions, pb.deletions) << pa.name;
    EXPECT_EQ(pa.reroutes, pb.reroutes) << pa.name;
    EXPECT_EQ(pa.critical_delay_ps, pb.critical_delay_ps) << pa.name;
    EXPECT_EQ(pa.sum_max_density, pb.sum_max_density) << pa.name;
  }
  ASSERT_EQ(a.net_lengths_um.size(), b.net_lengths_um.size());
  for (std::size_t i = 0; i < a.net_lengths_um.size(); ++i) {
    EXPECT_EQ(a.net_lengths_um[i], b.net_lengths_um[i]) << "net " << i;
  }
}

TEST(ParallelDeterminism, SmallDesignsOneVsFourThreads) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const CircuitSpec spec = testutil::small_spec(seed);
    const auto serial = route_with_threads(spec, RouterOptions{}, 1);
    const auto parallel = route_with_threads(spec, RouterOptions{}, 4);
    expect_bit_identical(serial, parallel);
  }
}

TEST(ParallelDeterminism, EightThreadsAndOddCounts) {
  const CircuitSpec spec = testutil::small_spec(11);
  const auto serial = route_with_threads(spec, RouterOptions{}, 1);
  for (const std::int32_t threads : {2, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(serial,
                         route_with_threads(spec, RouterOptions{}, threads));
  }
}

TEST(ParallelDeterminism, ElmoreRcModel) {
  const CircuitSpec spec = testutil::small_spec(5);
  RouterOptions options;
  options.delay_model = DelayModel::kElmoreRC;
  expect_bit_identical(route_with_threads(spec, options, 1),
                       route_with_threads(spec, options, 4));
}

TEST(ParallelDeterminism, SequentialBaselineAndNetBudgets) {
  const CircuitSpec spec = testutil::small_spec(9);
  {
    RouterOptions options;
    options.concurrent_initial = false;
    expect_bit_identical(route_with_threads(spec, options, 1),
                         route_with_threads(spec, options, 4));
  }
  {
    RouterOptions options;
    options.use_net_budgets = true;
    expect_bit_identical(route_with_threads(spec, options, 1),
                         route_with_threads(spec, options, 4));
  }
}

TEST(ParallelDeterminism, PaperPresetC1P1) {
  const auto serial = route_design(make_dataset("C1P1"), RouterOptions{}, 1);
  const auto parallel = route_design(make_dataset("C1P1"), RouterOptions{}, 4);
  expect_bit_identical(serial, parallel);
}

// Threads run only at the coarse sites (DESIGN.md §7): graph build and the
// full STA sweeps before the first phase, and the shard workers inside
// the initial phase. C3P1 forms one interaction component, so none of
// its phases may open a parallel region at any thread count.
TEST(ParallelDeterminism, PaperPresetC3P1OpensNoRegionInsideAnyPhase) {
  const auto serial = route_design(make_dataset("C3P1"), RouterOptions{}, 1);
  const auto parallel = route_design(make_dataset("C3P1"), RouterOptions{}, 4);
  expect_bit_identical(serial, parallel);
  ASSERT_LE(parallel.shards, 1);  // one component: the global loop runs
  for (const PhaseStats& ph : parallel.outcome.phases) {
    EXPECT_EQ(ph.exec_regions, 0) << ph.name;
  }
}

// A block-structured design shards: the initial phase opens exactly one
// region (one chunk per shard) and every later phase runs inline.
TEST(ParallelDeterminism, BlockDesignOpensOnlyTheShardRegion) {
  const CircuitSpec spec = testutil::shard_spec(3, 4);
  const auto serial = route_with_threads(spec, RouterOptions{}, 1);
  const auto parallel = route_with_threads(spec, RouterOptions{}, 4);
  expect_bit_identical(serial, parallel);
  ASSERT_GT(parallel.shards, 1);
  for (const PhaseStats& ph : parallel.outcome.phases) {
    EXPECT_EQ(ph.exec_regions, ph.name == "initial" ? 1 : 0) << ph.name;
  }
}

}  // namespace
}  // namespace bgr
