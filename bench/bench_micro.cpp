// Microbenchmarks (google-benchmark) of the router's hot kernels:
// reference Dijkstra / bridge-finding on routing-graph-sized graphs, density chart
// updates, tentative-tree evaluation, and the end-to-end flow on a small
// generated circuit.
#include <benchmark/benchmark.h>

#include "bgr/common/rng.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/graph/small_graph.hpp"
#include "bgr/metrics/experiment.hpp"
#include "bgr/route/density.hpp"
#include "bgr/route/path_search.hpp"
#include "bgr/route/routing_graph.hpp"
#include "bgr/timing/analyzer.hpp"

namespace {

using namespace bgr;

SmallGraph make_random_graph(std::int64_t vertices) {
  Rng rng(42);
  SmallGraph g;
  for (std::int64_t i = 0; i < vertices; ++i) (void)g.add_vertex();
  const auto n = static_cast<std::int32_t>(vertices);
  for (std::int32_t i = 1; i < n; ++i) {
    (void)g.add_edge(i, rng.uniform_i32(0, i - 1), rng.uniform_real(1, 10));
  }
  for (std::int32_t i = 0; i < n; ++i) {
    const auto u = rng.uniform_i32(0, n - 1);
    const auto v = rng.uniform_i32(0, n - 1);
    if (u != v) (void)g.add_edge(u, v, rng.uniform_real(1, 10));
  }
  return g;
}

void BM_Dijkstra(benchmark::State& state) {
  const SmallGraph g = make_random_graph(state.range(0));
  const std::vector<std::int32_t> terminals{g.vertex_count() - 1};
  PathSearchScratch scratch;
  std::vector<std::int32_t> tree;
  for (auto _ : state) {
    benchmark::DoNotOptimize(path_search_tree(
        g, 0, terminals, SmallGraph::kNone, scratch, &tree));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(16)->Arg(64)->Arg(256);

void BM_Bridges(benchmark::State& state) {
  const SmallGraph g = make_random_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.bridges());
  }
}
BENCHMARK(BM_Bridges)->Arg(16)->Arg(64)->Arg(256);

void BM_DensityUpdate(benchmark::State& state) {
  DensityMap map(4, 512);
  Rng rng(7);
  for (auto _ : state) {
    const auto lo = rng.uniform_i32(0, 400);
    const IntInterval span{lo, lo + rng.uniform_i32(0, 100)};
    map.add_total(1, span, 1);
    benchmark::DoNotOptimize(map.channel_params(1));
    map.remove_total(1, span, 1);
  }
}
BENCHMARK(BM_DensityUpdate);

void BM_EdgeParams(benchmark::State& state) {
  DensityMap map(1, 512);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto lo = rng.uniform_i32(0, 400);
    map.add_total(0, {lo, lo + rng.uniform_i32(0, 100)}, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.edge_params(0, {100, 350}));
  }
}
BENCHMARK(BM_EdgeParams);

CircuitSpec micro_spec() {
  CircuitSpec spec;
  spec.name = "bench";
  spec.seed = 4242;
  spec.rows = 5;
  spec.target_cells = 150;
  spec.levels = 7;
  spec.primary_inputs = 8;
  spec.primary_outputs = 8;
  spec.diff_pairs = 2;
  spec.clock_buffers = 1;
  spec.path_constraints = 8;
  return spec;
}

struct FlowFixture {
  Dataset dataset = generate_circuit(micro_spec());
};

void BM_TentativeTree(benchmark::State& state) {
  static const FlowFixture fixture;
  Netlist nl = fixture.dataset.netlist;
  Placement pl = fixture.dataset.placement;
  DelayGraph dg(nl);
  TimingAnalyzer an(dg, fixture.dataset.constraints);
  const auto pipeline = run_assignment_pipeline(nl, pl, an.net_slacks());
  // Largest net graph.
  NetId biggest = NetId{0};
  for (const NetId n : nl.nets()) {
    if (nl.net(n).terminal_count() > nl.net(biggest).terminal_count() &&
        !nl.net(n).is_differential()) {
      biggest = n;
    }
  }
  const RoutingGraph g(nl, pl, fixture.dataset.tech, pipeline.assignment,
                       biggest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.estimated_length_um());
  }
}
BENCHMARK(BM_TentativeTree);

void BM_FullFlowConstrained(benchmark::State& state) {
  static const FlowFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_flow(fixture.dataset, true));
  }
}
BENCHMARK(BM_FullFlowConstrained)->Unit(benchmark::kMillisecond);

void BM_FullFlowUnconstrained(benchmark::State& state) {
  static const FlowFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_flow(fixture.dataset, false));
  }
}
BENCHMARK(BM_FullFlowUnconstrained)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
