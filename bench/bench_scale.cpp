// Scale bench over the block-structured presets (DESIGN.md §13): routes a
// 10k/100k/1M-cell preset through the sharded deletion pipeline, runs the
// channel stage and the signoff verifier (DESIGN.md §18) on the result,
// and gates two floors and one check:
//   - throughput: routed nets per second of routing wall time;
//   - parallelism: the deletion loop's work-based speedup at 8 workers,
//     computed from the deterministic per-shard scan counters via an LPT
//     schedule (total scan work / makespan). Wall time on a loaded CI box
//     is noise; the scan counters are bit-identical on every run, so the
//     ratio gate never flakes;
//   - signoff: RouteVerifier finds no error in the routed result.
// Results land in BENCH_scale.json (schema: tools/check_run_report.py).
//
//   bench_scale [preset] [nets-per-second-floor]
//
// defaults: preset 10k, floor 200 nets/s (conservative: a release build
// routes the 10k preset at a few thousand nets/s).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bgr/channel/channel_router.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/route/router.hpp"
#include "bgr/route/shard.hpp"
#include "bgr/verify/verifier.hpp"

namespace {

using namespace bgr;

/// Makespan of the shards' scan work on `workers` identical workers under
/// longest-processing-time list scheduling — the deterministic stand-in
/// for "what an N-thread run of the shard loop costs".
std::int64_t lpt_makespan(std::vector<std::int64_t> work,
                          std::int32_t workers) {
  std::sort(work.begin(), work.end(), std::greater<>());
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>> loads;
  for (std::int32_t w = 0; w < workers; ++w) loads.push(0);
  for (const std::int64_t item : work) {
    std::int64_t least = loads.top();
    loads.pop();
    loads.push(least + item);
  }
  std::int64_t makespan = 0;
  while (!loads.empty()) {
    makespan = loads.top();
    loads.pop();
  }
  return makespan;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string preset = argc > 1 ? argv[1] : "10k";
  const double floor_nets_per_s = argc > 2 ? std::atof(argv[2]) : 200.0;
  bench::print_banner("scale: sharded deletion on the " + preset +
                      " preset");
  bench::print_substitution_note();

  Dataset design = make_dataset(preset);
  const std::int32_t nets = design.netlist.net_count();
  std::printf("design %s: %d cells, %d nets, %zu constraints\n",
              design.name.c_str(), design.netlist.cell_count(), nets,
              design.constraints.size());

  RouterOptions options;
  options.threads = 2;
  GlobalRouter router(design.netlist, std::move(design.placement),
                      design.tech, design.constraints, options);
  Stopwatch sw;
  const RouteOutcome outcome = router.run();
  const double route_s = sw.seconds();
  const double nets_per_s =
      route_s > 0.0 ? static_cast<double>(nets) / route_s : 0.0;
  std::printf("routed in %.3fs (%.0f nets/s): delay %.1f ps, "
              "length %.2f mm, violations %d\n",
              route_s, nets_per_s, outcome.critical_delay_ps,
              outcome.total_length_um / 1000.0, outcome.violated_constraints);

  ChannelStage channel(router);
  channel.run();
  Stopwatch verify_watch;
  const std::vector<VerifyIssue> issues =
      RouteVerifier(router, &channel).run();
  const double verify_s = verify_watch.seconds();
  std::int64_t verify_errors = 0;
  for (const VerifyIssue& issue : issues) {
    if (issue.severity != VerifyIssue::Severity::kError) continue;
    if (verify_errors++ < 5) {
      std::printf("verify ERROR [%s]: %s\n", issue.check.c_str(),
                  issue.message.c_str());
    }
  }
  std::printf("verified in %.3fs: %lld errors, %zu findings\n", verify_s,
              static_cast<long long>(verify_errors), issues.size());

  const ShardDecomposition& dec = router.shard_decomposition();
  std::int64_t scan_work = 0;
  std::int64_t commits = 0;
  for (std::int32_t s = 0; s < dec.shard_count(); ++s) {
    scan_work += dec.scans[static_cast<std::size_t>(s)];
    commits += dec.commits[static_cast<std::size_t>(s)];
  }
  std::printf("deletion loop: %d shards, %lld scans, %lld commits\n",
              dec.shard_count(), static_cast<long long>(scan_work),
              static_cast<long long>(commits));

  RunReport report("bench.scale");
  JsonValue& design_out = report.section("design");
  design_out.set("name", preset);
  design_out.set("cells", static_cast<std::int64_t>(
                              design.netlist.cell_count()));
  design_out.set("nets", static_cast<std::int64_t>(nets));
  design_out.set("constraints",
                 static_cast<std::int64_t>(design.constraints.size()));
  JsonValue& route_out = report.section("route");
  route_out.set("critical_delay_ps", outcome.critical_delay_ps);
  route_out.set("total_length_um", outcome.total_length_um);
  route_out.set("violated_constraints",
                static_cast<std::int64_t>(outcome.violated_constraints));
  JsonValue& shards_out = report.section("shards");
  shards_out.set("count", static_cast<std::int64_t>(dec.shard_count()));
  shards_out.set("scan_work", scan_work);
  shards_out.set("commits", commits);

  double ratio8 = 0.0;
  JsonValue lpt = JsonValue::array();
  for (const std::int32_t workers : {1, 2, 8}) {
    const std::int64_t makespan = lpt_makespan(dec.scans, workers);
    const double ratio =
        makespan > 0 ? static_cast<double>(scan_work) /
                           static_cast<double>(makespan)
                     : 0.0;
    if (workers == 8) ratio8 = ratio;
    std::printf("  %d workers: LPT makespan %lld scans (work ratio %.2fx)\n",
                workers, static_cast<long long>(makespan), ratio);
    JsonValue entry;
    entry.set("workers", static_cast<std::int64_t>(workers));
    entry.set("makespan", makespan);
    entry.set("work_ratio", ratio);
    lpt.push_back(std::move(entry));
  }
  shards_out.set("lpt", std::move(lpt));

  const bool sharded = dec.shard_count() > 1;
  const bool fast_enough = nets_per_s >= floor_nets_per_s;
  const bool parallel_enough = ratio8 >= 2.0;
  const bool verified = verify_errors == 0;
  JsonValue& result = report.section("result");
  result.set("nets_per_second_floor", floor_nets_per_s);
  result.set("parallel_ratio_8", ratio8);
  result.set("sharded", sharded);
  result.set("verify_errors", verify_errors);
  result.set("pass", sharded && fast_enough && parallel_enough && verified);
  // Wall-clock data lives under "run" so --compare-semantic strips it.
  JsonValue& run_out = report.section("run");
  run_out.set("seconds", route_s);
  run_out.set("nets_per_second", nets_per_s);
  run_out.set("verify_s", verify_s);
  run_out.set("threads", static_cast<std::int64_t>(options.threads));
  report.add_metrics(MetricsRegistry::global());
  bench::save_report(report, "BENCH_scale.json");

  if (!sharded) {
    std::printf("FAIL: the %s preset did not decompose into shards\n",
                preset.c_str());
    return 1;
  }
  if (!fast_enough) {
    std::printf("FAIL: %.0f nets/s under the %.0f nets/s floor\n", nets_per_s,
                floor_nets_per_s);
    return 1;
  }
  if (!parallel_enough) {
    std::printf("FAIL: 8-worker work ratio %.2fx under the 2x floor\n",
                ratio8);
    return 1;
  }
  if (!verified) {
    std::printf("FAIL: the verifier found %lld errors in the routed result\n",
                static_cast<long long>(verify_errors));
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
