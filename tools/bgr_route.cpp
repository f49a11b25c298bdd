// Command-line front end to the router: routes a `bgr-design 1` file (or a
// built-in dataset given as @NAME) and reports delay, area, length and the
// per-phase statistics; optionally saves the routed result.
//
//   bgr_route <design.txt | @C1P1> [options]
//     --unconstrained     drop the path constraints (area-only baseline)
//     --rc                use the Elmore RC delay model extension
//     --sequential        sequential (net-at-a-time) initial routing
//     --no-improve        skip the §3.5 improvement phases
//     --incremental-sta {on,off}
//                         dirty-cone incremental arrival-time updates (on,
//                         the default) or full per-constraint re-sweeps
//                         (off, the original behavior); the routed result
//                         is bit-identical either way
//     --shard-deletion {on,off}
//                         sharded concurrent edge deletion (on, the
//                         default) or the single global loop (off);
//                         the routed result is bit-identical either way
//     --min-capacity-search
//                         instead of routing once, binary-search the
//                         minimum per-channel track capacity the design
//                         still routes and verifies under; --metrics-out
//                         then writes a bench.capacity report
//     --threads N         exec/ worker threads (1 = serial, 0 = hardware);
//                         the result is bit-identical for any N
//     --repeat K          route K times (fresh design each run) and report
//                         per-run and best wall times
//     --save-route FILE   write the routed trees/tracks (bgr-route 1)
//     --save-design FILE  write the (possibly feed-cell-extended) design
//     --skew              print the multi-pitch clock skew report
//     --map               render the chip map and congestion chart
//     --svg FILE          draw the routed chip as an SVG
//     --verify            run the signoff checks on the result
//     --stats             print design statistics
//     --metrics-out FILE  write the machine-readable run report (JSON)
//     --trace-out FILE    write a Chrome trace-event file of the run
//     --log-format {text,json}
//                         diagnostic log sink format (default text)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bgr/channel/channel_router.hpp"
#include "bgr/common/log.hpp"
#include "bgr/common/parse.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/io/route_io.hpp"
#include "bgr/io/ascii_art.hpp"
#include "bgr/channel/geometry.hpp"
#include "bgr/verify/capacity_search.hpp"
#include "bgr/verify/verifier.hpp"
#include "bgr/metrics/skew.hpp"
#include "bgr/metrics/report.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/obs/trace.hpp"
#include "bgr/common/stopwatch.hpp"
#include "cli_common.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bgr_route <design.txt | @C1P1> [--unconstrained] "
               "[--rc] [--sequential] [--no-improve] "
               "[--incremental-sta on|off] [--shard-deletion on|off] "
               "[--min-capacity-search] "
               "[--threads N] "
               "[--repeat K] [--save-route FILE] [--save-design FILE] "
               "[--skew] [--metrics-out FILE] [--trace-out FILE] "
               "[--log-format text|json] [--help]\n");
}

/// Per-phase wall-time table: every phase of the pipeline with its own
/// time, its share of the routing total, and the exec/ activity inside it.
void print_phase_times(const bgr::RouteOutcome& outcome) {
  double total = 0.0;
  for (const bgr::PhaseStats& ph : outcome.phases) total += ph.seconds;
  std::printf("phase times (routing total %.3fs):\n", total);
  for (const bgr::PhaseStats& ph : outcome.phases) {
    const double share = total > 0.0 ? 100.0 * ph.seconds / total : 0.0;
    std::printf("  %-16s %8.3fs %5.1f%%  regions %5lld  chunks %7lld\n",
                ph.name.c_str(), ph.seconds, share,
                static_cast<long long>(ph.exec_regions),
                static_cast<long long>(ph.exec_chunks));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgr;
  using cli::parse_int_option;
  if (argc == 2 && std::strcmp(argv[1], "--help") == 0) {
    usage(stdout);
    return cli::kExitOk;
  }
  if (argc < 2) {
    usage(stderr);
    return cli::kExitUsage;
  }

  std::string input = argv[1];
  if (input == "--help") {
    usage(stdout);
    return cli::kExitOk;
  }
  if (input.size() > 1 && input[0] == '-') {
    std::fprintf(stderr,
                 "error: expected a design file or @dataset first, "
                 "got option '%s'\n",
                 input.c_str());
    usage(stderr);
    return cli::kExitUsage;
  }
  RouterOptions options;
  bool constrained = true;
  bool capacity_search = false;
  bool print_skew = false;
  bool print_map = false;
  bool run_verify = false;
  bool print_stats_flag = false;
  int repeat = 1;
  std::string svg_path;
  std::string save_route_path;
  std::string save_design_path;
  std::string metrics_out_path;
  std::string trace_out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--unconstrained") {
      constrained = false;
    } else if (arg == "--rc") {
      options.delay_model = DelayModel::kElmoreRC;
    } else if (arg == "--sequential") {
      options.concurrent_initial = false;
    } else if (arg == "--incremental-sta" || arg == "--shard-deletion") {
      bool& enabled = arg == "--incremental-sta" ? options.incremental_sta
                                                 : options.shard_deletion;
      const char* value = i + 1 < argc ? argv[++i] : nullptr;
      std::size_t choice = 0;
      if (!cli::parse_choice_option(arg.c_str(), value, {"on", "off"},
                                    &choice)) {
        return cli::kExitUsage;
      }
      enabled = choice == 0;
    } else if (arg == "--min-capacity-search") {
      capacity_search = true;
    } else if (arg == "--no-improve") {
      options.enable_violation_recovery = false;
      options.enable_delay_improvement = false;
      options.enable_area_improvement = false;
    } else if (arg == "--threads") {
      const char* value = i + 1 < argc ? argv[++i] : nullptr;
      if (!parse_int_option("--threads", value, 0, 1024, &options.threads)) {
        return cli::kExitUsage;
      }
    } else if (arg == "--repeat") {
      const char* value = i + 1 < argc ? argv[++i] : nullptr;
      std::int32_t repeat32 = 1;
      if (!parse_int_option("--repeat", value, 1, 100000, &repeat32)) {
        return cli::kExitUsage;
      }
      repeat = repeat32;
    } else if (arg == "--skew") {
      print_skew = true;
    } else if (arg == "--map") {
      print_map = true;
    } else if (arg == "--verify") {
      run_verify = true;
    } else if (arg == "--stats") {
      print_stats_flag = true;
    } else if (arg == "--svg" && i + 1 < argc) {
      svg_path = argv[++i];
    } else if (arg == "--save-route" && i + 1 < argc) {
      save_route_path = argv[++i];
    } else if (arg == "--save-design" && i + 1 < argc) {
      save_design_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else if (arg == "--log-format" && i + 1 < argc) {
      if (!cli::parse_log_format_option(argv[++i])) return cli::kExitUsage;
    } else if (arg == "--help") {
      usage(stdout);
      return cli::kExitOk;
    } else {
      return cli::unknown_option(arg.c_str(), usage);
    }
  }

  try {
    auto load = [&]() {
      return input.rfind('@', 0) == 0 ? make_dataset(input.substr(1))
                                      : load_design(input);
    };

    if (capacity_search) {
      MetricsRegistry::global().reset();
      Dataset d = load();
      std::printf("design %s: %d cells, %d nets, %zu constraints "
                  "(threads %d)\n",
                  d.name.c_str(), d.netlist.cell_count(),
                  d.netlist.net_count(), d.constraints.size(),
                  options.threads == 0 ? bgr::ExecContext::hardware_threads()
                                       : options.threads);
      options.use_constraints = constrained;
      Stopwatch watch;
      const CapacitySearchResult result = min_capacity_search(
          d.netlist, d.placement, d.tech, d.constraints, options);
      const double seconds = watch.seconds();
      for (const CapacityProbe& probe : result.probes) {
        std::printf("probe W=%-4d max tracks %4d  reroute passes %d  "
                    "verify errors %d  -> %s\n",
                    probe.tracks, probe.max_tracks, probe.reroute_passes,
                    probe.verify_errors,
                    probe.feasible ? "feasible" : "infeasible");
      }
      std::printf("minimum capacity: %d tracks (unconstrained %d, "
                  "%zu probes, %.2f s)\n",
                  result.min_tracks, result.unconstrained_tracks,
                  result.probes.size(), seconds);
      if (!metrics_out_path.empty()) {
        make_capacity_report(d.name, constrained, result, seconds)
            .save(metrics_out_path);
        std::printf("run report written to %s\n", metrics_out_path.c_str());
      }
      return cli::kExitOk;
    }

    // The router inserts feed cells into the netlist it routes, so every
    // repeat starts from a freshly loaded design.
    std::unique_ptr<Dataset> design;
    std::unique_ptr<GlobalRouter> router;
    std::unique_ptr<ChannelStage> channel;
    RouteOutcome outcome;
    double delay = 0.0;
    double best_seconds = 0.0;
    double last_seconds = 0.0;
    if (!trace_out_path.empty()) Trace::global().enable();
    for (int run = 0; run < repeat; ++run) {
      // Counters reset per repetition so --metrics-out reports the final
      // run alone, keeping the semantic section comparable across runs.
      MetricsRegistry::global().reset();
      channel.reset();  // tear down dependents before their design
      router.reset();
      design = std::make_unique<Dataset>(load());
      if (run == 0) {
        std::printf("design %s: %d cells, %d nets, %zu constraints "
                    "(threads %d)\n",
                    design->name.c_str(), design->netlist.cell_count(),
                    design->netlist.net_count(), design->constraints.size(),
                    options.threads == 0 ? bgr::ExecContext::hardware_threads()
                                         : options.threads);
      }
      options.use_constraints = constrained;
      Stopwatch watch;
      router = std::make_unique<GlobalRouter>(
          design->netlist, std::move(design->placement), design->tech,
          design->constraints, options);
      outcome = router->run();
      channel = std::make_unique<ChannelStage>(*router);
      channel->run();
      delay = channel->apply_and_critical_delay_ps(router->delay_graph(),
                                                   options.delay_model);
      const double seconds = watch.seconds();
      best_seconds = run == 0 ? seconds : std::min(best_seconds, seconds);
      last_seconds = seconds;

      if (repeat > 1) {
        std::printf("run %d/%d: %.3fs (routing phases %.3fs)\n", run + 1,
                    repeat, seconds, [&] {
                      double t = 0.0;
                      for (const PhaseStats& ph : outcome.phases)
                        t += ph.seconds;
                      return t;
                    }());
      }
      if (run + 1 == repeat) {
        for (const PhaseStats& ph : outcome.phases) {
          std::printf(
              "phase %-16s deletions %6lld reroutes %5lld crit %8.1f ps "
              "sumCM %6lld dirty %8lld relax %9lld pops %10lld\n",
              ph.name.c_str(), static_cast<long long>(ph.deletions),
              static_cast<long long>(ph.reroutes), ph.critical_delay_ps,
              static_cast<long long>(ph.sum_max_density),
              static_cast<long long>(ph.sta_dirty_vertices),
              static_cast<long long>(ph.sta_relaxations),
              static_cast<long long>(ph.path_pops));
        }
        print_phase_times(outcome);
        std::printf("feed cells added %d (chip +%d pitches)\n",
                    outcome.feed_cells_added, outcome.widen_pitches);
        std::printf("result: delay %.1f ps, area %.4f mm2, length %.2f mm, "
                    "violations %d, cpu %.2f s%s\n",
                    delay, channel->chip_area_mm2(),
                    channel->total_detailed_length_um() / 1000.0,
                    outcome.violated_constraints, seconds,
                    repeat > 1 ? " (last run)" : "");
        if (repeat > 1) {
          std::printf("best of %d runs: %.3f s\n", repeat, best_seconds);
        }
      }
    }

    if (!metrics_out_path.empty()) {
      RunReportInfo info;
      info.design = design->name;
      info.constrained = constrained;
      info.detailed_delay_ps = delay;
      info.wall_seconds = last_seconds;
      make_run_report(*router, *channel, outcome, info).save(metrics_out_path);
      std::printf("run report written to %s\n", metrics_out_path.c_str());
    }
    if (!trace_out_path.empty()) {
      Trace::global().save(trace_out_path);
      std::printf("trace written to %s\n", trace_out_path.c_str());
    }
    if (print_map) {
      std::printf("\nchip map ('#' logic, '.' feed, 'O' pad):\n");
      render_placement(std::cout, design->netlist, router->placement());
      std::printf("\nchannel congestion (relative to each channel's C_M):\n");
      render_congestion(std::cout, *router);
    }
    if (print_skew) {
      for (const ClockNetSkew& entry : clock_skew_report(*router)) {
        std::printf("clock %-10s pitch %d fanout %3d skew %6.2f ps "
                    "(at 1 pitch it would be %6.2f ps)\n",
                    entry.name.c_str(), entry.pitch_width, entry.fanout,
                    entry.skew_ps(), entry.skew_1pitch_ps);
      }
    }
    if (print_stats_flag) {
      print_stats(std::cout, collect_stats(*router, *channel));
    }
    if (run_verify) {
      const RouteVerifier verifier(*router, channel.get());
      const auto issues = verifier.run();
      if (issues.empty()) {
        std::printf("verify: clean (no findings)\n");
      }
      for (const VerifyIssue& issue : issues) {
        std::printf("verify %s [%s]: %s\n",
                    issue.severity == VerifyIssue::Severity::kError ? "ERROR"
                                                                    : "warn ",
                    issue.check.c_str(), issue.message.c_str());
      }
      if (RouteVerifier::has_errors(issues)) return cli::kExitFailure;
    }
    if (!svg_path.empty()) {
      write_svg(svg_path, *router, *channel);
      std::printf("SVG drawing written to %s\n", svg_path.c_str());
    }
    if (!save_route_path.empty()) {
      save_route(save_route_path, *router, *channel);
      std::printf("routed result written to %s\n", save_route_path.c_str());
    }
    if (!save_design_path.empty()) {
      Dataset routed{design->name, design->spec, design->netlist,
                     router->placement(), design->constraints, design->tech};
      save_design(save_design_path, routed);
      std::printf("design written to %s\n", save_design_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return cli::kExitFailure;
  }
  return cli::kExitOk;
}
