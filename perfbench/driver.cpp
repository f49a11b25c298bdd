// Benchmark driver: runs batch routing jobs, capacity searches or design
// generation through the router's public entry points and prints one JSON
// document of raw measurements on stdout. run.py turns those samples into
// the benchmark's metrics; nothing here computes a statistic.
//
//   bgr_perfbench batch    --design c3|10k|c1 --designs K --seed N
//                          --threads T --seconds S [--min-jobs J]
//                          [--workers W] [--trace 0|1] [--trace-out FILE]
//   bgr_perfbench capacity (same flags as batch)
//   bgr_perfbench gen      --design F --designs K --seed N --out-dir DIR
//
// A batch job is what `bgr_route design.txt` does: design text →
// read_design → GlobalRouter::run → ChannelStage → RouteVerifier →
// write_route. A run works on K designs generated from the preset spec
// at seeds derived from N (N = 0 starts with the preset dataset itself),
// written with write_design during set-up; jobs only see that text. Jobs
// cycle through the designs until S seconds have passed, so every design
// after the first pass is a repeat whose outcome digest must match.
//
// With --trace 1 the driver also records its own spans around every call
// into a layer (Chrome trace-event file, the job number as shared id),
// splits the router's pre-phase time by calling the same public steps
// run() uses on a discarded copy of the design, and reports per-phase
// counters and MetricsRegistry deltas around each job.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bgr/channel/channel_router.hpp"
#include "bgr/common/hash.hpp"
#include "bgr/exec/exec_context.hpp"
#include "bgr/exec/parallel.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/io/design_io.hpp"
#include "bgr/io/route_io.hpp"
#include "bgr/metrics/report.hpp"
#include "bgr/obs/json.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/route/assign.hpp"
#include "bgr/route/path_search.hpp"
#include "bgr/route/routing_graph.hpp"
#include "bgr/timing/analyzer.hpp"
#include "bgr/timing/delay_graph.hpp"
#include "bgr/verify/capacity_search.hpp"
#include "bgr/verify/verifier.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process in MB: VmHWM, which reset_peak_rss()
/// rewinds to the current RSS so set-up allocations do not count.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

struct Args {
  std::string mode;
  std::string design = "c3";
  std::uint64_t seed = 0;
  std::int32_t threads = 1;
  double seconds = 10.0;
  std::int32_t min_jobs = 3;
  std::int32_t workers = 1;
  std::int32_t designs = 1;
  bool trace = false;
  std::string trace_out;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("missing mode (batch|capacity|gen)");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--design") {
      args.design = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--threads") {
      args.threads = std::stoi(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--min-jobs") {
      args.min_jobs = std::stoi(value);
    } else if (flag == "--workers") {
      args.workers = std::stoi(value);
    } else if (flag == "--designs") {
      args.designs = std::max(1, std::stoi(value));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.mode != "batch" && args.mode != "capacity" && args.mode != "gen") {
    throw std::runtime_error("unknown mode " + args.mode);
  }
  return args;
}

/// Preset family at the workload seed: seed 0 is the preset itself.
bgr::CircuitSpec spec_for(const std::string& design, std::uint64_t seed) {
  bgr::CircuitSpec spec;
  if (design == "c1") {
    spec = bgr::c1_spec();
  } else if (design == "c3") {
    spec = bgr::c3_spec();
  } else if (design == "10k") {
    spec = bgr::scale_10k_spec();
  } else if (design == "small") {
    // A C1-class design at a sixth of its size: the fresh designs the
    // serve clients send, small enough that routing does not saturate
    // the daemon's runner slots.
    spec = bgr::c1_spec();
    spec.name = "S";
    spec.rows = 4;
    spec.target_cells = 110;
    spec.levels = 5;
    spec.primary_inputs = 6;
    spec.primary_outputs = 6;
    spec.diff_pairs = 2;
    spec.clock_buffers = 1;
    spec.path_constraints = 8;
  } else {
    throw std::runtime_error("unknown design family " + design);
  }
  spec.seed += seed;
  return spec;
}

// -- Spans -----------------------------------------------------------------

/// One span the benchmark recorded around a call into a layer. `parent`
/// is the index of the enclosing span, -1 at top level.
struct Span {
  std::string name;
  std::int64_t job = 0;
  std::int32_t parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  std::int32_t open(std::string name, std::int64_t job) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::move(name);
    span.job = job;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_s = now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_s = now();
    stack_.pop_back();
  }

  /// Chrome trace-event document ("X" complete events, microseconds).
  void save(const std::string& path) const {
    bgr::JsonValue events = bgr::JsonValue::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      bgr::JsonValue event = bgr::JsonValue::object();
      event.set("name", span.name);
      event.set("cat", "perfbench");
      event.set("ph", "X");
      event.set("ts", span.start_s * 1e6);
      event.set("dur", (span.end_s - span.start_s) * 1e6);
      event.set("pid", std::int64_t{1});
      event.set("tid", std::int64_t{1});
      bgr::JsonValue args = bgr::JsonValue::object();
      args.set("job", span.job);
      args.set("span", static_cast<std::int64_t>(i));
      args.set("parent", static_cast<std::int64_t>(span.parent));
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
    bgr::JsonValue doc = bgr::JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << doc.dump() << "\n";
  }

 private:
  double now() const { return since(origin_); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span plus a stopwatch: the layer's time is measured whether or not
/// tracing is on, so the traced and untraced jobs report the same fields.
class Layer {
 public:
  Layer(SpanLog& log, std::string name, std::int64_t job, double* seconds)
      : log_(log), index_(log.open(std::move(name), job)), seconds_(seconds),
        start_(Clock::now()) {}
  ~Layer() {
    if (seconds_ != nullptr) *seconds_ = since(start_);
    log_.close(index_);
  }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
  double* seconds_;
  Clock::time_point start_;
};

// -- Registry deltas -------------------------------------------------------

/// Counter values and histogram sums/counts keyed by name; histograms
/// appear as "<name>.sum" and "<name>.count".
std::map<std::string, std::int64_t> registry_snapshot() {
  std::map<std::string, std::int64_t> out;
  const bgr::MetricsRegistry& reg = bgr::MetricsRegistry::global();
  for (const auto& c : reg.counter_samples()) out[c.name] = c.value;
  for (const auto& h : reg.histogram_samples()) {
    out[h.name + ".sum"] = h.sum;
    out[h.name + ".count"] = h.count;
  }
  return out;
}

bgr::JsonValue registry_delta(const std::map<std::string, std::int64_t>& before,
                              const std::map<std::string, std::int64_t>& after) {
  bgr::JsonValue doc = bgr::JsonValue::object();
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    doc.set(name, value - (it == before.end() ? 0 : it->second));
  }
  return doc;
}

// -- Set-up ----------------------------------------------------------------

/// The run's design set: design i is the preset spec at seed
/// `preset seed + N·K + i` for workload seed N and set size K, so N = 0
/// starts with the preset dataset itself and seeds never share designs.
std::vector<bgr::CircuitSpec> design_set(const std::string& design,
                                         std::uint64_t seed, std::int32_t k) {
  std::vector<bgr::CircuitSpec> specs;
  for (std::int32_t i = 0; i < k; ++i) {
    specs.push_back(spec_for(design, seed * static_cast<std::uint64_t>(k) +
                                         static_cast<std::uint64_t>(i)));
  }
  return specs;
}

// Set-up repetitions per run; setup_s is their median. One repetition of
// a small design set takes a few milliseconds and varies by a third from
// one to the next; a 10k-class design takes ~0.03 s, so nine cost little.
constexpr std::int32_t kSetupReps = 9;

struct Setup {
  std::vector<std::string> texts;  // each design as write_design printed it
  std::vector<double> setup_s, generate_s, write_design_s;  // per repetition
};

/// Generates and serialises every design of the set kSetupReps times (the
/// set-up a user pays before the first job) and checks that each
/// repetition printed the same texts.
Setup make_design_texts(const std::vector<bgr::CircuitSpec>& specs) {
  Setup setup;
  for (std::int32_t r = 0; r < kSetupReps; ++r) {
    double generate_s = 0.0;
    double write_s = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const bgr::Dataset dataset = bgr::generate_circuit(specs[i]);
      generate_s += since(t0);
      const Clock::time_point t1 = Clock::now();
      std::ostringstream os;
      bgr::write_design(os, dataset);
      std::string text = os.str();
      write_s += since(t1);
      if (r == 0) {
        setup.texts.push_back(std::move(text));
      } else if (text != setup.texts[i]) {
        throw std::runtime_error(
            "generate_circuit/write_design not deterministic");
      }
    }
    setup.generate_s.push_back(generate_s);
    setup.write_design_s.push_back(write_s);
    setup.setup_s.push_back(generate_s + write_s);
  }
  return setup;
}

bgr::JsonValue doubles(const std::vector<double>& values) {
  bgr::JsonValue out = bgr::JsonValue::array();
  for (const double v : values) out.push_back(v);
  return out;
}

void set_setup_fields(bgr::JsonValue& doc, const Setup& setup) {
  doc.set("setup_s", doubles(setup.setup_s));
  doc.set("gen.generate_s", doubles(setup.generate_s));
  doc.set("io.write_design_s", doubles(setup.write_design_s));
}

/// Job n of a run over K designs. Untraced runs cycle through the set;
/// traced runs route each design twice in a row, once traced and once
/// not, so the overhead ratio compares two jobs on the same design.
struct JobPlan {
  std::size_t design = 0;
  bool traced = false;
};

JobPlan plan_job(std::int64_t n, std::size_t k, bool trace) {
  if (!trace) return {static_cast<std::size_t>(n) % k, false};
  // Pairs alternate which twin runs first, so warm-up effects cancel.
  const std::int64_t pair = n / 2;
  return {static_cast<std::size_t>(pair) % k, (n % 2 == 1) != (pair % 2 == 1)};
}

/// Runs job(n, plan) for n = 0, 1, ... until at least `min_jobs` have run
/// and `seconds` have passed since t0, and returns the results in job
/// order. Untraced runs route `workers` jobs side by side, each with its
/// own router; traced runs take one job at a time, so that registry deltas
/// and process CPU time belong to one job.
template <typename Result, typename Job>
std::vector<Result> run_timed(const Args& args, std::size_t k,
                              Clock::time_point t0, Job job) {
  std::vector<std::optional<Result>> results;
  std::mutex mutex;
  std::atomic<std::int64_t> next{0};
  auto work = [&] {
    for (;;) {
      // Numbers are claimed in order and every claim made before the time
      // is up runs, so the jobs run are 0 .. n-1 without gaps.
      const std::int64_t n = next.fetch_add(1);
      if (n >= args.min_jobs && since(t0) >= args.seconds) return;
      Result result = job(n, plan_job(n, k, args.trace));
      std::lock_guard<std::mutex> lock(mutex);
      const auto slot = static_cast<std::size_t>(n);
      if (results.size() <= slot) results.resize(slot + 1);
      results[slot].emplace(std::move(result));
    }
  };
  const std::int32_t workers = args.trace ? 1 : std::max(args.workers, 1);
  std::vector<std::thread> pool;
  for (std::int32_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  std::vector<Result> out;
  for (std::optional<Result>& r : results) out.push_back(std::move(*r));
  return out;
}

// -- Batch jobs ------------------------------------------------------------

std::string outcome_digest(const bgr::RouteOutcome& outcome, double delay_ps,
                           double area_mm2, double length_um,
                           const std::string& route_text) {
  bgr::Fingerprint fp;
  fp.mix(outcome.critical_delay_ps);
  fp.mix(outcome.total_length_um);
  fp.mix(outcome.violated_constraints);
  fp.mix(outcome.worst_margin_ps);
  fp.mix(outcome.feed_cells_added);
  for (const bgr::PhaseStats& ph : outcome.phases) {
    fp.mix(std::string_view(ph.name));
    fp.mix(ph.deletions);
    fp.mix(ph.reroutes);
    fp.mix(ph.sum_max_density);
  }
  fp.mix(delay_ps);
  fp.mix(area_mm2);
  fp.mix(length_um);
  fp.mix(std::string_view(route_text));
  return fp.hex();
}

/// The per-layer split of the router's pre-phase work: the same public
/// steps GlobalRouter::run() takes before its first phase, on a private
/// copy of the design that is thrown away afterwards.
bgr::JsonValue pre_phase_split(const std::string& text, std::int32_t threads,
                               SpanLog& log, std::int64_t job) {
  Layer whole(log, "route.pre_phase_split", job, nullptr);
  std::istringstream is(text);
  bgr::Dataset d = bgr::read_design(is, "design");
  bgr::ExecContext exec(threads);
  bgr::JsonValue out = bgr::JsonValue::object();

  double timing_s = 0.0;
  std::unique_ptr<bgr::DelayGraph> delay_graph;
  std::unique_ptr<bgr::TimingAnalyzer> analyzer;
  bgr::IdVector<bgr::NetId, double> slacks;
  {
    Layer layer(log, "timing.init", job, &timing_s);
    d.netlist.validate();
    delay_graph = std::make_unique<bgr::DelayGraph>(d.netlist);
    analyzer = std::make_unique<bgr::TimingAnalyzer>(*delay_graph, d.constraints,
                                                     &exec, true);
    slacks = analyzer->net_slacks();
  }
  double assign_s = 0.0;
  std::unique_ptr<bgr::AssignmentPipelineResult> pipeline;
  {
    Layer layer(log, "route.assign", job, &assign_s);
    pipeline = std::make_unique<bgr::AssignmentPipelineResult>(
        bgr::run_assignment_pipeline(d.netlist, d.placement, slacks));
  }
  // Graphs get their A* bounds attached inside the region, as in run();
  // the default options use the exact per-graph bound, no lookahead map.
  double build_s = 0.0;
  std::int64_t edges = 0;
  {
    Layer layer(log, "route.build_graphs", job, &build_s);
    const bgr::Netlist& netlist = d.netlist;
    bgr::PathSearchEngine engine(bgr::RouterOptions{}.path_search, &exec);
    std::vector<std::unique_ptr<bgr::RoutingGraph>> graphs(
        static_cast<std::size_t>(netlist.net_count()));
    bgr::parallel_for(
        exec, netlist.net_count(),
        [&](std::int64_t i) {
          const bgr::NetId n{static_cast<std::int32_t>(i)};
          const bgr::Net& net = netlist.net(n);
          if (net.is_differential() && !net.diff_primary) {
            graphs[static_cast<std::size_t>(i)] =
                std::make_unique<bgr::RoutingGraph>(
                    netlist, d.placement, d.tech, pipeline->assignment, n,
                    net.diff_partner, 1);
          } else {
            graphs[static_cast<std::size_t>(i)] =
                std::make_unique<bgr::RoutingGraph>(netlist, d.placement,
                                                    d.tech, pipeline->assignment,
                                                    n);
          }
          graphs[static_cast<std::size_t>(i)]->set_path_search(&engine);
        },
        /*grain=*/1);
    for (const auto& g : graphs) edges += g->graph().edge_count();
  }
  out.set("timing.init_s", timing_s);
  out.set("route.assign_s", assign_s);
  out.set("route.feed_cells_added",
          static_cast<std::int64_t>(pipeline->feed_cells_added));
  out.set("route.build_graphs_s", build_s);
  out.set("route.graph_edges", edges);
  return out;
}

struct JobResult {
  double wall_s = 0.0;
  std::string digest;
  bgr::JsonValue doc;
};

JobResult run_job(const std::string& text, const bgr::RouterOptions& options,
                  SpanLog& log, std::int64_t job) {
  JobResult result;
  bgr::JsonValue& doc = result.doc = bgr::JsonValue::object();
  const auto registry_before = registry_snapshot();
  const Clock::time_point t0 = Clock::now();
  std::optional<Layer> job_layer;
  job_layer.emplace(log, "job", job, nullptr);

  double read_s = 0.0;
  std::unique_ptr<bgr::Dataset> d;
  {
    Layer layer(log, "io.read_design", job, &read_s);
    std::istringstream is(text);
    d = std::make_unique<bgr::Dataset>(bgr::read_design(is, "design"));
  }
  double run_s = 0.0;
  std::unique_ptr<bgr::GlobalRouter> router;
  bgr::RouteOutcome outcome;
  const double cpu0 = process_cpu_seconds();
  {
    Layer layer(log, "route.run", job, &run_s);
    router = std::make_unique<bgr::GlobalRouter>(
        d->netlist, std::move(d->placement), d->tech, d->constraints, options);
    outcome = router->run();
  }
  const double route_cpu_s = process_cpu_seconds() - cpu0;
  const auto registry_after = registry_snapshot();

  double channel_s = 0.0;
  double delay_s = 0.0;
  double delay_ps = 0.0;
  std::unique_ptr<bgr::ChannelStage> channel;
  {
    Layer layer(log, "channel.run", job, &channel_s);
    channel = std::make_unique<bgr::ChannelStage>(*router);
    channel->run();
    const Clock::time_point td = Clock::now();
    delay_ps = channel->apply_and_critical_delay_ps(router->delay_graph(),
                                                    options.delay_model);
    delay_s = since(td);
  }
  double verify_s = 0.0;
  std::int64_t verify_errors = 0;
  {
    Layer layer(log, "verify.run", job, &verify_s);
    const bgr::RouteVerifier verifier(*router, channel.get());
    for (const bgr::VerifyIssue& issue : verifier.run()) {
      if (issue.severity == bgr::VerifyIssue::Severity::kError) ++verify_errors;
    }
  }
  double write_s = 0.0;
  std::string route_text;
  {
    Layer layer(log, "io.write_route", job, &write_s);
    std::ostringstream os;
    bgr::write_route(os, *router, *channel);
    route_text = os.str();
  }
  result.wall_s = since(t0);
  job_layer.reset();

  const double area = channel->chip_area_mm2();
  const double length_um = channel->total_detailed_length_um();
  result.digest = outcome_digest(outcome, delay_ps, area, length_um, route_text);

  doc.set("wall_s", result.wall_s);
  doc.set("critical_delay_ps", delay_ps);
  doc.set("area_mm2", area);
  doc.set("length_mm", length_um / 1000.0);
  doc.set("violations", static_cast<std::int64_t>(outcome.violated_constraints));
  doc.set("verify_errors", verify_errors);
  std::int64_t tracks_sum = 0;
  std::int64_t tracks_max = 0;
  for (const std::int32_t t : channel->track_counts()) {
    tracks_sum += t;
    tracks_max = std::max<std::int64_t>(tracks_max, t);
  }
  doc.set("max_tracks", tracks_max);
  doc.set("io.read_design_s", read_s);
  doc.set("io.design_mb", static_cast<double>(text.size()) / 1e6);
  doc.set("io.write_route_s", write_s);
  doc.set("route.run_s", run_s);
  doc.set("route.cpu_s", route_cpu_s);
  doc.set("channel.run_s", channel_s);
  doc.set("channel.delay_s", delay_s);
  doc.set("channel.tracks", tracks_sum);
  doc.set("verify.run_s", verify_s);

  bgr::JsonValue phases = bgr::JsonValue::array();
  for (const bgr::PhaseStats& ph : outcome.phases) {
    bgr::JsonValue p = bgr::JsonValue::object();
    p.set("name", ph.name);
    p.set("seconds", ph.seconds);
    p.set("deletions", ph.deletions);
    p.set("reroutes", ph.reroutes);
    p.set("path_pops", ph.path_pops);
    p.set("sta_relaxations", ph.sta_relaxations);
    p.set("exec_regions", ph.exec_regions);
    phases.push_back(std::move(p));
  }
  doc.set("phases", std::move(phases));
  doc.set("registry", registry_delta(registry_before, registry_after));

  const bgr::ShardDecomposition& shards = router->shard_decomposition();
  bgr::JsonValue scans = bgr::JsonValue::array();
  for (const std::int64_t s : shards.scans) scans.push_back(s);
  doc.set("shard_scans", std::move(scans));

  // The run report is not part of the job a user waits for; it is timed
  // separately so serve-side report costs have a batch reference.
  const Layer report_layer(log, "metrics.report", job, nullptr);
  const Clock::time_point tr = Clock::now();
  bgr::RunReportInfo info;
  info.design = d->name;
  info.detailed_delay_ps = delay_ps;
  info.wall_seconds = result.wall_s;
  const std::string report =
      bgr::make_run_report(*router, *channel, outcome, info).root().dump();
  if (report.empty()) throw std::runtime_error("empty run report");
  doc.set("metrics.report_s", since(tr));
  return result;
}

bgr::JsonValue run_batch(const Args& args) {
  const Setup setup =
      make_design_texts(design_set(args.design, args.seed, args.designs));
  const std::size_t k = setup.texts.size();

  bgr::RouterOptions options;
  options.threads = args.threads;
  options.use_constraints = true;

  SpanLog log(args.trace);
  SpanLog off(false);
  bgr::JsonValue splits = bgr::JsonValue::array();

  reset_peak_rss();
  const Clock::time_point t0 = Clock::now();
  std::vector<JobResult> results = run_timed<JobResult>(
      args, k, t0, [&](std::int64_t n, const JobPlan& plan) {
        const std::string& text = setup.texts[plan.design];
        if (plan.traced) {
          splits.push_back(pre_phase_split(text, args.threads, log, n));
        }
        JobResult job = run_job(text, options, plan.traced ? log : off, n);
        job.doc.set("design", static_cast<std::int64_t>(plan.design));
        job.doc.set("traced", plan.traced);
        return job;
      });
  const double timed_s = since(t0);
  const double rss = peak_rss_mb();
  if (args.trace && !args.trace_out.empty()) log.save(args.trace_out);

  // A repeat of a design must reproduce its first job bit for bit.
  bgr::JsonValue jobs = bgr::JsonValue::array();
  std::vector<std::string> first_digest(k);
  std::int64_t failed = 0;
  const auto n = static_cast<std::int64_t>(results.size());
  for (JobResult& job : results) {
    const auto design = static_cast<std::size_t>(job.doc.at("design").as_int());
    std::string& expected = first_digest[design];
    if (expected.empty()) expected = job.digest;
    const bool ok =
        job.digest == expected && job.doc.at("verify_errors").as_int() == 0;
    if (!ok) ++failed;
    job.doc.set("ok", ok);
    jobs.push_back(std::move(job.doc));
  }

  bgr::JsonValue doc = bgr::JsonValue::object();
  set_setup_fields(doc, setup);
  doc.set("timed_s", timed_s);
  doc.set("peak_rss_mb", rss);
  doc.set("attempted", n);
  doc.set("failed", failed);
  doc.set("jobs", std::move(jobs));
  doc.set("splits", std::move(splits));
  return doc;
}

// -- Capacity search -------------------------------------------------------

bgr::JsonValue run_capacity(const Args& args) {
  const Setup setup =
      make_design_texts(design_set(args.design, args.seed, args.designs));
  const std::size_t k = setup.texts.size();

  bgr::RouterOptions options;
  options.threads = args.threads;
  options.use_constraints = true;

  SpanLog log(args.trace);
  SpanLog off(false);
  bgr::JsonValue searches = bgr::JsonValue::array();
  std::vector<std::string> first_transcript(k);
  std::vector<std::int64_t> unconstrained(k, -1);
  std::int64_t failed = 0;

  struct Search {
    std::size_t design = 0;
    bool traced = false;
    double wall_s = 0.0;
    bgr::CapacitySearchResult result;
  };
  reset_peak_rss();
  const Clock::time_point t0 = Clock::now();
  std::vector<Search> runs = run_timed<Search>(
      args, k, t0, [&](std::int64_t n, const JobPlan& plan) {
        SpanLog& job_log = plan.traced ? log : off;
        Search search{plan.design, plan.traced, 0.0, {}};
        const Clock::time_point ts = Clock::now();
        {
          const Layer job(job_log, "job", n, nullptr);
          std::optional<Layer> layer;
          layer.emplace(job_log, "io.read_design", n, nullptr);
          std::istringstream is(setup.texts[plan.design]);
          const bgr::Dataset d = bgr::read_design(is, "design");
          layer.reset();
          layer.emplace(job_log, "capacity.search", n, nullptr);
          search.result = bgr::min_capacity_search(
              d.netlist, d.placement, d.tech, d.constraints, options);
        }
        search.wall_s = since(ts);
        return search;
      });
  const double timed_s = since(t0);
  const double rss = peak_rss_mb();
  const auto n = static_cast<std::int64_t>(runs.size());
  for (const Search& run : runs) {
    const bgr::CapacitySearchResult& result = run.result;
    // The answer must be a probed, feasible, verifier-clean W, and a
    // repeat on the same design must replay the same probe transcript.
    std::ostringstream transcript;
    std::int64_t passes = 0;
    bool answered = false;
    for (const bgr::CapacityProbe& p : result.probes) {
      transcript << p.tracks << ':' << p.feasible << ':' << p.max_tracks << ':'
                 << p.reroute_passes << ':' << p.verify_errors << ';';
      passes += p.reroute_passes;
      if (p.tracks == result.min_tracks && p.feasible && p.verify_errors == 0) {
        answered = true;
      }
    }
    std::string& expected = first_transcript[run.design];
    if (expected.empty()) expected = transcript.str();
    const bool ok = answered && transcript.str() == expected;
    if (!ok) ++failed;
    unconstrained[run.design] = result.unconstrained_tracks;

    bgr::JsonValue s = bgr::JsonValue::object();
    s.set("wall_s", run.wall_s);
    s.set("design", static_cast<std::int64_t>(run.design));
    s.set("ok", ok);
    s.set("traced", run.traced);
    s.set("probes", static_cast<std::int64_t>(result.probes.size()));
    s.set("reroute_passes", passes);
    s.set("min_tracks", static_cast<std::int64_t>(result.min_tracks));
    searches.push_back(std::move(s));
  }

  // One batch job per design after the timed window. Its routed result is
  // the search's first, unbounded probe, so its densest channel must equal
  // the search's upper bound; it also supplies the design's Table-2
  // quality and, when traced, the router's layer counters.
  // They run side by side like the searches: one pass, no time limit.
  bgr::JsonValue references = bgr::JsonValue::array();
  bgr::JsonValue splits = bgr::JsonValue::array();
  Args one_pass = args;
  one_pass.min_jobs = static_cast<std::int32_t>(k);
  one_pass.seconds = 0.0;
  std::vector<JobResult> routed = run_timed<JobResult>(
      one_pass, k, Clock::now(), [&](std::int64_t i, const JobPlan&) {
        const std::string& text = setup.texts[static_cast<std::size_t>(i)];
        if (args.trace) {
          splits.push_back(pre_phase_split(text, args.threads, log, n + i));
        }
        return run_job(text, options, args.trace ? log : off, n + i);
      });
  for (std::size_t i = 0; i < k; ++i) {
    JobResult& reference = routed[i];
    const bool ok = reference.doc.at("verify_errors").as_int() == 0 &&
                    (unconstrained[i] < 0 ||
                     reference.doc.at("max_tracks").as_int() == unconstrained[i]);
    if (!ok) ++failed;
    reference.doc.set("design", static_cast<std::int64_t>(i));
    reference.doc.set("ok", ok);
    reference.doc.set("traced", args.trace);
    references.push_back(std::move(reference.doc));
  }
  if (args.trace && !args.trace_out.empty()) log.save(args.trace_out);

  bgr::JsonValue doc = bgr::JsonValue::object();
  set_setup_fields(doc, setup);
  doc.set("timed_s", timed_s);
  doc.set("peak_rss_mb", rss);
  doc.set("attempted", n + static_cast<std::int64_t>(k));
  doc.set("failed", failed);
  doc.set("searches", std::move(searches));
  doc.set("references", std::move(references));
  doc.set("splits", std::move(splits));
  return doc;
}

// -- Serve inputs ----------------------------------------------------------

/// Writes a design set as files <family>_<i>.txt (the serve workload's
/// inputs, and the design a traced run serves), generated kSetupReps times
/// for the set-up time.
bgr::JsonValue run_gen(const Args& args) {
  if (args.out_dir.empty()) throw std::runtime_error("gen needs --out-dir");
  const Setup setup =
      make_design_texts(design_set(args.design, args.seed, args.designs));
  bgr::JsonValue files = bgr::JsonValue::array();
  for (std::size_t i = 0; i < setup.texts.size(); ++i) {
    const std::string name = args.design + "_" + std::to_string(i) + ".txt";
    std::ofstream os(args.out_dir + "/" + name, std::ios::binary);
    os << setup.texts[i];
    if (!os) throw std::runtime_error("cannot write " + name);
    files.push_back(name);
  }
  bgr::JsonValue doc = bgr::JsonValue::object();
  set_setup_fields(doc, setup);
  doc.set("files", std::move(files));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    bgr::JsonValue doc = args.mode == "batch"      ? run_batch(args)
                         : args.mode == "capacity" ? run_capacity(args)
                                                   : run_gen(args);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgr_perfbench: %s\n", e.what());
    return 1;
  }
}
