#!/usr/bin/env python3
"""Router benchmark: one command per workload.

    python3 perfbench/run.py --workload c3p1-serial [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # one table row per workload

Builds the router and the driver from source (Release, in .bench_build/)
on first use, runs the workload, prints every metric with its unit and
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and the benchmark's own
spans (on serve-mix the daemon's) are written as a Chrome trace to
.bench_build/traces/. Exits 1 when
any output is wrong (the JSON line is still printed) or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import serve_mix  # noqa: E402
import stats  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD, "bgr_perfbench")
SERVE = os.path.join(BUILD, "tools", "bgr_serve")
RUN_TIMEOUT_S = 170

# designs: K designs per run (seed N uses design seeds N*K .. N*K+K-1 past
# the preset's own); min_jobs: at least one full pass over them. Batch runs
# add one repeat; capacity-c1 repeats three searches and probe 1 in its
# reference jobs. workers: jobs routed side by side, each by its own
# router at `threads` (default 1), so that a run covers more designs: one
# at a time on four designs, the 10-seed job_s.p50 spread was 0.21-0.26 on
# c3p1-serial (C3-class routing times differ by up to 50 %) and 0.16-0.19
# on capacity-c1; side by side 0.08-0.11 and 0.07. capacity-c1's twelve
# searches are four whole rounds of three, so the clock cuts none short.
WORKLOADS = {
    "c3p1-serial": {"kind": "batch", "design": "c3", "designs": 8,
                    "threads": 1, "min_jobs": 9, "workers": 2},
    "blocks-10k": {"kind": "batch", "design": "10k", "designs": 4,
                   "threads": 4, "min_jobs": 5},
    "serve-mix": {"kind": "serve"},
    # threads=1: on C1 the 4-thread search is no faster than the serial one
    # and its wall time doubles in bursts of host CPU steal (README.md).
    "capacity-c1": {"kind": "capacity", "design": "c1", "designs": 9,
                    "threads": 1, "min_jobs": 12, "workers": 3},
}

# The gated metrics of BENCHMARK.json, printed by every workload. The table
# also prints error_rate, job_s.tail, violations and (capacity-c1)
# min_tracks; README.md says why those are not gated.
END_TO_END = [
    ("setup_s", "s"), ("job_s.p50", "s"),
    ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("critical_delay_ps", "ps"), ("area_mm2", "mm2"), ("length_mm", "mm"),
]

PHASES = ("initial", "recover_violate", "improve_delay", "improve_area")
PHASE_COUNTS = ("deletions", "reroutes", "path_pops", "sta_relaxations")

PER_LAYER = (
    [("gen.generate_s", "s"), ("io.write_design_s", "s"),
     ("io.read_design_s", "s"), ("io.design_mb", "MB"),
     ("io.write_route_s", "s"), ("timing.init_s", "s"),
     ("sta.incremental_updates", "count"), ("sta.dirty_vertices", "count"),
     ("sta.full_vertices", "count"),
     ("route.run_s", "s"), ("route.pre_phase_s", "s"),
     ("route.assign_s", "s"), ("route.feed_cells_added", "count"),
     ("route.build_graphs_s", "s"), ("route.graph_edges", "count")]
    + [("route.%s_s" % p, "s") for p in PHASES]
    + [("route.%s.%s" % (p, c), "count") for p in PHASES for c in PHASE_COUNTS]
    + [("route.%s.exec_regions" % p, "count") for p in PHASES]
    + [("route.deleted_edges", "count"), ("route.violations", "count"),
       ("route.score_cache.hit_ratio", "ratio"),
       ("route.score_evals_per_deletion", "count"),
       ("route.cpu_util", "ratio"),
       ("path.pops_per_search", "count"), ("path.cache_hit_ratio", "ratio"),
       ("path.cone_repairs", "count"),
       ("shard.components", "count"), ("shard.fallbacks", "count"),
       ("shard.scan_imbalance", "ratio"), ("exec.items_per_region", "count"),
       ("channel.run_s", "s"), ("channel.delay_s", "s"),
       ("channel.tracks", "count"),
       ("verify.run_s", "s"), ("verify.errors", "count"),
       ("metrics.report_s", "s"),
       ("serve.accept_s.p50", "s"), ("serve.accept_s.p90", "s"),
       ("serve.frame_mb_per_s", "MB/s"),
       ("serve.queue_wait_s.p50", "s"), ("serve.queue_wait_s.p90", "s"),
       ("serve.session_s.p50", "s"),
       ("serve.result_hit_ratio", "ratio"), ("serve.design_hit_ratio", "ratio"),
       ("serve.cache_bytes", "MB")]
    + [("serve.phase.%s_s.p50" % p, "s")
       for p in ("parse", "route", "channel", "verify", "report")]
    + [("capacity.probes", "count"), ("capacity.probe_s", "s"),
       ("capacity.reroute_passes", "count"), ("capacity.min_tracks", "count"),
       ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio")])


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver and the daemon (a no-op when up to
    date). Build output goes to .bench_build/build.log."""
    if not os.path.exists(os.path.join(ROOT, "src", "bgr", "route",
                                       "router.hpp")):
        fail("router sources not found next to perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                fail("build failed: %s (see %s)" % (" ".join(cmd), log_path))


def run_driver(args):
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver failed: " + " ".join(args))
    return json.loads(proc.stdout)


def trace_path(workload, seed):
    path = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(path, exist_ok=True)
    return os.path.join(path, "%s-seed%d.json" % (workload, seed))


# -- Metric assembly ---------------------------------------------------------

def ratio_or_zero(num, base):
    value = stats.ratio(num, base)
    return 0.0 if value is None else value


def med(values):
    return stats.median(values) if values else 0.0


def tail_note(values):
    """The tail job time with its percentile label and sample count."""
    if not values:
        return "n/a (no jobs)"
    label, value = stats.tail(values)
    return "%.6g s (%s of n=%d)" % (value, label, len(values))


def layer_metrics_from_job(job, split):
    """Per-layer figures of one traced batch job (and its pre-phase split)."""
    reg = job["registry"]
    phases = {p["name"]: p for p in job["phases"]}
    phase_s = sum(p["seconds"] for p in job["phases"])
    regions = reg.get("exec.regions", 0)
    scans = job["shard_scans"]
    m = {
        "io.read_design_s": job["io.read_design_s"],
        "io.design_mb": job["io.design_mb"],
        "io.write_route_s": job["io.write_route_s"],
        "sta.incremental_updates": reg.get("sta.incremental_updates", 0),
        "sta.dirty_vertices": reg.get("sta.dirty_vertices", 0),
        "sta.full_vertices": reg.get("sta.full_vertices", 0),
        "route.run_s": job["route.run_s"],
        "route.pre_phase_s": job["route.run_s"] - phase_s,
        "route.deleted_edges": reg.get("route.deleted_edges", 0),
        "route.violations": job["violations"],
        "route.cpu_util": ratio_or_zero(job["route.cpu_s"], job["route.run_s"]),
        "exec.items_per_region": ratio_or_zero(reg.get("exec.items", 0),
                                               regions),
        "shard.components": reg.get("shard.components", 0),
        "shard.fallbacks": reg.get("shard.fallbacks", 0),
        "shard.scan_imbalance": ratio_or_zero(
            max(scans) if scans else 0, sum(scans) / len(scans) if scans else 0),
        "channel.run_s": job["channel.run_s"],
        "channel.delay_s": job["channel.delay_s"],
        "channel.tracks": job["channel.tracks"],
        "verify.run_s": job["verify.run_s"],
        "verify.errors": job["verify_errors"],
        "metrics.report_s": job["metrics.report_s"],
        "path.cone_repairs": reg.get("path.cone_repairs", 0),
    }
    m.update(registry_ratios(reg))
    for p in PHASES:
        ph = phases.get(p, {})
        m["route.%s_s" % p] = ph.get("seconds", 0.0)
        for c in PHASE_COUNTS:
            m["route.%s.%s" % (p, c)] = ph.get(c, 0)
        m["route.%s.exec_regions" % p] = ph.get("exec_regions", 0)
    if split:
        m.update(split)
    return m


def registry_ratios(reg):
    """Ratios of MetricsRegistry deltas, shared by the batch jobs (the
    driver's deltas) and serve (deltas of two /metrics scrapes)."""
    hit = reg.get("route.score_cache_hit", 0)
    miss = reg.get("route.score_cache_miss", 0)
    return {
        "route.score_cache.hit_ratio": ratio_or_zero(hit, hit + miss),
        "route.score_evals_per_deletion": ratio_or_zero(
            hit + miss, reg.get("route.deleted_edges", 0)),
        "path.pops_per_search": ratio_or_zero(reg.get("path.pops", 0),
                                              reg.get("path.searches", 0)),
        "path.cache_hit_ratio": ratio_or_zero(reg.get("path.cache_hits", 0),
                                              reg.get("path.searches", 0)),
    }


def median_of_dicts(dicts):
    keys = set().union(*dicts) if dicts else set()
    return {k: med([d[k] for d in dicts if k in d]) for k in keys}


def coverage_and_overhead(trace_file, jobs):
    """trace.coverage: median over traced jobs of the share of the job span
    its direct child spans cover. trace.overhead_ratio: median over
    designs of traced ÷ untraced job wall on the same design."""
    with open(trace_file) as f:
        spans, info = stats.chrome_spans(json.load(f)["traceEvents"])
    cover = [stats.coverage(spans, sid) for sid, (name, _) in info.items()
             if name == "job" and spans[sid][0] == -1]
    ratios = []
    by_design = {}
    for job in jobs:
        by_design.setdefault(job["design"], {}).setdefault(
            job["traced"], []).append(job["wall_s"])
    for walls in by_design.values():
        if walls.get(True) and walls.get(False):
            ratios.append(med(walls[True]) / med(walls[False]))
    return med(cover), med(ratios)


def quality(first_jobs):
    """Median Table-2 quality over the run's designs (first job each)."""
    return {
        "critical_delay_ps": med([j["critical_delay_ps"] for j in first_jobs]),
        "area_mm2": med([j["area_mm2"] for j in first_jobs]),
        "length_mm": med([j["length_mm"] for j in first_jobs]),
    }


def first_per_design(jobs):
    seen = {}
    for job in jobs:
        seen.setdefault(job["design"], job)
    return [seen[d] for d in sorted(seen)]


def batch_result(name, cfg, seed, seconds, trace):
    kind = cfg["kind"]
    args = [kind, "--design", cfg["design"], "--designs", str(cfg["designs"]),
            "--seed", str(seed), "--threads", str(cfg["threads"]),
            "--workers", str(cfg.get("workers", 1)),
            "--seconds", str(seconds), "--min-jobs",
            str(min(2, cfg["min_jobs"]) if trace else cfg["min_jobs"]),
            "--trace", "1" if trace else "0"]
    tfile = trace_path(name, seed) if trace else None
    if trace:
        args += ["--trace-out", tfile]
    raw = run_driver(args)
    timed = raw["jobs"] if kind == "batch" else raw["searches"]
    routed = raw["jobs"] if kind == "batch" else raw["references"]
    for i, job in enumerate(timed + (routed if kind == "capacity" else [])):
        if not job["ok"]:
            print("perfbench: %s job %d (design %d) failed its checks" % (
                name, i, job["design"]), file=sys.stderr)
    walls = [j["wall_s"] for j in timed if not j["traced"]]
    designs = first_per_design(routed)

    e2e = {
        "setup_s": med(raw["setup_s"]),
        "job_s.p50": med(walls),
        "jobs_per_s": len(timed) / raw["timed_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    e2e.update(quality(designs))
    notes = {
        "job_s.p50": "n=%d" % len(walls),
        "jobs_per_s": "%d jobs in %.1f s" % (len(timed), raw["timed_s"]),
        "critical_delay_ps": "median of %d designs" % len(designs),
    }
    extra = {
        "job_s.tail": tail_note(walls),
        "violations": [j["violations"] for j in designs],
        "design0": {k: designs[0][k] for k in
                    ("critical_delay_ps", "area_mm2", "length_mm",
                     "violations")},
    }

    layer = {}
    if trace:
        traced = [j for j in routed if j["traced"]]
        splits = raw["splits"]
        per_job = [layer_metrics_from_job(j, splits[i] if i < len(splits)
                                          else None)
                   for i, j in enumerate(traced)]
        layer = median_of_dicts(per_job)
        layer["gen.generate_s"] = med(raw["gen.generate_s"])
        layer["io.write_design_s"] = med(raw["io.write_design_s"])
        if kind == "capacity":
            searches = raw["searches"]
            layer["capacity.probes"] = med([s["probes"] for s in searches])
            layer["capacity.probe_s"] = med(
                [s["wall_s"] / s["probes"] for s in searches])
            layer["capacity.reroute_passes"] = med(
                [s["reroute_passes"] for s in searches])
            layer["capacity.min_tracks"] = med(
                [s["min_tracks"] for s in searches])
        cov, overhead = coverage_and_overhead(tfile, timed)
        layer["trace.coverage"] = cov
        layer["trace.overhead_ratio"] = overhead
        extra["trace_file"] = os.path.relpath(tfile, ROOT)
    if kind == "capacity":
        extra["min_tracks"] = [s["min_tracks"] for s in first_per_design(
            raw["searches"])]
    return raw["attempted"], raw["failed"], e2e, layer, notes, extra


def serve_result(name, seed, seconds, trace):
    work = os.path.join(BUILD_ROOT, "work", "serve-seed%d" % seed)
    tfile = trace_path(name, seed) if trace else None
    raw = serve_mix.run(DRIVER, SERVE, work, seed, seconds, tfile)
    mixes = raw["mixes"]
    attempted = failed = 0
    expected = {}
    for mix in mixes:
        for error in mix["errors"]:
            print("perfbench: serve-mix %s" % error, file=sys.stderr)
        failed += len(mix["errors"])
        attempted += len(mix["jobs"]) + 1  # the warm-up job counts as well
        if mix["warm"].get("verify_errors") != 0:
            failed += 1
        expected.setdefault(("big", "{}"), mix["warm"].get("digest"))
        for job in mix["jobs"]:
            res = job.result
            ok = (job.event == "done" and res.get("status") == "done"
                  and res.get("verify_errors") == 0 and job.has_flag_payload)
            want = expected.setdefault(job.outcome_key(), res.get("digest"))
            if not ok or res.get("digest") != want:
                print("perfbench: serve-mix %s job failed: %s %r" % (
                    job.kind, job.event, res), file=sys.stderr)
                failed += 1

    # The end-to-end figures and the serve layers come from the first
    # daemon, which runs as in the timed runs.
    mix = mixes[0]
    done = [j for j in mix["jobs"] if j.event == "done"]
    lat = [j.t_done - j.t_send for j in done]
    gen = raw["gen"]
    setup = med(gen["setup_s"]) + mix["daemon_start_s"] + mix["warm_s"]
    warm = mix["warm"]
    # Quality of the small designs the clients had routed: the first miss
    # of each, median over the designs (the warm 10k-class design is one
    # design, so its figures swing with the seed; they are printed apart).
    routed = {}
    for j in done:
        if j.kind == "fresh":
            routed.setdefault(j.design_key, j.result)
    e2e = {
        "setup_s": setup,
        "job_s.p50": med(lat),
        "jobs_per_s": len(done) / mix["timed_s"],
        "peak_rss_mb": mix["peak_rss_mb"],
        "critical_delay_ps": med([r.get("detailed_delay_ps", 0.0)
                                  for r in routed.values()]),
        "area_mm2": med([r.get("area_mm2", 0.0) for r in routed.values()]),
        "length_mm": med([r.get("length_um", 0.0) / 1000.0
                          for r in routed.values()]),
    }
    kinds = {}
    caches = {}
    for j in done:
        kinds[j.kind] = kinds.get(j.kind, 0) + 1
        c = j.result.get("cache", "?")
        caches[c] = caches.get(c, 0) + 1
    notes = {
        "job_s.p50": "n=%d" % len(lat),
        "jobs_per_s": "%d jobs in %.1f s, %d clients closed-loop" % (
            len(done), mix["timed_s"], serve_mix.CLIENTS),
        "critical_delay_ps": "median of %d small designs" % len(routed),
    }
    extra = {"kinds": kinds, "cache": caches, "job_s.tail": tail_note(lat),
             "violations": "%d over %d small designs" % (
                 sum(r.get("violated_constraints", 0)
                     for r in routed.values()), len(routed)),
             "warm_design": {k: warm.get(k) for k in (
                 "detailed_delay_ps", "area_mm2", "length_um",
                 "violated_constraints")}}

    layer = {}
    if trace:
        layer = serve_layers(done, [j for j in done if j.kind == "big"],
                             mix["scrape_before"], mix["scrape_after"])
        layer.update({
            "gen.generate_s": med(gen["gen.generate_s"]),
            "io.write_design_s": med(gen["io.write_design_s"]),
            "io.design_mb": raw["big_bytes"] / 1e6,
        })
        # The second daemon records its own spans: the overhead is its
        # job_s.p50 over the first one's, on the same job scripts, and the
        # coverage is the share of each of its job spans covered by the
        # session phase spans (parse, route, channel, verify, report).
        traced = [j.t_done - j.t_send for j in mixes[1]["jobs"]
                  if j.event == "done"]
        layer["trace.overhead_ratio"] = ratio_or_zero(med(traced), med(lat))
        with open(tfile) as f:
            spans, roots = stats.tagged_job_spans(json.load(f)["traceEvents"])
        layer["trace.coverage"] = med(
            [stats.coverage(spans, r) for r in roots])
        extra["trace_file"] = os.path.relpath(tfile, ROOT)
    return attempted, failed, e2e, layer, notes, extra


def serve_layers(done, frame_jobs, before, after):
    """Per-layer serve metrics from client-side event times, the cache
    dispositions and two /metrics scrapes around the jobs. The frame rate
    is taken over `frame_jobs`, the jobs with the largest frames."""
    acc = [j.t_accepted - j.t_send for j in done if j.t_accepted]
    wait = [j.t_started - j.t_accepted for j in done
            if j.t_started and j.t_accepted]
    sess = [j.t_done - j.t_started for j in done if j.t_started]
    frames = [j.design_bytes / 1e6 / (j.t_accepted - j.t_send)
              for j in frame_jobs if j.t_accepted]

    def delta(metric):
        total = 0.0
        for scope in ("semantic", "nondeterministic"):
            k = 'bgr_%s{scope="%s"}' % (metric.replace(".", "_"), scope)
            total += after.get(k, 0.0) - before.get(k, 0.0)
        return total

    def hits(cache):
        return ratio_or_zero(
            sum(1 for j in done if j.result.get("cache") == cache), len(done))

    layer = registry_ratios({n: delta(n) for n in (
        "route.score_cache_hit", "route.score_cache_miss",
        "route.deleted_edges", "path.pops", "path.searches",
        "path.cache_hits")})
    layer.update({
        "serve.accept_s.p50": med(acc),
        "serve.accept_s.p90": stats.nearest_rank(acc, 90) if acc else 0.0,
        "serve.frame_mb_per_s": med(frames),
        "serve.queue_wait_s.p50": med(wait),
        "serve.queue_wait_s.p90": stats.nearest_rank(wait, 90) if wait else 0.0,
        "serve.session_s.p50": med(sess),
        "serve.result_hit_ratio": hits("result-hit"),
        "serve.design_hit_ratio": hits("design-hit"),
        "serve.cache_bytes": sum(
            v for k, v in after.items()
            if k.startswith("bgr_serve_cache_bytes{")) / 1e6,
    })
    for p in ("parse", "route", "channel", "verify", "report"):
        k = 'bgr_serve_phase_%s_us{scope="nondeterministic",quantile="0.5"}' % p
        layer["serve.phase.%s_s.p50" % p] = after.get(k, 0.0) / 1e6
    return layer


def other_layers(name, cfg, seed):
    """Traced runs also measure the layers their own workload does not
    reach, on that workload's first design, so every per-layer metric is
    measured in every traced run: batch workloads run one capacity search
    and serve their design through a fresh daemon (a miss, then a repeat);
    serve-mix routes and capacity-searches its first small design through
    the driver. Returns (attempted, failed, layer)."""
    attempted = failed = 0
    layer = {}
    if cfg["kind"] == "serve":
        family, design_seed, threads = "small", seed * serve_mix.SMALL_DESIGNS, 4
        kinds = ("batch", "capacity")
    else:
        family, design_seed, threads = (cfg["design"], seed * cfg["designs"],
                                        cfg["threads"])
        kinds = ("capacity",) if cfg["kind"] == "batch" else ()
    for kind in kinds:
        # A batch sub-run needs an untraced/traced pair; a capacity
        # sub-run's reference job is traced anyway.
        sub = {"kind": kind, "design": family, "designs": 1,
               "threads": threads, "min_jobs": 2 if kind == "batch" else 1}
        a, f, _, sub_layer, _, _ = batch_result(
            "%s.%s" % (name, kind), sub, design_seed, 0, True)
        attempted, failed = attempted + a, failed + f
        for key, value in sub_layer.items():
            layer.setdefault(key, value)
    if cfg["kind"] != "serve":
        work = os.path.join(BUILD_ROOT, "work", "%s-seed%d" % (name, seed))
        _, (text,) = serve_mix.generate(DRIVER, work, family, 1, design_seed)
        raw = serve_mix.probe(SERVE, text, threads)
        jobs = raw["jobs"]
        attempted += len(jobs)
        digests = {j.result.get("digest") for j in jobs}
        failed += sum(1 for j in jobs if j.event != "done"
                      or j.result.get("verify_errors") != 0)
        if len(digests) != 1:
            failed += 1
        done = [j for j in jobs if j.event == "done"]
        layer.update(serve_layers(done, done, raw["scrape_before"],
                                  raw["scrape_after"]))
    return attempted, failed, layer


def run_workload(name, seed, seconds, trace):
    cfg = WORKLOADS[name]
    if cfg["kind"] == "serve":
        result = serve_result(name, seed, seconds, trace)
    else:
        result = batch_result(name, cfg, seed, seconds, trace)
    if not trace:
        return result
    attempted, failed, e2e, layer, notes, extra = result
    a, f, more = other_layers(name, cfg, seed)
    for key, value in more.items():
        layer.setdefault(key, value)
    return attempted + a, failed + f, e2e, layer, notes, extra


# -- Output -------------------------------------------------------------------

def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_rows(name, attempted, failed, e2e, layer, notes, extra, trace):
    rate = stats.error_rate(failed, attempted)
    print("workload %s" % name)
    print("  %-32s %12s %-6s (base %d attempted)" % (
        "error_rate", "n/a" if rate is None else fmt(rate), "ratio",
        attempted))
    for metric, unit in END_TO_END:
        print("  %-32s %12s %-6s %s" % (metric, fmt(e2e[metric]), unit,
                                        notes.get(metric, "")))
    for key, value in sorted(extra.items()):
        print("  %-32s %s" % (key, value))
    if trace:
        for metric, unit in PER_LAYER:
            value = layer.get(metric)
            print("  %-32s %12s %s" % (metric, "-" if value is None
                                       else fmt(value), unit))


def print_summary(rows):
    """One row per workload: error rate and every end-to-end metric."""
    header = ["workload", "error_rate"] + ["%s [%s]" % m for m in END_TO_END]
    print("  ".join(header))
    for name, rate, e2e in rows:
        cells = [name, "n/a" if rate is None else fmt(rate)]
        cells += [fmt(e2e[m]) for m, _ in END_TO_END]
        print("  ".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    metrics = {}
    rows = []
    for name in names:
        attempted, failed, e2e, layer, notes, extra = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        print_rows(name, attempted, failed, e2e, layer, notes, extra,
                   bool(args.trace))
        rows.append((name, stats.error_rate(failed, attempted), e2e))
        total_attempted += attempted
        total_failed += failed
        chosen = ([(m, u) for m, u in PER_LAYER] if args.trace
                  else END_TO_END)
        values = layer if args.trace else e2e
        for metric, unit in chosen:
            key = metric if len(names) == 1 else "%s.%s" % (name, metric)
            metrics[key] = {"value": values.get(metric, 0), "unit": unit}
    if len(names) > 1:
        print_summary(rows)
    correct = total_failed == 0
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
