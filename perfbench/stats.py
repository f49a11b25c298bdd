"""Statistics helpers of the router benchmark.

Every timing the benchmark reports is a median plus the highest percentile
that still has at least ten samples beyond it, always with its sample
count; every ratio carries its base. The helpers here are pure functions
over plain lists so that test_stats.py can check them on synthetic data.
"""

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    A single sample is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Inter-quartile distance as a share of the median (0 for a 0 median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _rank(n, p):
    # Rounded before the ceiling so that 99.9 % of 10000 is rank 9990, not
    # 9991 through binary floating-point error.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(values, p):
    """The p-th percentile by the nearest-rank rule: the smallest sample
    with at least p percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples rank strictly above the nearest-rank p-th
    percentile."""
    return n - _rank(n, p)


def tail(values, percentiles=TAIL_PERCENTILES, min_beyond=MIN_BEYOND):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (label, value): label is "p90", "p99" or "p99.9". With too few
    samples for any of them the maximum is returned, labelled "max", so a
    caller can always print it with its label and sample count.
    """
    if not values:
        raise ValueError("tail of no samples")
    for p in sorted(percentiles, reverse=True):
        if samples_beyond(len(values), p) >= min_beyond:
            return ("p%g" % p, nearest_rank(values, p))
    return ("max", max(values))


def ratio(numerator, base):
    """numerator / base, or None when the base is 0 (printed as n/a)."""
    return numerator / base if base else None


def error_rate(failed, attempted):
    """failed / attempted with its base; None when nothing was attempted."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return ratio(failed, attempted)


def coverage(spans, root):
    """Share of span `root`'s wall time covered by its direct children.

    `spans` maps span id -> (parent id, start, end). Overlapping children
    count once, grandchildren only through their parent, and any part of
    a child outside the root is clipped. Gaps between children are the
    uncovered time.
    """
    _, start, end = spans[root]
    if end <= start:
        return 0.0
    pieces = sorted((max(s, start), min(e, end))
                    for parent, s, e in spans.values() if parent == root)
    covered = 0.0
    cursor = start
    for s, e in pieces:
        s = max(s, cursor)
        if e > s:
            covered += e - s
            cursor = e
    return covered / (end - start)


def chrome_spans(trace_events):
    """Span table for coverage() from the benchmark's Chrome trace events
    (their args carry the span id, parent id and job id): returns
    {span id: (parent, start, end)} and {span id: (name, job)}."""
    spans, info = {}, {}
    for ev in trace_events:
        args = ev.get("args", {})
        sid = args["span"]
        spans[sid] = (args["parent"], ev["ts"], ev["ts"] + ev["dur"])
        info[sid] = (ev["name"], args["job"])
    return spans, info


def tagged_job_spans(trace_events):
    """Span table for coverage() from a daemon's own Chrome trace, whose
    session spans are named `<name>@<trace id>`: each `job@T` span is a
    root and the other `...@T` spans are its children. Spans without a
    trace id are left out. Returns ({span id: (parent, start, end)},
    [root ids])."""
    tagged = [(ev["name"].partition("@"), ev) for ev in trace_events
              if ev.get("ph") == "X" and "@" in ev["name"]]
    roots = {tid: i for i, ((name, _, tid), _) in enumerate(tagged)
             if name == "job"}
    spans = {}
    for i, ((name, _, tid), ev) in enumerate(tagged):
        if name == "job" or tid in roots:
            parent = -1 if name == "job" else roots[tid]
            spans[i] = (parent, ev["ts"], ev["ts"] + ev["dur"])
    return spans, sorted(roots.values())
