"""serve-mix workload: one bgr_serve daemon driven closed-loop over TCP.

Three client threads, each on its own loopback connection, send their next
job only after the previous one's `done` arrives. Each client works
through blocks of 20 jobs of a fixed composition (MIX, an assumption: see
its comment), shuffled by a random stream seeded by the workload seed and
the client number:

  fresh    a small design the daemon has never seen: the next of the
           run's small designs (a shuffled deck per client) under a new
           `name` line, so its content hash is new (cache miss: parse +
           route)
  variant  a design this client sent recently, with an option changed
           (design hit: parse skipped, route re-run)
  flagged  a design this client sent recently, asking for the run report
           or the routed text (design hit; the outcome must equal the
           first miss of that design)
  repeat   an earlier request of this client, verbatim (result hit)
  big      the 10k-class design warmed into the cache during set-up, a
           1.4 MB frame (result hit; framing and hashing dominate)

Every request asks the daemon to verify its result. A job fails when it is
not `done`, when its verifier error count is not 0, when a requested
report or routed text is missing, or when its outcome digest differs from
an earlier job of the same design and options.

A traced run drives two daemons in turn, each for half the time on the
same job scripts: one as in the timed runs and one with its own span
tracing on (`--trace-out`), to measure what that tracing costs.
"""

import json
import os
import random
import socket
import subprocess
import threading
import time
import urllib.request

CLIENTS = 3
SMALL_DESIGNS = 32
MIN_JOBS = 100
# Two runner slots (--jobs 2) and no pool workers: the small designs gain
# nothing from parallel regions, and with them the run's throughput swung
# with host CPU steal (10-seed spread 0.22 against 0.07 in a quiet hour).
DAEMON_THREADS = 1
# Each client works through blocks of 20 jobs with this exact composition,
# shuffled per block, so every run sees the same mix whatever its length.
# No recorded traffic exists to derive it from, so the shares are an
# assumption, weighted so that 15 of 20 jobs parse or route and the median
# job is one of them, not a result hit:
#   fresh    9  cache writes, the parse + route path beside the reads;
#               the largest share, as each designer edit is a new design
#   variant  3  an option sweep (RC delays, fewer passes) on a design just
#               sent; the design cache spares the parse
#   flagged  3  a report or routed-text fetch after a run, as the next
#               step of a caller that looks at its result
#   repeat   2  verbatim re-submissions (retries, scripted re-runs)
#   big      3  the large-frame path: framing and hashing of 1.4 MB,
#               kept a minority so it cannot set the median by itself
MIX = (("fresh", 9), ("variant", 3), ("flagged", 3), ("repeat", 2),
       ("big", 3))
VARIANTS = ({"rc": True}, {"improvement_passes": 1})
FLAGS = ("report", "route_text")
RECENT = 5          # variant/flagged pick among this many latest designs
REPEAT_WINDOW = 20  # repeats replay one of this many latest requests
EVENT_TIMEOUT_S = 120.0


class Job:
    """One request and the client-side arrival times of its events."""

    def __init__(self, kind, design_key, options, flag, frame_tail,
                 design_bytes):
        self.kind = kind
        self.design_key = design_key  # outcome identity: base design
        self.options = options
        self.flag = flag
        self.frame_tail = frame_tail  # request bytes after the id
        self.design_bytes = design_bytes
        self.t_send = self.t_accepted = self.t_started = self.t_done = None
        self.event = None
        self.result = {}
        self.has_flag_payload = False

    def outcome_key(self):
        return (self.design_key, json.dumps(self.options, sort_keys=True))


def _frame_tail(design_json, options, flag):
    extra = ',"verify":true'
    if options:
        extra += ',"options":' + json.dumps(options, sort_keys=True)
    if flag:
        extra += ',"%s":true' % flag
    return b'","design":' + design_json + extra.encode() + b"}\n"


def _renamed(text, name):
    head, _, rest = text.partition("\n")
    _, _, rest = rest.partition("\n")
    return "%s\nname %s\n%s" % (head, name, rest)


class Client:
    """A closed-loop client with its own seeded job script."""

    def __init__(self, index, seed, port, small_texts, big_json, run):
        self.index = index
        self.rng = random.Random("%d:%d" % (seed, index))
        self.port = port
        self.small_texts = small_texts
        self.big_json = big_json
        self.run = run
        self.fresh_count = 0
        self.block = []      # kinds left in the current block of the mix
        self.deck = []       # small designs left before the next reshuffle
        self.recent = []     # [(base, design_json, used variants, used flags)]
        self.history = []    # earlier requests of this client
        self.jobs = []
        self.error = None

    def next_kind(self):
        if not self.block:
            self.block = [k for k, count in MIX for _ in range(count)]
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        if kind in ("variant", "flagged", "repeat") and not self.recent:
            # Nothing to revisit yet: swap with a fresh job of the block.
            self.block[self.block.index("fresh")] = kind
            kind = "fresh"
        return kind

    def next_job(self):
        kind = self.next_kind()
        if kind == "fresh":
            # Drawn without replacement, so every run routes the whole set
            # in turn and its figures do not hang on a few lucky draws.
            if not self.deck:
                self.deck = list(range(len(self.small_texts)))
                self.rng.shuffle(self.deck)
            base = self.deck.pop()
            name = "S%d-c%d-%d" % (base, self.index, self.fresh_count)
            self.fresh_count += 1
            text = _renamed(self.small_texts[base], name)
            design_json = json.dumps(text).encode()
            self.recent = ([(base, design_json, set(), set())]
                           + self.recent)[:RECENT]
            return Job("fresh", base, {}, None,
                       _frame_tail(design_json, {}, None), len(text))
        if kind == "big":
            return Job("big", "big", {}, None,
                       _frame_tail(self.big_json, {}, None),
                       len(self.big_json))
        if kind in ("variant", "flagged"):
            base, design_json, used_variants, used_flags = self.rng.choice(
                self.recent)
            pool = VARIANTS if kind == "variant" else FLAGS
            used = used_variants if kind == "variant" else used_flags
            fresh = [i for i in range(len(pool)) if i not in used]
            if fresh:
                choice = self.rng.choice(fresh)
                used.add(choice)
                options = VARIANTS[choice] if kind == "variant" else {}
                flag = FLAGS[choice] if kind == "flagged" else None
                return Job(kind, base, options, flag,
                           _frame_tail(design_json, options, flag),
                           len(design_json))
            kind = "repeat"
        old = self.rng.choice(self.history[-REPEAT_WINDOW:])
        return Job("repeat", old.design_key, old.options, old.flag,
                   old.frame_tail, old.design_bytes)

    def loop(self):
        try:
            with socket.create_connection(("127.0.0.1", self.port)) as sock:
                sock.settimeout(EVENT_TIMEOUT_S)
                events = sock.makefile("rb")
                while not self.run.should_stop():
                    job = self.next_job()
                    _send(sock, events, job,
                          "c%d-%d" % (self.index, len(self.jobs)))
                    self.history.append(job)
                    self.jobs.append(job)
                    self.run.count_done()
        except Exception as exc:  # reported as a failed run, not a crash
            self.error = "client %d: %r" % (self.index, exc)
            self.run.abort()


def _send(sock, events, job, job_id):
    """Sends one job and records the arrival of its events until it ends."""
    frame = b'{"id":"' + job_id.encode() + job.frame_tail
    job.t_send = time.perf_counter()
    sock.sendall(frame)
    while True:
        line = events.readline()
        now = time.perf_counter()
        if not line:
            raise ConnectionError("daemon closed the connection")
        ev = json.loads(line)
        if ev.get("id") != job_id:
            continue
        name = ev.get("event")
        if name == "accepted":
            job.t_accepted = now
        elif name == "started":
            job.t_started = now
        elif name in ("done", "failed", "cancelled", "rejected"):
            job.t_done = now
            job.event = name
            job.result = ev.get("result", {})
            job.has_flag_payload = job.flag is None or (
                ("report" in ev) if job.flag == "report"
                else ("route_text" in ev))
            return


class Run:
    """Shared stop condition of the clients: the time is up and enough
    jobs are done, or a client failed."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.lock = threading.Lock()
        self.done = 0
        self.aborted = False
        self.t0 = time.perf_counter()

    def should_stop(self):
        with self.lock:
            if self.aborted:
                return True
            elapsed = time.perf_counter() - self.t0
            return elapsed >= self.seconds and self.done >= MIN_JOBS

    def count_done(self):
        with self.lock:
            self.done += 1

    def abort(self):
        with self.lock:
            self.aborted = True


def _scrape(admin_port):
    """Prometheus text from the daemon's /metrics as {sample: value}; the
    sample name keeps its label set."""
    url = "http://127.0.0.1:%d/metrics" % admin_port
    with urllib.request.urlopen(url, timeout=30) as resp:
        text = resp.read().decode()
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            pass
    return out


def _peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    return 0.0


def _read_line(stream, timeout_s):
    """One line from a pipe, or None when it stays silent for timeout_s."""
    box = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()))
    reader.daemon = True
    reader.start()
    reader.join(timeout_s)
    return box[0] if box else None


def _send_in_turn(port, jobs, prefix):
    """Sends jobs one after another on one fresh connection."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.settimeout(EVENT_TIMEOUT_S)
        events = sock.makefile("rb")
        for i, job in enumerate(jobs):
            _send(sock, events, job, "%s%d" % (prefix, i))


class Daemon:
    """A bgr_serve process on ephemeral loopback ports, shut down (and
    waited for) on exit from the with-block. With `trace_out` it records
    its own spans and writes them there when it shuts down."""

    def __init__(self, serve_bin, threads, trace_out=None):
        self.args = [serve_bin, "--threads", str(threads), "--jobs", "2",
                     "--port", "0", "--admin-port", "0"]
        if trace_out:
            self.args += ["--trace-out", trace_out]

    def __enter__(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        line = _read_line(self.proc.stdout, 30.0)
        if not line:
            self.__exit__(None, None, None)
            raise RuntimeError("bgr_serve did not report ready")
        ready = json.loads(line)
        self.start_s = time.perf_counter() - t0
        self.port, self.admin_port = ready["port"], ready["admin_port"]
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.write(b'{"shutdown":true}\n')
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def scrape(self):
        return _scrape(self.admin_port)

    def peak_rss_mb(self):
        return _peak_rss_mb(self.proc.pid)


def generate(driver, work_dir, family, count, seed):
    """Writes a design set with the driver (set-up repeated nine times);
    returns the driver's set-up timings and the design texts."""
    os.makedirs(work_dir, exist_ok=True)
    gen = json.loads(subprocess.run(
        [driver, "gen", "--design", family, "--designs", str(count),
         "--seed", str(seed), "--out-dir", work_dir],
        check=True, stdout=subprocess.PIPE, timeout=120).stdout)
    texts = []
    for name in gen["files"]:
        with open(os.path.join(work_dir, name)) as f:
            texts.append(f.read())
    return gen, texts


def probe(serve_bin, text, threads):
    """The serve layers on one design: a fresh daemon gets the design twice
    on one connection, a miss and then a verbatim repeat (result hit).
    Used by the traced runs of the workloads that do not serve."""
    design_json = json.dumps(text).encode()
    jobs = [Job(kind, 0, {}, None, _frame_tail(design_json, {}, None),
                len(design_json)) for kind in ("fresh", "repeat")]
    with Daemon(serve_bin, threads) as daemon:
        before = daemon.scrape()
        _send_in_turn(daemon.port, jobs, "p")
        after = daemon.scrape()
    return {"jobs": jobs, "scrape_before": before, "scrape_after": after}


def _mix(serve_bin, seed, seconds, small_texts, big_json, trace_out):
    """Starts a daemon, warms the 10k-class design into its cache and runs
    the clients for `seconds`; returns the raw samples of that daemon."""
    with Daemon(serve_bin, DAEMON_THREADS, trace_out) as daemon:
        warm = Job("big", "big", {}, None, _frame_tail(big_json, {}, None),
                   len(big_json))
        _send_in_turn(daemon.port, [warm], "warm")
        if warm.event != "done":
            raise RuntimeError("warm-up job did not finish: %r" % warm.result)

        before = daemon.scrape()
        run_state = Run(seconds)
        clients = [Client(i, seed, daemon.port, small_texts, big_json,
                          run_state) for i in range(CLIENTS)]
        threads = [threading.Thread(target=c.loop) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        timed_s = time.perf_counter() - run_state.t0
        after = daemon.scrape()
        rss = daemon.peak_rss_mb()

    return {
        "daemon_start_s": daemon.start_s,
        "warm_s": warm.t_done - warm.t_send,
        "warm": warm.result,
        "timed_s": timed_s,
        "peak_rss_mb": rss,
        "errors": [c.error for c in clients if c.error],
        "jobs": [j for c in clients for j in c.jobs],
        "scrape_before": before,
        "scrape_after": after,
    }


def run(driver, serve_bin, work_dir, seed, seconds, trace_out=None):
    """Runs the workload and returns its raw samples (see run.py): one
    entry in "mixes" per daemon. With `trace_out` the time is split between
    a plain daemon and one that writes its spans to `trace_out`."""
    big_gen, (big_text,) = generate(driver, work_dir, "10k", 1, seed)
    small_gen, small_texts = generate(driver, work_dir, "small",
                                      SMALL_DESIGNS, seed)
    gen = {key: [a + b for a, b in zip(big_gen[key], small_gen[key])]
           for key in ("setup_s", "gen.generate_s", "io.write_design_s")}
    big_json = json.dumps(big_text).encode()
    if trace_out is None:
        mixes = [_mix(serve_bin, seed, seconds, small_texts, big_json, None)]
    else:
        mixes = [_mix(serve_bin, seed, seconds / 2, small_texts, big_json,
                      out) for out in (None, trace_out)]
    return {"gen": gen, "big_bytes": len(big_text.encode()), "mixes": mixes}
