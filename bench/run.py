"""Benchmark of the univoque pipeline: one workload per invocation.

Usage (from the root of a checkout):

    python3 bench/run.py --workload scan|chain|count|cli --seed N --seconds S --trace 0|1

The run repeats the workload's fixed list of ops in a number of whole
rounds set by ``--seconds``, checks the outputs against computations made
apart from the program, and prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (set-up time, wall time of
one round, op latency, peak memory); with ``--trace 1`` they are the
per-layer spans and counts, taken from rounds in which every public call is
wrapped in a span.  Diagnostics go to stderr.  See bench/README.md.

Every time is reported at a fixed reference speed: a small fixed
computation (``reference_slice``) runs between the measured calls, and each
call's time is scaled by ``REF_SLICE_S`` over the mean time of the slices
just around it.  On a shared host, a CPU's speed can switch by about half
every second or so and drift over minutes (bench/README.md, Noise); the
program and the slices slow down together, so the ratio keeps what the
program costs and drops most of the machine's change.  The run is pinned
to one CPU, so that the slices and the work share it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("scan", "chain", "count", "cli")
SETUP_PROBES = 3          # fresh interpreters per run for setup_s
HELP_PROBES = 5           # `univoque --help` runs per run for the cli setup_s
MIN_ROUNDS = 2
# rounds a run makes at --seconds 20, in proportion for other lengths.  A
# round takes about 10 s (scan), 14 s (chain), 6 s (count) and 10 s (cli)
# at the reference speed, so that a run of any workload measures 18-28 s.
ROUNDS_AT_20_S = {"scan": 2, "chain": 2, "count": 3, "cli": 2}
ROUND_TIME_CAP = 1.5       # no new round once the rounds took this many times --seconds
REF_SLICE_S = 0.003       # one reference slice at the reference speed
SLICE_EVERY_S = 0.05      # measured time between reference slices
MAX_SLICES = 10           # slices after one long call
NEAR = 4                  # slices on each side that judge the speed around a call
WATCHDOG_S = 170          # a run must end within 180 s
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, watchdog)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def use_checkout_sources():
    """Import univoque from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "univoque", "__init__.py")):
        raise BenchError(f"no univoque sources under {SRC}")
    sys.path.insert(0, SRC)
    import univoque
    if os.path.dirname(os.path.dirname(os.path.abspath(univoque.__file__))) != SRC:
        raise BenchError(f"univoque imported from {univoque.__file__}, not from {SRC}")


# --- machine speed ------------------------------------------------------------

POOL_SIZE = 1 << 17       # integers in the pool the slices read from (about 5 MB)
POOL_READS = 3000


def make_pool():
    """A list of distinct integer objects larger than a CPU's own caches,
    and the fixed scattered order in which a slice reads it."""
    rng = random.Random(0)
    return list(range(10 ** 9, 10 ** 9 + POOL_SIZE)), [rng.randrange(POOL_SIZE)
                                                       for _ in range(POOL_READS)]


def reference_slice(pool, order):
    """A fixed pure-Python computation of about 3 ms: rational arithmetic on
    growing integers, tuple-keyed dict updates and a sort, the kinds of work
    the program's exact layers do, and scattered reads of ``pool``, which
    slow down like the program's own heap when other tenants fill the
    shared caches.  It uses nothing of the program, so a change to the
    program cannot change it."""
    s = Fraction(0)
    for i in range(1, 80):
        s += Fraction(1, i * i + 1)
    d = {}
    for i in range(1500):
        d[(i * 7919) % 1009, i & 7] = i
    t = 0
    for j in order:
        t += pool[j]
    return s, t, sorted(d.items())[0]


class Speed:
    """Reference slices taken between measurements, and what they say about
    the machine's speed around each one.

    After every measurement (a call, a check, a child process) the caller
    reports its duration with ``after``; once ``SLICE_EVERY_S`` of measured
    time has gone by, slices are taken (more after a long measurement, up
    to ``MAX_SLICES``).  Slices run between the calls of an op too, so
    that each call of a long op is judged by the speed around it.  A
    measurement made when ``i`` slices had been taken is judged by the
    ``NEAR`` slices just before it and the ``NEAR`` just after it: their
    mean time over ``REF_SLICE_S`` is its speed factor, 1.0 at the reference
    speed and 1.5 when the machine ran half as fast again.  On a shared host a CPU's speed
    can switch between states lasting about a second, so only slices close
    in time say anything about a measurement.  Garbage collection is off
    during a slice, so that the program's heap does not slow the slices
    down.
    """

    def __init__(self):
        self.pool, self.order = make_pool()
        self.times = []
        self.pending = 0.0        # measured time since the last slice

    def sample(self, n):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                reference_slice(self.pool, self.order)
                self.times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.pending = 0.0

    def after(self, dt):
        self.pending += dt
        if self.pending >= SLICE_EVERY_S:
            self.sample(min(MAX_SLICES, math.ceil(self.pending / SLICE_EVERY_S)))

    def mark(self):
        return len(self.times)

    def at_speed(self, dt, i):
        """``dt`` measured when ``i`` slices had been taken, at the reference
        speed; the slices after it must have been taken already."""
        near = self.times[max(0, i - NEAR):i + NEAR]
        return dt * REF_SLICE_S / statistics.fmean(near)

    def factor(self):
        """Speed factor of the whole run, for the tracing bookkeeping."""
        return statistics.fmean(self.times) / REF_SLICE_S


# --- timing and tracing -------------------------------------------------------

class Recorder:
    """Times ops; in traced rounds also records spans and counts per layer.

    An op is one unit of a workload's list (one base, one chain step, one
    point), written ``with rec.op():``.  Inside an op, ``rec.call`` makes
    each call to a public function of the program and times it; the op's
    latency is the sum of its calls' times at the reference speed, so the
    reference slices taken between calls are not part of it.  In traced
    rounds ``rec.call`` also records a flat span named after the layer and
    function.  Counts are read from return values and public attributes by
    ``rec.counted``, which runs only in traced rounds.  ``overhead`` sums
    the time traced rounds spend in this bookkeeping.  Times are brought to
    the reference speed once the slices after them have been taken.
    """

    def __init__(self, speed=None):
        self.speed = speed or Speed()
        self.trace = False
        self.ops = []             # per op of the round: its calls' (seconds, slice mark)
        self.span_parts = []      # (span, seconds, slice mark), turned into spans at the end
        self.spans = {}
        self.counts = {}
        self.maxima = {}
        self.overhead = 0.0
        self.events = []          # (op number or 0 for checks, span, start, end)
        self.ops_begun = 0
        self.origin = time.perf_counter()
        self.parts = None

    @contextlib.contextmanager
    def op(self):
        self.ops_begun += 1
        self.parts = []
        try:
            yield
            self.ops.append(self.parts)
        finally:
            self.parts = None

    def close_round(self):
        """The latencies of the round's ops, at the reference speed."""
        self.speed.sample(NEAR)
        lat = [sum(self.speed.at_speed(dt, i) for dt, i in parts) for parts in self.ops]
        self.ops = []
        return lat

    def close_spans(self):
        """Sum the recorded spans at the reference speed, after the last round."""
        self.speed.sample(NEAR)
        for span, dt, i in self.span_parts:
            self.spans[span] = self.spans.get(span, 0.0) + self.speed.at_speed(dt, i)
        self.span_parts = []

    def call(self, span, fn, *args, ctx=None):
        if self.trace and ctx is not None:
            width0 = ctx.field.hi - ctx.field.lo
        i = self.speed.mark()
        t1 = time.perf_counter()
        out = fn(*args)
        t2 = time.perf_counter()
        if self.parts is not None:
            self.parts.append((t2 - t1, i))
        if self.trace:
            self.span_parts.append((span, t2 - t1, i))
            self.events.append((self.ops_begun, span, t1 - self.origin, t2 - self.origin))
            if ctx is not None:
                self.count("algebraic.refinements", halvings(width0, ctx.field.hi - ctx.field.lo))
            self.overhead += time.perf_counter() - t2
        self.speed.after(t2 - t1)
        return out

    def check(self, span, fn, *args):
        """A call made only to verify outputs: a span when tracing, not an op."""
        i = self.speed.mark()
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        if self.trace:
            self.span_parts.append((span, t1 - t0, i))
            self.events.append((0, span, t0 - self.origin, t1 - self.origin))
        self.speed.after(t1 - t0)
        return out

    def counted(self, fn, *args):
        """Run a counting helper ``fn(rec, *args)`` in traced rounds only."""
        if self.trace:
            t0 = time.perf_counter()
            fn(self, *args)
            self.overhead += time.perf_counter() - t0

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def peak(self, name, v):
        self.maxima[name] = max(self.maxima.get(name, 0), v)


def halvings(w0, w1):
    """Bisections that shrank an isolating interval from width w0 to w1."""
    if w0 == 0 or w1 == 0 or w0 == w1:
        return 0
    ratio = w0 / w1
    return ratio.numerator.bit_length() - 1 if ratio.denominator == 1 else 0


def round_count(workload, seconds):
    """Rounds a run makes, from the workload and ``seconds`` alone.

    The count never depends on how fast this run happens to go, so every
    run of a workload attempts the same ops and takes its per-op medians
    over the same number of rounds.
    """
    return max(MIN_ROUNDS, round(ROUNDS_AT_20_S[workload] * seconds / 20))


def time_left(start, seconds):
    """False once the rounds ran far past their allotment (a very slow
    machine): the run then ends with the rounds it has, within its limit."""
    return time.perf_counter() - start < ROUND_TIME_CAP * seconds


def quantile(xs, pct):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def op_latencies(rounds):
    """Each op's median latency over the run's rounds.

    Every round runs the same ops in the same order, so op k of each round
    is the same deterministic call.  The median over the rounds sets aside
    a round that a burst of contention on the machine slowed down.
    """
    n = len(rounds[0])
    if any(len(r) != n for r in rounds):
        # a failed op cut some round short: keep the ops of the median round
        return sorted(rounds, key=sum)[len(rounds) // 2]
    return [statistics.median(r[k] for r in rounds) for k in range(n)]


def end_to_end(rounds, setup_s, peak_rss_mb):
    lat = op_latencies(rounds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (quantile(lat, 90), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# --- set-up probes ------------------------------------------------------------

def probe_main(workload, seed):
    """Body of a fresh interpreter: imports, one context, input generation."""
    t0 = time.perf_counter()
    use_checkout_sources()
    t_import = time.perf_counter()
    from univoque.base import new_base_context
    new_base_context(1, "111(0)")       # loads sympy, one factorisation
    t_ctx = time.perf_counter()
    if workload != "cli":
        import workloads
        workloads.make_inputs(workload, seed)
    print("READY " + json.dumps({"import_s": t_import - t0, "first_context_s": t_ctx - t0}),
          flush=True)


def around_slices(speed, fn):
    """Run ``fn`` between two sets of ``NEAR`` slices; its result and the
    factor that brings its times to the reference speed."""
    speed.sample(NEAR)
    i = speed.mark()
    out = fn()
    speed.sample(NEAR)
    return out, speed.at_speed(1.0, i)


def run_probe(workload, seed, speed):
    """Spawn a probe; the time from spawn until it reports ready, and the
    probe's own import and first-context times, all at the reference speed."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--probe",
           "--workload", workload, "--seed", str(seed)]

    def probe():
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("READY "):
            raise BenchError(f"set-up probe failed with code {proc.returncode}")
        return ready, json.loads(line[len("READY "):])

    (ready, parts), scale = around_slices(speed, probe)
    return ready * scale, {name: t * scale for name, t in parts.items()}


# --- the run ------------------------------------------------------------------

def run_in_process(args):
    import workloads

    speed = Speed()
    probes = [run_probe(args.workload, args.seed, speed) for _ in range(SETUP_PROBES)]
    inputs = workloads.make_inputs(args.workload, args.seed)
    workloads.warm_up()
    round_fn = workloads.ROUNDS[args.workload]
    rec = Recorder(speed)
    # a traced run traces every round; end-to-end metrics come from untraced runs
    rec.trace = bool(args.trace)
    rounds = []
    first_digest = None
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    speed.sample(NEAR)
    for k in range(round_count(args.workload, args.seconds)):
        if k >= MIN_ROUNDS and not time_left(start, args.seconds):
            break
        out = round_fn(inputs, rec)
        rounds.append(rec.close_round())
        attempted += len(rounds[-1]) + out.failed
        failed += out.failed
        for e in out.errors:
            print("OP FAILED: " + e, file=sys.stderr)
        if first_digest is None:
            problems += run_checks(workloads.CHECKS[args.workload], inputs, out, rec)
            first_digest = out.digest
        elif out.digest != first_digest:
            problems.append(f"round {k + 1} gave different results from round 1")
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    correct = not problems
    report_rounds(args.workload, rounds, speed, attempted, failed)

    if args.trace:
        write_trace(args, rec.events)
        rec.close_spans()
        metrics = layer_metrics(rec, len(rounds), probes, {})
        metrics["trace.wall_s"] = (sum(op_latencies(rounds)), "s")
        metrics["trace.overhead_s"] = (rec.overhead / speed.factor() / len(rounds), "s")
    else:
        metrics = end_to_end(rounds, statistics.median(p[0] for p in probes),
                             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return correct, attempted, failed, metrics


def report_rounds(workload, rounds, speed, attempted, failed):
    print(f"{workload}: {len(rounds)} rounds, {attempted} ops, {failed} failed; "
          f"round times at the reference speed {', '.join(f'{sum(r):.3f}' for r in rounds)} s; "
          f"{len(speed.times)} reference slices, speed factor {speed.factor():.3f}",
          file=sys.stderr)


def write_trace(args, events):
    """Write the spans kept in memory, one record per call, after the run."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["op", "span", "start_s", "end_s"], "spans": events}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def run_checks(check, inputs, out, rec):
    """Checks of the first round; an exception in a check is a failed check."""
    try:
        return check(inputs, out, rec)
    except Exception:       # noqa: BLE001 - reported, never hidden
        return ["check raised:\n" + traceback.format_exc()]


def layer_metrics(rec, traced_rounds, probes, cmd_medians):
    """Per-layer metrics; a layer a workload does not use reads 0."""
    import clicmds
    import workloads
    out = {}
    for name in workloads.LAYER_SPANS:
        out[name] = (rec.spans.get(name, 0.0) / traced_rounds, "s")
    for name in workloads.ONCE_SPANS:
        out[name] = (rec.spans.get(name, 0.0), "s")
    for name in workloads.LAYER_COUNTS:
        out[name] = (rec.counts.get(name, 0) // traced_rounds, "count")
    for name in workloads.ONCE_COUNTS:
        out[name] = (rec.counts.get(name, 0), "count")
    for name in workloads.LAYER_MAXIMA:
        out[name] = (rec.maxima.get(name, 0), "count")
    out["cli.import_s"] = (statistics.median(p[1]["import_s"] for p in probes), "s")
    out["cli.first_context_s"] = (statistics.median(p[1]["first_context_s"] for p in probes), "s")
    for cmd in clicmds.COMMANDS:
        out[f"cli.cmd.{cmd.name}_s"] = (cmd_medians.get(cmd.name, 0.0), "s")
    return out


def run_cli(args):
    import clicmds

    speed = Speed()
    helps = []
    for _ in range(HELP_PROBES):
        dt, scale = around_slices(speed, lambda: clicmds.run_help(child_env(), ROOT,
                                                                  CHILD_TIMEOUT_S))
        helps.append(dt * scale)
    probes = ([run_probe("cli", args.seed, speed) for _ in range(SETUP_PROBES)]
              if args.trace else [])
    rounds, per_cmd = [], {c.name: [] for c in clicmds.COMMANDS}
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    speed.sample(NEAR)
    for k in range(round_count("cli", args.seconds)):
        if k >= MIN_ROUNDS and not time_left(start, args.seconds):
            break
        timed = []
        for cmd in clicmds.COMMANDS:
            attempted += 1
            i = speed.mark()
            try:
                dt, out = clicmds.run_command(cmd, child_env(), ROOT, CHILD_TIMEOUT_S)
            except clicmds.CommandFailed as e:
                failed += 1
                print("OP FAILED: " + str(e), file=sys.stderr)
                continue
            speed.after(dt)
            timed.append((cmd.name, dt, i))
            if k == 0:
                problems += [f"{cmd.name}: {p}" for p in cmd.check(out)]
        speed.sample(NEAR)
        rounds.append([speed.at_speed(dt, i) for _name, dt, i in timed])
        for (name, _dt, _i), t in zip(timed, rounds[-1]):
            per_cmd[name].append(t)
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    correct = not problems
    report_rounds("cli", rounds, speed, attempted, failed)
    if args.trace:
        medians = {name: statistics.median(xs) for name, xs in per_cmd.items() if xs}
        metrics = layer_metrics(Recorder(), 1, probes, medians)
        # commands run in children, which have no spans: nothing to add
        metrics["trace.wall_s"] = (sum(op_latencies(rounds)), "s")
        metrics["trace.overhead_s"] = (0.0, "s")
    else:
        metrics = end_to_end(rounds, statistics.median(helps),
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    return correct, attempted, failed, metrics


def pin_to_one_cpu():
    """Keep the run and the children it starts on one CPU.

    On a shared host each CPU's speed can change on its own, so the
    reference slices only speak for calls and children that run on the CPU
    they ran on.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None):
    p = argparse.ArgumentParser(description="univoque benchmark (see bench/README.md)")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order must not vary between runs
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + (argv if argv is not None else sys.argv[1:]), env)
    sys.path.insert(0, BENCH_DIR)
    pin_to_one_cpu()
    if args.probe:
        probe_main(args.workload, args.seed)
        return 0

    def on_alarm(_signum, _frame):
        raise BenchError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        use_checkout_sources()
        runner = run_cli if args.workload == "cli" else run_in_process
        correct, attempted, failed, metrics = runner(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
