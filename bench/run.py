"""Benchmark for pqesat: verified query latency, and a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload all --seed 1              # every workload
    python3 bench/run.py --workload sat3 --seed 7 --seconds 30
    python3 bench/run.py --workload diameter --seed 1 --trace 1   # traced pass

One single-threaded client drives the queries in a closed loop: each query
starts when the previous one returns.  An untraced run makes passes over
the workload's frozen corpus, each in an order drawn from ``--seed``,
until the summed query time reaches ``--seconds``; the first pass always
completes.  Each execution is timed in reference seconds (wall time
corrected for the host's current speed, see ``calibrate``), and a query's
latency is the median of its executions.  ``query_s.p50``/``.p90`` are
smoothed quantiles of those latencies (see ``quantile``), and
``queries_per_s`` is one pass over the corpus at those latencies,
counting verified queries only.  Every verdict is checked by its oracle
once the timing is over; a rejected verdict counts as a failure just
like an exception, and any failure makes the run's ``correct`` false.
``--workload all`` runs each workload in a child process of its own, so
that ``peak_rss_mb`` is that workload's.

A traced run makes exactly one pass over the whole corpus, whatever
``--seconds`` says, so that its counts and self times describe the same
work on every commit.  It executes each query twice in a row, untraced
and then with spans around every layer entry point, and reports the
per-layer metrics and the tracing overhead (traced over untraced time of
the same queries).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json untraced, its per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_checkout_pqesat():
    """Benchmark the checkout's own source tree, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import pqesat
    except ImportError as e:
        sys.exit(f"bench: cannot import pqesat from {SRC}: {e}")
    if Path(pqesat.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: pqesat came from {pqesat.__file__}, not {SRC}")


_import_checkout_pqesat()

from spans import ROOT, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, SatOracle  # noqa: E402

SETUP_REPEATS = 15
CACHE = HERE / ".cache" / "enum_sat.json"


@dataclass
class Executions:
    """What a pass loop saw: per-query times, verdicts and errors.

    ``times`` holds wall seconds; ``scaled`` holds the same executions in
    reference seconds (see ``calibrate``).
    """

    times: list[list[float]]
    scaled: list[list[float]]
    verdicts: list[list]
    errors: list[tuple[str, str]] = field(default_factory=list)
    spent: float = 0.0
    attempted: int = 0

    @classmethod
    def empty(cls, n: int) -> "Executions":
        return cls([[] for _ in range(n)], [[] for _ in range(n)],
                   [[] for _ in range(n)])

    def record(self, q, i: int, dt: float, result, speed: float = 1.0) -> None:
        self.times[i].append(dt)
        self.scaled[i].append(dt * speed)
        if isinstance(result, Exception):
            self.errors.append((q.label, f"{type(result).__name__}: {result}"))
            self.verdicts[i].append(None)
        else:
            self.verdicts[i].append(q.answer(result))
        self.spent += dt
        self.attempted += 1


def _calibration_loop(n: int = 2000) -> int:
    # Set, dict and small-int work, like pqesat's inner loops, and none of
    # pqesat's own code, so a faster pqesat does not move it.
    acc = 0
    base = frozenset(range(8))
    seen = {}
    for i in range(n):
        t = frozenset((i % 13, -(i % 7), i % 5))
        if not t.isdisjoint(base):
            acc += len(t - base)
        seen[i & 63] = t
    return acc


# Time of one calibration loop at the reference speed (an idle core of the
# machine the baseline was recorded on).
CALIBRATION_REF_S = 1.1e-3


def calibrate() -> float:
    """Wall seconds of one calibration loop, as a probe of current speed.

    Co-tenants of a shared host slow the interpreter by up to 25-50% for
    seconds at a time.  Every timed interval is scaled by
    CALIBRATION_REF_S over the mean of the probes just before and just
    after it.  On the 2-core shared VM the baseline was recorded on, that
    cut the spread between executions of one 3-SAT query from 16% to 7%,
    and between whole runs from 22-34% to 1-4%.
    """
    t0 = perf_counter()
    _calibration_loop()
    return perf_counter() - t0


def _run_query(q):
    """One query's raw result, or the exception it raised (a failure)."""
    try:
        return q.run()
    except Exception as e:
        return e


def measure(queries, seconds: float, order: random.Random) -> Executions:
    ex = Executions.empty(len(queries))
    passes = 0
    before = calibrate()
    while passes == 0 or ex.spent < seconds:
        idx = list(range(len(queries)))
        order.shuffle(idx)
        for i in idx:
            if passes and ex.spent >= seconds:
                break
            t0 = perf_counter()
            result = _run_query(queries[i])
            dt = perf_counter() - t0
            after = calibrate()
            ex.record(queries[i], i, dt, result, 2 * CALIBRATION_REF_S / (before + after))
            before = after
        passes += 1
    return ex


def measure_traced(queries, order: random.Random):
    """One pass over every query, each untraced and then traced; returns
    both execution records."""
    plain = Executions.empty(len(queries))
    traced = Executions.empty(len(queries))
    tracer = Tracer()
    idx = list(range(len(queries)))
    order.shuffle(idx)
    for i in idx:
        t0 = perf_counter()
        result = _run_query(queries[i])
        plain.record(queries[i], i, perf_counter() - t0, result)
        with tracer.wrapped():
            root = tracer.begin(ROOT)
            try:
                result = _run_query(queries[i])
            finally:
                dt = tracer.finish(root)
        traced.record(queries[i], i, dt, result)
    return plain, traced, tracer


def check(queries, runs: list[Executions], oracle: SatOracle) -> list[tuple[str, str]]:
    """Oracle rejections, one per rejected execution."""
    rejected = []
    seen: dict[tuple[int, str], str | None] = {}
    for ex in runs:
        for i, verdicts in enumerate(ex.verdicts):
            for v in verdicts:
                if v is None:
                    continue
                key = (i, repr(v))
                if key not in seen:
                    seen[key] = queries[i].check(v, oracle)
                if seen[key] is not None:
                    rejected.append((queries[i].label, seen[key]))
    return rejected


def _ready_seconds(cmd: list[str]) -> float:
    """Wall seconds from starting ``cmd`` until it prints its first line."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        dt = perf_counter() - t0
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"bench: set-up probe failed (exit {code})")
    return dt


# A fresh interpreter that imports the standard modules the benchmark
# uses and none of pqesat: the reference for how fast the host starts a
# process right now.
START_PROBE = "import argparse, json, random, statistics, subprocess; print('ready')"
# Its wall time on the machine the baseline was recorded on.
START_REF_S = 0.06


def setup_seconds(workload: str, corpus_seed: int | None) -> float:
    """Median time, in reference seconds, from starting a fresh interpreter
    until its first query is ready: interpreter start, ``import pqesat``
    and building the corpus.

    Process start on a shared host slows by up to a third for seconds at
    a time, and ``calibrate`` does not see it.  So each sample is paired
    with a start of START_PROBE right after it, and scaled by START_REF_S
    over that probe's time.  On the 2-core VM the baseline was recorded
    on, that cut the spread of 15-sample medians from 16% to 3%.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload]
    if corpus_seed is not None:
        cmd += ["--corpus-seed", str(corpus_seed)]
    probe = [sys.executable, "-c", START_PROBE]
    return statistics.median(
        _ready_seconds(cmd) * START_REF_S / _ready_seconds(probe)
        for _ in range(SETUP_REPEATS)
    )


def quantile(values: list[float], p: float) -> float:
    """Bernstein-polynomial estimate of the p-quantile: the mean of the
    order statistics weighted by the Binomial(n - 1, p) probabilities.

    With one or two executions per query, a single order statistic moves
    with the noise of the one or two queries nearest it; this averages
    over the queries around it.  Over six runs of each workload, it
    halved the spread of p90 on sat3 (10% to 5%) and cut that of p50 on
    diameter from 10% to 7%, against ``statistics.quantiles``.
    """
    x = sorted(values)
    n = len(x)
    return sum(comb(n - 1, i) * p**i * (1 - p) ** (n - 1 - i) * v for i, v in enumerate(x))


def report(title: str, metrics: dict, units: dict, notes: list[str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                k: {"value": v, "unit": units[k]} for k, v in metrics.items()
            },
        }
    )


def run_untraced(name, queries, oracle, seed, seconds, corpus_seed=None) -> str:
    setup_s = setup_seconds(name, corpus_seed)
    gc.collect()
    ex = measure(queries, seconds, random.Random(seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rejected = check(queries, [ex], oracle)
    failed = len(ex.errors) + len(rejected)
    bad = {label for label, _ in ex.errors + rejected}
    latency = [statistics.median(t) for t in ex.scaled]
    metrics = {
        "query_s.p50": quantile(latency, 0.5),
        "query_s.p90": quantile(latency, 0.9),
        # One pass over the corpus at each query's latency.
        "queries_per_s": (len(queries) - len(bad)) / sum(latency),
        "verified_ratio": (ex.attempted - failed) / ex.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {
        "query_s.p50": "s",
        "query_s.p90": "s",
        "queries_per_s": "1/s",
        "verified_ratio": "ratio",
        "setup_s": "s",
        "peak_rss_mb": "MB",
    }
    wall = [statistics.median(t) for t in ex.times]
    notes = [
        f"{len(latency)} queries, {ex.attempted} executions "
        f"({ex.attempted / len(latency):.2f} per query), "
        f"{ex.spent:.2f} s of query time",
        f"times in reference seconds; unscaled wall p50 {quantile(wall, 0.5):.6g} s, "
        f"p90 {quantile(wall, 0.9):.6g} s",
        f"failed_ratio {failed / ex.attempted:.4f}: "
        f"{len(ex.errors)} exceptions, {len(rejected)} rejected verdicts",
    ]
    notes += [f"FAILED {label}: {why}" for label, why in ex.errors + rejected]
    report(f"{name} seed {seed} untraced", metrics, units, notes)
    return result_line(failed == 0, ex.attempted, failed, metrics, units)


def run_traced(name, queries, oracle, seed) -> str:
    gc.collect()
    plain, traced, tracer = measure_traced(queries, random.Random(seed))
    rejected = check(queries, [plain, traced], oracle)
    failed = len(plain.errors) + len(traced.errors) + len(rejected)
    metrics = layer_metrics(tracer.totals(), tracer.counts)
    metrics["trace.traced_s"] = traced.spent
    metrics["trace.untraced_s"] = plain.spent
    metrics["trace.overhead_ratio"] = traced.spent / plain.spent
    units = {k: unit_of(k) for k in metrics}
    notes = [
        f"one pass over all {plain.attempted} queries, each run untraced "
        "then traced; "
        f"{len(tracer.start)} spans",
        "waiting time: none to report; one single-threaded closed-loop "
        "client, so no layer ever queues work",
    ]
    split = sorted(
        ((v, k[: -len(".self_s")]) for k, v in metrics.items() if k.endswith(".self_s")),
        reverse=True,
    )
    notes.append("self time split: " + ", ".join(
        f"{layer} {100 * v / traced.spent:.1f}%" for v, layer in split if v > 0
    ))
    notes += [
        f"FAILED {label}: {why}"
        for label, why in plain.errors + traced.errors + rejected
    ]
    report(f"{name} seed {seed} traced", metrics, units, notes)
    return result_line(
        failed == 0, plain.attempted + traced.attempted, failed, metrics, units
    )


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def machine() -> str:
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"{platform.machine()}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1, help="orders the queries")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="query time of an untraced run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--corpus-seed", type=int, default=None,
        help="draw another corpus instead of the frozen one",
    )
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        # One child per workload, so that no workload's peak memory or
        # leftover heap shows in the next one's numbers.
        argv = sys.argv[1:] if argv is None else list(argv)
        for name in WORKLOADS:
            code = subprocess.call(
                [sys.executable, str(Path(__file__).resolve()), *argv,
                 "--workload", name]
            )
            if code != 0:
                return code
        return 0
    queries = WORKLOADS[args.workload].queries(args.corpus_seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    print(f"machine: {machine()}")
    if args.trace:
        line = run_traced(args.workload, queries, SatOracle(CACHE), args.seed)
    else:
        line = run_untraced(args.workload, queries, SatOracle(CACHE), args.seed,
                            args.seconds, args.corpus_seed)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
