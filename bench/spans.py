"""Span recording around pqesat's layer entry points, from outside the package.

``Tracer.wrapped()`` swaps each traced function for a wrapper at the
binding its caller looks it up through, and puts the originals back on
exit.  Every call records a span (name, start, end, parent) into flat
arrays that stay in memory until the run ends; ``layer_metrics`` then
derives calls, self time and the per-layer ratios.  Self time is a span's
duration minus the durations of its direct children: the code is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter

import pqesat
import pqesat.apps
import pqesat.bcp
import pqesat.pqe
import pqesat.solver


def _propagate(counts, result):
    counts["bcp.propagate.conflicts"] += result.is_conflict


def _certificate_for(counts, result):
    counts["solver.certificate_for.hits"] += result is not None


def _check_induction(counts, result):
    counts["solver.check_induction.fires"] += result is not None


def _solve(counts, result):
    counts["solver.solve.steps"] += result.steps


def _detect(counts, result):
    if result is not None:
        counts["pqe.detect.hits." + result[1]] += 1


# (owner, attribute, span name, counter hook).  A function reached through
# several bindings is wrapped at each of them: pqesat.pqe.propagate and
# pqesat.solver.propagate are separate names for bcp.propagate.
TRACED = [
    (pqesat.solver, "propagate", "bcp.propagate", _propagate),
    (pqesat.pqe, "propagate", "bcp.propagate", _propagate),
    (pqesat.solver, "analyze_conflict", "bcp.analyze_conflict", None),
    (pqesat.pqe, "analyze_conflict", "bcp.analyze_conflict", None),
    (pqesat.solver, "resolve_to_base", "bcp.resolve_to_base", None),
    (pqesat.bcp, "resolve_to_base", "bcp.resolve_to_base", None),
    (pqesat, "solve", "solver.solve", _solve),
    (pqesat.apps, "solve", "solver.solve", _solve),
    (pqesat.pqe, "solve", "solver.solve", _solve),
    (pqesat.solver, "certificate_for", "solver.certificate_for", _certificate_for),
    (pqesat.solver, "required_pairs", "solver.required_pairs", None),
    (pqesat.solver, "check_induction", "solver.check_induction", _check_induction),
    (pqesat.apps, "take_out", "pqe.take_out", None),
    (pqesat.pqe, "take_out", "pqe.take_out", None),
    (pqesat.apps, "decide_redundant", "pqe.decide_redundant", None),
    # The detector and projection layers have no public function yet.
    (pqesat.pqe._Detector, "detect", "pqe.detect", _detect),
    (pqesat.pqe, "resolve_dsequents", "pqe.resolve_dsequents", None),
    (pqesat.pqe._Engine, "project_out_remaining", "pqe.project", None),
    (pqesat.apps, "unroll", "circuits.unroll", None),
    (pqesat.apps, "tseitin_encode", "circuits.tseitin_encode", None),
    (pqesat.apps, "implies", "oracle.implies", None),
]

ROOT = "apps"  # the span the runner opens around each query


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._open.pop()
        return t - self.start[idx]

    def wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def wrapped(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED]
        try:
            for (owner, attr, name, hook), (_, _, fn) in zip(TRACED, saved):
                setattr(owner, attr, self.wrap(name, fn, hook))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, tuple[int, float]], counts: Counter) -> dict:
    """Per-layer metric values by name, for every traced layer.

    A layer that the workload never entered reports zero calls, zero
    seconds and zero ratios.
    """
    calls = {name: totals.get(name, (0, 0.0))[0] for _, _, name, _ in TRACED}
    out = {}
    for name in sorted({name for _, _, name, _ in TRACED} | {ROOT}):
        c, s = totals.get(name, (0, 0.0))
        if name != ROOT:
            out[f"{name}.calls"] = c
        out[f"{name}.self_s"] = s
    out["bcp.propagate.conflict_ratio"] = _ratio(
        counts["bcp.propagate.conflicts"], calls["bcp.propagate"]
    )
    out["solver.solve.steps"] = counts["solver.solve.steps"]
    out["solver.certificate_for.hit_ratio"] = _ratio(
        counts["solver.certificate_for.hits"], calls["solver.certificate_for"]
    )
    out["solver.check_induction.fire_ratio"] = _ratio(
        counts["solver.check_induction.fires"], calls["solver.check_induction"]
    )
    hits = 0
    for rule in ("satisfied", "subsumed", "blocked"):
        out[f"pqe.detect.hits.{rule}"] = counts[f"pqe.detect.hits.{rule}"]
        hits += counts[f"pqe.detect.hits.{rule}"]
    out["pqe.detect.hit_ratio"] = _ratio(hits, calls["pqe.detect"])
    # Projections per take_out run, the runs inside decide_redundant included.
    out["pqe.project.fallback_ratio"] = _ratio(
        calls["pqe.project"], calls["pqe.take_out"]
    )
    return out
