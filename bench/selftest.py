"""Fast self-test of the benchmark on tiny corpora.

    python3 bench/selftest.py

Checks that BENCHMARK.json and the workload definitions agree, that every
metric BENCHMARK.json names is emitted with its unit, that the traced
self times add up to the traced wall time, and that a wrong verdict is
caught and counted as a failure.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, SatOracle, build_sat3

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def tiny(name: str) -> list:
    rng = random.Random(WORKLOADS[name].corpus_seed)
    if name == "sat3":
        # Small enough that the enumeration oracle answers instantly.
        return build_sat3(rng, 8, var_counts=(8, 9, 10))
    return WORKLOADS[name].build(rng, 1 if name == "diameter" else 6)


def untraced(name: str, queries: list) -> dict:
    """One untraced pass, its report silenced."""
    with contextlib.redirect_stdout(io.StringIO()):
        return json.loads(run.run_untraced(name, queries, SatOracle(None), 1, 0))


def traced(name: str, queries: list) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return json.loads(run.run_traced(name, queries, SatOracle(None), 1))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_spec(spec: dict) -> None:
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    expect(
        whys == {n: w.why for n, w in WORKLOADS.items()},
        "BENCHMARK.json workloads and their reasons match workloads.py",
    )


def check_emitted(name: str, result: dict, specs: list, kind: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{name}: {kind} metrics and units {got} != {want}")
    for k, v in result["metrics"].items():
        expect(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
               f"{name}: {k} is a finite number")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name}: clean run reports no failure")


def check_self_times(name: str, result: dict) -> None:
    m = {k: v["value"] for k, v in result["metrics"].items()}
    covered = sum(v for k, v in m.items() if k.endswith(".self_s"))
    wall = m["trace.traced_s"]
    expect(abs(covered - wall) <= 1e-9 * max(wall, 1.0),
           f"{name}: self times sum to {covered}, traced wall is {wall}")


# Layers each workload must enter; a binding that stops being wrapped
# shows up here as a layer with no calls.
ENTERED = {
    "diameter": ["circuits.unroll", "pqe.decide_redundant", "pqe.take_out",
                 "pqe.detect", "bcp.propagate", "solver.solve"],
    "sat3": ["solver.solve", "solver.required_pairs", "solver.certificate_for",
             "solver.check_induction", "bcp.propagate", "bcp.analyze_conflict"],
    "eqcheck": ["circuits.tseitin_encode", "oracle.implies", "pqe.take_out",
                "pqe.detect", "solver.solve"],
}


def check_layers(name: str, result: dict) -> None:
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ENTERED[name]:
        expect(m[f"{layer}.calls"] > 0, f"{name}: {layer} was traced")
    expect(m["pqe.take_out.calls"] >= m["pqe.decide_redundant.calls"],
           f"{name}: every decide_redundant runs a traced take_out")


def corrupt(q) -> None:
    """Make the query report a verdict its oracle must reject."""
    honest = q.answer

    def wrong(result):
        v = honest(result)
        if isinstance(v, bool):  # diameter
            return not v
        if v[0] in ("sat", "unsat"):  # solve
            return ("unsat", None) if v[0] == "sat" else ("sat", {})
        # eq_check: claim the opposite of equivalence, with a witness
        # that cannot separate equivalent circuits.
        if v[0] == "inequivalent":
            return "equivalent", None, None
        return "inequivalent", {name: False for name in q.m1.inputs}, None

    q.answer = wrong


def crash(q) -> None:
    """Make the query raise, as a solver invariant failure would."""

    def raising():
        raise AssertionError("injected failure")

    q.run = raising


def main() -> int:
    run.SETUP_REPEATS = 1  # checks that setup_s is emitted, not its spread
    spec = json.loads(SPEC_PATH.read_text())
    check_spec(spec)
    for name in WORKLOADS:
        clean = untraced(name, tiny(name))
        check_emitted(name, clean, spec["end_to_end"], "end_to_end")
        split = traced(name, tiny(name))
        check_emitted(name, split, spec["per_layer"], "per_layer")
        check_self_times(name, split)
        check_layers(name, split)
        expect(split["attempted"] == 2 * len(tiny(name)),
               f"{name}: the traced run covers every query, untraced and traced")
        queries = tiny(name)
        for q in queries:
            corrupt(q)
        bad = untraced(name, queries)
        expect(not bad["correct"] and bad["failed"] == bad["attempted"],
               f"{name}: every injected wrong verdict is counted as failed")
        expect(bad["metrics"]["verified_ratio"]["value"] == 0,
               f"{name}: injected wrong verdicts drive verified_ratio to 0")
        queries = tiny(name)
        crash(queries[0])
        bad = untraced(name, queries)
        expect(not bad["correct"] and bad["failed"] == 1,
               f"{name}: one query that raises fails the run")
        print(f"selftest {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
