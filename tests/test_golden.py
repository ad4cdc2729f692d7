"""Differential golden pins: the engines' full outputs on seeded corpora.

Each test hashes everything an engine reports on a fixed corpus (solver
status, steps, trace, certificates and model; PQE derivation and
solution clauses; diameter answers; equivalence-checking verdicts and
interpolants), so a refactor of a hot path that
changes any decision, any propagation order or any step count shows up
here as a changed digest.  The PQE corpora pin their ``steps`` in a digest
of their own: steps count work against a budget, so a change that only
saves work moves that digest and leaves the outputs' digest alone.  The
corpora are small enough for the file to run in a few seconds.
"""

import functools
import hashlib
import json
import random

import pytest

from pqesat.apps import EqCheckInstance, diameter_lt, eq_check, interpolate
from pqesat.cnf import Clause, CnfProblem
from pqesat.fuzzing import (
    distinct_mutant,
    random_eq_pair,
    random_interp_split,
    random_netlist,
    random_pqe,
    random_transition_system,
)
from pqesat.pqe import take_out
from pqesat.solver import SolverConfig, solve


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\0")
    return h.hexdigest()


def _random_3sat(rng: random.Random, n: int) -> CnfProblem:
    clauses = []
    for _ in range(round(4.26 * n)):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append(Clause([v if rng.random() < 0.5 else -v for v in chosen]))
    return CnfProblem(n, clauses)


def _solver_records(learn_to: str):
    rng = random.Random(4260)
    for i in range(24):
        cnf = _random_3sat(rng, 12 + i % 3)
        out = solve(cnf, SolverConfig(learn_to=learn_to))
        yield [
            out.status,
            out.steps,
            out.trace,
            [
                [list(r.clause.literals), r.clause_index, r.literal, list(r.subspace)]
                for r in out.certificates
            ],
            sorted(out.model.items()) if out.model is not None else None,
        ]


@functools.cache
def _take_out_runs():
    """(outputs, steps) of each run; cached, as two tests read it."""
    rng = random.Random(5150)
    runs = []
    for _ in range(200):
        sol = take_out(random_pqe(rng, 14, 42, 3))
        runs.append(
            (
                [sol.derivation, [list(c.literals) for c in sol.solution_clauses]],
                sol.steps,
            )
        )
    return runs


def _diameter_records():
    rng = random.Random(3003)
    for _ in range(4):
        ts = random_transition_system(rng, 2)
        yield [diameter_lt(ts, k) for k in (1, 2, 3)]


@functools.cache
def _eq_check_runs():
    """(outputs, steps) of each run; cached, as two tests read it."""
    rng = random.Random(8080)
    runs = []
    for i in range(40):
        if i % 2 == 0:
            inst = random_eq_pair(rng)
        else:
            m1 = random_netlist(rng, 3, rng.randint(2, 5))
            inst = EqCheckInstance(m1, distinct_mutant(rng, m1))
        res = eq_check(inst)
        runs.append(
            (
                [
                    res.verdict,
                    res.witness,
                    res.constant,
                    [list(c.literals) for c in res.solution],
                ],
                res.steps,
            )
        )
    return runs


@functools.cache
def _interpolate_runs():
    """(outputs, steps) of each run, None for no split; cached, as two tests read it."""
    rng = random.Random(4141)
    runs = []
    for _ in range(200):
        inst = random_interp_split(rng)
        if inst is None:
            runs.append((None, None))
            continue
        res = interpolate(inst)
        runs.append(
            (
                [
                    res.status,
                    [list(c.literals) for c in res.candidate],
                    res.derivation,
                ],
                res.steps,
            )
        )
    return runs


def _outputs(runs):
    return [out for out, _ in runs]


def _steps(runs):
    return [steps for _, steps in runs]


@pytest.mark.parametrize(
    "learn_to, digest",
    [
        ("P", "abd65a8b8f634221ec988569ef62177de63770f8daea92026f85d28996a9b2b9"),
        ("F", "3333f37520c26afeeb2842fc8df5dbf91e558027205e9fc471be19426c99cc98"),
    ],
)
def test_solver_outcomes_are_pinned(learn_to, digest):
    assert _digest(_solver_records(learn_to)) == digest


def test_take_out_outcomes_are_pinned():
    assert _digest(_outputs(_take_out_runs())) == (
        "3d2455211dc392c6010393f09b54b52cf3302c056a51202b9ba5c391e9b980dc"
    )


def test_take_out_steps_are_pinned():
    assert _digest(_steps(_take_out_runs())) == (
        "507163b56b7fc847802f8d0d4212e87a28828c5c1241cf51656b44fbd88d578d"
    )


def test_diameter_answers_are_pinned():
    assert _digest(_diameter_records()) == (
        "e9b4d77b2fd5bb44b874e591103926d50521d09f33341df0105e61ad31c2c700"
    )


def test_eq_check_outcomes_are_pinned():
    assert _digest(_outputs(_eq_check_runs())) == (
        "eb274411ade55a6714155d394518508f2739170ea2d4556257930cd3a53c8f25"
    )


def test_eq_check_steps_are_pinned():
    assert _digest(_steps(_eq_check_runs())) == (
        "5cfa29cff63eab8f0083071cc5f91db631c6a49e81ee3f76ab8dd237f81e3f9e"
    )


def test_interpolate_outcomes_are_pinned():
    assert _digest(_outputs(_interpolate_runs())) == (
        "b23f5abfde4c1ac1e32be54e11aec1c55552057da02c5bb2e8fc559233dd6fb7"
    )


def test_interpolate_steps_are_pinned():
    assert _digest(_steps(_interpolate_runs())) == (
        "e99366c35d6e7c52b2b47f15b11c2cbf0e182cc2c395487b678e08a2a3ef9fc8"
    )
