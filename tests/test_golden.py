"""Differential golden pins: the engines' full outputs on seeded corpora.

Each test hashes everything an engine reports on a fixed corpus (solver
status, steps, trace, certificates and model; PQE derivation, steps and
solution clauses; diameter answers; equivalence-checking verdicts and
interpolants), so a refactor of a hot path that
changes any decision, any propagation order or any step count shows up
here as a changed digest.  The corpora are small enough for the file to
run in a few seconds.
"""

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


def _take_out_records():
    rng = random.Random(5150)
    for _ in range(200):
        sol = take_out(random_pqe(rng, 14, 42, 3))
        yield [
            sol.derivation,
            sol.steps,
            [list(c.literals) for c in sol.solution_clauses],
        ]


def _diameter_records():
    rng = random.Random(3003)
    for _ in range(4):
        ts = random_transition_system(rng, 2)
        yield [diameter_lt(ts, k) for k in (1, 2, 3)]


def _eq_check_records():
    rng = random.Random(8080)
    for i in range(40):
        if i % 2 == 0:
            inst = random_eq_pair(rng)
        else:
            m1 = random_netlist(rng, 3, rng.randint(2, 5))
            inst = EqCheckInstance(m1, distinct_mutant(rng, m1))
        res = eq_check(inst)
        yield [
            res.verdict,
            res.witness,
            res.constant,
            res.steps,
            [list(c.literals) for c in res.solution],
        ]


def _interpolate_records():
    rng = random.Random(4141)
    for _ in range(200):
        inst = random_interp_split(rng)
        if inst is None:
            yield None
            continue
        res = interpolate(inst)
        yield [
            res.status,
            [list(c.literals) for c in res.candidate],
            res.steps,
            res.derivation,
        ]


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
    assert _digest(_take_out_records()) == (
        "94d2942e6b4066e2427b8cc94f6041c1cd1ecfc78caab7dcab10cfb6abb134aa"
    )


def test_diameter_answers_are_pinned():
    assert _digest(_diameter_records()) == (
        "e9b4d77b2fd5bb44b874e591103926d50521d09f33341df0105e61ad31c2c700"
    )


def test_eq_check_outcomes_are_pinned():
    assert _digest(_eq_check_records()) == (
        "dda7bba7ef8336695bec202aeee8e3914dfcdf5dd5f10fa3256942de3795bd14"
    )


def test_interpolate_outcomes_are_pinned():
    assert _digest(_interpolate_records()) == (
        "3e596ddd3e79a21e17c2a742abb8a6089a32e65c492987cf10655eb05f56edd1"
    )
