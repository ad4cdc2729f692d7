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
from pqesat.solver import solve


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


def _solver_records(seed: int, count: int, smallest: int):
    rng = random.Random(seed)
    for i in range(count):
        cnf = _random_3sat(rng, smallest + i % 3)
        out = solve(cnf)
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


def test_solver_outcomes_are_pinned():
    assert _digest(_solver_records(4260, 24, 12)) == (
        "abd65a8b8f634221ec988569ef62177de63770f8daea92026f85d28996a9b2b9"
    )


# The benchmark's sat3 size, n in 20-22: clusters are larger there and most
# induction candidates fail at their first required pair, unlike at n = 12-14.
def test_solver_outcomes_at_benchmark_size_are_pinned():
    assert _digest(_solver_records(2022, 20, 20)) == (
        "86c23256c245f0baf189b76bc39e0aac274c14bf5525da095d12a60a1c720b1c"
    )


def test_take_out_outcomes_are_pinned():
    assert _digest(_outputs(_take_out_runs())) == (
        "57b4690e2695735ac64da107b515236939f515dd90b920ea510881e90e76721e"
    )


def test_take_out_steps_are_pinned():
    assert _digest(_steps(_take_out_runs())) == (
        "e88d234f42fd10ae89c78c01f108a91faaa172b901683791e63d432b873b7ef2"
    )


def test_diameter_answers_are_pinned():
    assert _digest(_diameter_records()) == (
        "e9b4d77b2fd5bb44b874e591103926d50521d09f33341df0105e61ad31c2c700"
    )


def test_eq_check_outcomes_are_pinned():
    assert _digest(_outputs(_eq_check_runs())) == (
        "2637c041cbac29212e421aad5507814f88eb2476c0f4152af1d9f216e9c0a9a9"
    )


def test_eq_check_steps_are_pinned():
    assert _digest(_steps(_eq_check_runs())) == (
        "794934c9f63f9b2c01cb9594121cfe48ddd7d83170d1acabf9164df9800ee9b6"
    )


def test_interpolate_outcomes_are_pinned():
    assert _digest(_outputs(_interpolate_runs())) == (
        "b3bf01ac4683764e260046d47392ee2ac1f0401510380117fa4f571f95d1a32f"
    )


def test_interpolate_steps_are_pinned():
    assert _digest(_steps(_interpolate_runs())) == (
        "25f9148562d56ddd8aaec510b5db5e4958d4bc240e56c58c1a382672b19bfd0d"
    )
