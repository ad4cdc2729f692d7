"""Taking clauses out of quantified formulas, with redundancy records."""

import random

import pytest

from pqesat.cnf import Assignment, Binding, Clause, CnfProblem, parse_dimacs
from pqesat.fuzzing import random_pqe
from pqesat.oracle import enum_sat, qe_enum, verify_pqe
from pqesat.pqe import (
    DSequent,
    PqeConfig,
    PqeError,
    PqeProblem,
    StepLimitError,
    _Detector,
    _strict_subset_test,
    atomic_dsequent,
    decide_redundant,
    resolve_dsequents,
    sat_by_pqe,
    take_out,
)

from oracle_helpers import check_dsequent


# ---------------------------------------------------------------------------
# Redundancy records.
# ---------------------------------------------------------------------------


def test_dsequent_normalizes_subspace_and_removed():
    d = DSequent(((3, True), (1, False)), 0, 4, "blocked", (5, 2))
    assert d.subspace == ((1, False), (3, True))
    assert d.removed == (2, 5)
    assert d.value_of(3) is True
    assert d.value_of(7) is None


def test_dsequent_rejects_double_binding():
    with pytest.raises(PqeError):
        DSequent(((1, True), (1, False)), 0, 1, "blocked")


def test_resolve_dsequents_joins_opposite_branches():
    left = DSequent(((2, False), (3, True)), 7, 9, "conflict", (1,))
    right = DSequent(((2, True),), 7, 8, "blocked", (4,))
    joined = resolve_dsequents(left, right, 2)
    assert joined.target == 7
    assert joined.subspace == ((3, True),)
    assert joined.formula_size == 9
    assert joined.rationale == "resolved"
    assert joined.removed == (1, 4)


def test_resolve_dsequents_rejects_bad_joins():
    a = DSequent(((2, False),), 0, 1, "blocked")
    b = DSequent(((2, False),), 0, 1, "blocked")
    with pytest.raises(PqeError):
        resolve_dsequents(a, b, 2)  # same value on both sides
    with pytest.raises(PqeError):
        resolve_dsequents(a, DSequent(((2, True),), 1, 1, "blocked"), 2)
    with pytest.raises(PqeError):
        resolve_dsequents(
            DSequent(((2, False), (5, True)), 0, 1, "blocked"),
            DSequent(((2, True), (5, False)), 0, 1, "blocked"),
            2,
        )


# ---------------------------------------------------------------------------
# Atomic detection.
# ---------------------------------------------------------------------------


def test_atomic_satisfied_reports_the_earliest_satisfier():
    p = CnfProblem(2, [Clause([1, 2])], frozenset({2}))
    trail = Assignment([Binding(1, True), Binding(2, True)])
    d = atomic_dsequent(p, 0, trail)
    assert d.rationale == "satisfied"
    assert d.subspace == ((1, True),)
    assert check_dsequent(p, d)


def test_atomic_subsumed_without_context():
    p = CnfProblem(2, [Clause([1, 2]), Clause([2])], frozenset({1}))
    d = atomic_dsequent(p, 0, Assignment())
    assert d.rationale == "subsumed"
    assert d.subspace == ()
    assert check_dsequent(p, d)


def test_atomic_subsumed_under_falsified_literals():
    # The witness (2 or 3) fits once 3=0 falsifies its extra literal.
    p = CnfProblem(3, [Clause([1, 2]), Clause([2, 3])], frozenset({1}))
    d = atomic_dsequent(p, 0, Assignment([Binding(3, False)]))
    assert d.rationale == "subsumed"
    assert d.subspace == ((3, False),)
    assert check_dsequent(p, d)


def test_atomic_blocked_by_a_clashing_partner():
    p = CnfProblem(2, [Clause([1, 2]), Clause([-1, -2])], frozenset({1}))
    d = atomic_dsequent(p, 0, Assignment())
    assert d.rationale == "blocked"
    assert d.subspace == ()
    assert check_dsequent(p, d)


def test_atomic_blocked_without_partners():
    p = CnfProblem(2, [Clause([1, 2])], frozenset({2}))
    d = atomic_dsequent(p, 0, Assignment())
    assert d.rationale == "blocked"
    assert d.subspace == ()


def test_atomic_returns_none_when_nothing_applies():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])], frozenset({1}))
    assert atomic_dsequent(p, 0, Assignment()) is None


def test_atomic_blocked_through_a_discharged_partner():
    # The partner (-1 or 3) does not clash, but it is itself blocked at the
    # quantified 3, so the chain discharges it and clause 0 is blocked at 1.
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])], frozenset({1, 3}))
    d = atomic_dsequent(p, 0, Assignment())
    assert d.rationale == "blocked"
    assert d.subspace == ()
    assert check_dsequent(p, d)


def test_atomic_subsumed_by_a_falsified_witness_first():
    # Clause 1 shares no literal with clause 0 but 3=1 falsifies it whole,
    # so it is a witness, and it comes before the literal-sharing clause 2.
    p = CnfProblem(3, [Clause([1, 2]), Clause([-3]), Clause([2])], frozenset({1}))
    d = atomic_dsequent(p, 0, Assignment([Binding(3, True)]))
    assert d.rationale == "subsumed"
    assert d.subspace == ((3, True),)
    assert check_dsequent(p, d)


def test_atomic_subsumed_takes_the_first_witness_in_index_order():
    # Both clause 1 (under 3=0) and clause 2 are witnesses; the lower index wins.
    p = CnfProblem(3, [Clause([1, 2]), Clause([2, 3]), Clause([2])], frozenset({1}))
    d = atomic_dsequent(p, 0, Assignment([Binding(3, False)]))
    assert d.rationale == "subsumed"
    assert d.subspace == ((3, False),)
    assert check_dsequent(p, d)


def _linear_subsumed(problem, trail, dead, index, stack, removed):
    """Reference: the first witness found by scanning every clause in order."""
    allowed = problem.clauses[index].literal_set | trail.false_lits
    for j, w in enumerate(problem.clauses):
        if j == index or j in stack or j in removed or j in dead:
            continue
        if w.literal_set <= allowed and trail.true_lits.isdisjoint(w.literal_set):
            return {abs(lit): lit < 0 for lit in w.literal_set & trail.false_lits}
    return None


def test_subsumption_witnesses_match_a_linear_scan():
    rng = random.Random(9191)
    checked = hits = 0
    for _ in range(150):
        problem = random_pqe(rng, 9, 27, 1).problem
        if rng.random() < 0.2:
            # The empty clause is falsified under every trail.
            problem.add_clause(Clause([]))
        n, m = problem.var_count, len(problem.clauses)
        for _ in range(4):
            chosen = rng.sample(range(1, n + 1), rng.randint(0, n))
            trail = Assignment([Binding(v, rng.random() < 0.5) for v in chosen])
            dead = frozenset(j for j in range(m) if rng.random() < 0.1)
            det = _Detector(problem, trail, dead)
            for index in range(m):
                stack = frozenset(j for j in range(m) if rng.random() < 0.15)
                removed = frozenset(j for j in range(m) if rng.random() < 0.15)
                got = det._subsumed(index, stack | {index}, removed)
                want = _linear_subsumed(
                    problem, trail, dead, index, stack | {index}, removed
                )
                assert got == want
                checked += 1
                hits += want is not None
    # The corpus exercises both outcomes.
    assert 0 < hits < checked

# ---------------------------------------------------------------------------
# Problem plumbing.
# ---------------------------------------------------------------------------


def test_pqe_problem_checks_targets():
    p = CnfProblem(2, [Clause([1, 2])], frozenset({2}))
    with pytest.raises(PqeError):
        PqeProblem(p, (1,))
    assert PqeProblem(p, (0, 0)).targets == (0,)


def test_take_out_respects_the_step_limit():
    p = parse_dimacs(UNIT_EXTRACTION)
    with pytest.raises(StepLimitError):
        take_out(PqeProblem(p, (0,)), PqeConfig(step_limit=1))


# ---------------------------------------------------------------------------
# Whole runs, pinned.
# ---------------------------------------------------------------------------

UNIT_EXTRACTION = """\
p cnf 4 5
e 1 3 0
-1 3 0
2 1 0
2 -3 0
4 3 0
4 -3 0
"""


def test_unit_extraction_run_in_full():
    """Taking out the first clause forces the unit clause 2.

    The run is small enough to pin completely: one conflict learns the
    unit, the opposite branch finds the target blocked, and joining the
    two branch records discharges the whole subspace.
    """
    p = parse_dimacs(UNIT_EXTRACTION)
    sol = take_out(PqeProblem(p, (0,)))
    assert [list(c.literals) for c in sol.solution_clauses] == [[2]]
    assert sol.steps == 5
    assert sol.grown_targets == []
    assert len(sol.formula.clauses) == 6
    assert sol.derivation == [
        {"event": "solution_clause", "index": 5, "clause": [2]},
        {
            "event": "conflict_clause",
            "index": 5,
            "reused": False,
            "clause": [2],
            "start": 2,
            "steps": [[0, 3], [1, 1]],
            "tainted": True,
            "decisions": [(2, False)],
        },
        {
            "event": "atomic",
            "target": 0,
            "rationale": "blocked",
            "subspace": [(2, True)],
        },
        {"event": "resolve_dsequents", "target": 0, "var": 2, "subspace": []},
        {"event": "retired", "index": 0},
    ]
    d = sol.final_dsequents[0]
    assert d.rationale == "resolved"
    assert d.subspace == ()
    assert check_dsequent(sol.formula, d)
    assert verify_pqe(p, [0], sol.solution_clauses)


def test_free_targets_move_verbatim():
    p = CnfProblem(
        3, [Clause([1, 2]), Clause([1, 3])], quantified=frozenset({3})
    )
    sol = take_out(PqeProblem(p, (0,)))
    assert sol.solution_clauses == [Clause([1, 2])]
    assert sol.final_dsequents == {}
    assert sol.derivation[0] == {
        "event": "free_target",
        "index": 0,
        "clause": [1, 2],
    }
    assert verify_pqe(p, [0], sol.solution_clauses)


def test_duplicate_targets_are_each_proved():
    p = CnfProblem(
        3, [Clause([1, 2]), Clause([1, 2])], quantified=frozenset({2})
    )
    sol = take_out(PqeProblem(p, (0, 1)))
    assert sol.solution_clauses == []
    assert set(sol.final_dsequents) == {0, 1}
    for d in sol.final_dsequents.values():
        assert d.subspace == ()
        assert check_dsequent(sol.formula, d)
    assert verify_pqe(p, [0, 1], sol.solution_clauses)


def test_unsat_quantified_block_yields_the_empty_clause():
    # Propagation refutes the quantified block outright, so the very
    # first conflict resolves down to the empty clause.
    p = CnfProblem(2, [Clause([2]), Clause([-2])], quantified=frozenset({2}))
    sol = take_out(PqeProblem(p, (0,)))
    assert sol.solution_clauses == [Clause([])]
    assert sol.steps == 1
    assert sol.final_dsequents[0].rationale == "conflict"
    assert verify_pqe(p, [0], sol.solution_clauses)
    for d in sol.final_dsequents.values():
        assert check_dsequent(sol.formula, d)


def test_an_empty_live_clause_is_reused_as_the_conflict_twin():
    # The empty clause falsifies at the root; it is already in the formula
    # and is not the target, so the conflict reuses it instead of adding
    # a copy.
    p = CnfProblem(2, [Clause([1, 2]), Clause([])], frozenset({1}))
    sol = take_out(PqeProblem(p, (0,)))
    event = sol.derivation[0]
    assert event["event"] == "conflict_clause"
    assert (event["index"], event["reused"], event["clause"]) == (1, True, [])
    assert len(sol.formula.clauses) == 2


def test_projection_fallback_run_pinned():
    """A run whose per-target passes keep re-deriving the same content.

    The engine detects the second rebirth and eliminates the quantified
    block outright; every pending target retires against the projection.
    All concrete numbers below were produced by an oracle-verified run
    and then frozen.
    """
    clauses = [
        (-4, -1),
        (4,),
        (3, -2, 1),
        (-4, 1, 3),
        (2, -1),
        (2, -4),
        (-1, -3),
        (-2, 3, 1),
        (-1,),
        (-3, 4),
        (2, -1),
    ]
    p = CnfProblem(4, [Clause(c) for c in clauses], frozenset({2, 3, 4}))
    targets = (1, 0, 4)
    sol = take_out(PqeProblem(p, targets))
    # Steps count work, not output: 45 since a blocked chain stops at a
    # partner no discharge can take out.
    assert sol.steps == 45
    assert len(sol.formula.clauses) == 13
    assert sol.solution_clauses == []
    # Two learned clauses carried quantified variables, so they joined
    # the target queue themselves.
    assert sol.grown_targets == [11, 12]
    assert any(ev["event"] == "new_target" for ev in sol.derivation)
    assert any(ev["event"] == "projected" for ev in sol.derivation)
    assert sorted((t, d.rationale) for t, d in sol.final_dsequents.items()) == [
        (0, "subsumed"),
        (1, "resolved"),
        (4, "subsumed"),
        (11, "resolved"),
        (12, "projected"),
    ]
    assert verify_pqe(p, list(targets), sol.solution_clauses)
    for d in sol.final_dsequents.values():
        assert check_dsequent(sol.formula, d)


def _random_literal_sets(rng):
    family = []
    for _ in range(rng.randint(0, 12)):
        vs = rng.sample(range(1, 7), rng.randint(1, 4))
        s = frozenset(v if rng.random() < 0.5 else -v for v in vs)
        family.append(s)
        if s and rng.random() < 0.3:
            # A nested chain down from s, one literal dropped at a time.
            chain = sorted(s)
            rng.shuffle(chain)
            for k in range(len(chain) - 1, 0, -1):
                family.append(frozenset(chain[:k]))
        if s and rng.random() < 0.3:
            # The same variables with one polarity flipped.
            lit = rng.choice(sorted(s))
            family.append(s - {lit} | {-lit})
    if rng.random() < 0.3:
        family.append(frozenset())
    return set(family)


def test_strict_subset_test_matches_the_quadratic_filter():
    rng = random.Random(4505)
    checked = hits = 0
    for _ in range(300):
        family = _random_literal_sets(rng)
        has_subset = _strict_subset_test(family)
        for s in family:
            want = any(t < s for t in family)
            assert has_subset(s) == want, (sorted(s), family)
            checked += 1
            hits += want
    # The families exercise both outcomes.
    assert 0 < hits < checked


def test_strict_subset_test_empty_set_subsumes_every_other():
    family = {frozenset(), frozenset({1}), frozenset({-2, 3})}
    has_subset = _strict_subset_test(family)
    assert not has_subset(frozenset())
    assert has_subset(frozenset({1}))
    assert has_subset(frozenset({-2, 3}))


def test_solution_clause_callback_sees_every_clause():
    p = parse_dimacs(UNIT_EXTRACTION)
    seen = []
    config = PqeConfig(on_solution_clause=seen.append)
    sol = take_out(PqeProblem(p, (0,)), config)
    assert seen == sol.solution_clauses


def test_take_out_random_instances_verify():
    rng = random.Random(2024)
    for _ in range(30):
        pq = random_pqe(rng, max_vars=8)
        sol = take_out(pq)
        assert verify_pqe(
            pq.problem, list(pq.targets), sol.solution_clauses
        )
        retired = [e["index"] for e in sol.derivation if e["event"] == "retired"]
        assert list(sol.final_dsequents) == retired
        for closed, d in enumerate(sol.final_dsequents.values()):
            assert d.subspace == ()
            assert check_dsequent(sol.formula, d)
            # Each D-sequent is about the formula minus the targets
            # closed before it.
            assert d.removed == tuple(sorted(retired[:closed]))


# ---------------------------------------------------------------------------
# Redundancy decision and satisfiability transfer.
# ---------------------------------------------------------------------------


def test_decide_redundant_true():
    p = CnfProblem(2, [Clause([1]), Clause([1, 2])], frozenset({2}))
    assert decide_redundant(PqeProblem(p, (1,)))


def test_decide_redundant_false():
    p = CnfProblem(2, [Clause([1, 2]), Clause([-2])], frozenset({2}))
    assert not decide_redundant(PqeProblem(p, (0,)))


def test_decide_redundant_agrees_with_projection_oracle():
    rng = random.Random(77)
    for _ in range(25):
        pq = random_pqe(rng, max_vars=7)
        kept = [
            c
            for i, c in enumerate(pq.problem.clauses)
            if i not in set(pq.targets)
        ]
        reduced = CnfProblem(
            pq.problem.var_count, kept, pq.problem.quantified
        )
        want = qe_enum(pq.problem) == qe_enum(reduced)
        assert decide_redundant(pq) == want


def test_decide_redundant_redundancy_probe_respects_the_step_limit():
    # A target free of quantified variables goes straight to the solution,
    # so the redundancy probe runs before the engine takes a step.
    p = CnfProblem(2, [Clause([1]), Clause([1, 2])], frozenset({2}))
    with pytest.raises(StepLimitError, match="redundancy probe"):
        decide_redundant(PqeProblem(p, (0,)), PqeConfig(step_limit=0))


def test_sat_by_pqe_satisfiable():
    p = CnfProblem(2, [Clause([1, 2]), Clause([-1, 2])])
    status, model = sat_by_pqe(p, {1: False, 2: False})
    assert status == "sat"
    for c in p.clauses:
        assert any(model[abs(lit)] == (lit > 0) for lit in c)


def test_sat_by_pqe_trusts_a_satisfying_assignment():
    p = CnfProblem(2, [Clause([1, 2])])
    status, model = sat_by_pqe(p, {1: True, 2: False})
    assert status == "sat"
    assert model == {1: True, 2: False}


def test_sat_by_pqe_unsatisfiable():
    p = CnfProblem(1, [Clause([1]), Clause([-1])])
    assert sat_by_pqe(p, {1: True}) == ("unsat", None)


def test_sat_by_pqe_needs_a_total_assignment():
    p = CnfProblem(2, [Clause([1, 2])])
    with pytest.raises(PqeError):
        sat_by_pqe(p, {1: True})


def test_sat_by_pqe_agrees_with_enumeration():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(3, 7)
        p = CnfProblem(
            n,
            [
                Clause(
                    [
                        v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1), rng.randint(1, 3))
                    ]
                )
                for _ in range(rng.randint(3, 15))
            ],
        )
        guess = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        status, model = sat_by_pqe(p, guess)
        want = enum_sat(p)
        assert status == ("unsat" if want is None else "sat")
        if status == "sat":
            for c in p.clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in c)
