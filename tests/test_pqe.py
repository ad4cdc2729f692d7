"""Taking clauses out of quantified formulas, with redundancy records."""

import random

import pytest

from pqesat import pqe
from pqesat.bcp import PropagationResult, analyze_conflict
from pqesat.circuits import unroll
from pqesat.cnf import Assignment, Binding, Clause, CnfProblem, parse_dimacs
from pqesat.fuzzing import random_clause, random_pqe, random_transition_system
from pqesat.oracle import enum_sat, implies, qe_enum, verify_pqe
from pqesat.pqe import (
    DSequent,
    PqeError,
    PqeProblem,
    StepLimitError,
    _Detector,
    atomic_dsequent,
    decide_redundant,
    resolve_dsequents,
    sat_by_pqe,
    take_out,
)
from pqesat.solver import STEP_LIMIT

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


class _ScanDetector(_Detector):
    """Subsumption by a scan of the whole formula, kept as the reference.

    The first witness in index order wins; everything else is
    ``_Detector``'s.
    """

    def _subsumed(self, index, stack, removed):
        false_lits = self.trail.false_lits
        allowed = self.problem.clauses[index].literal_set | false_lits
        for j, w in enumerate(self.problem.clauses):
            if j == index or j in stack or j in removed or j in self.dead:
                continue
            ws = w.literal_set
            if ws <= allowed and self.trail.true_lits.isdisjoint(ws):
                return {abs(lit): lit < 0 for lit in ws & false_lits}
        return None


def _witness_formula(rng):
    """A random formula and a trail over its variables.

    The formula has duplicate clauses, maybe the empty clause, and clauses
    the trail falsifies whole, added after its least-literal index was
    built half the time.
    """
    problem = random_pqe(rng, 9, 27, 1).problem
    n = problem.var_count
    chosen = rng.sample(range(1, n + 1), rng.randint(0, n))
    trail = Assignment([Binding(v, rng.random() < 0.5) for v in chosen])
    if rng.random() < 0.5:
        problem.least_literal_index()
    false_lits = sorted(trail.false_lits)
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.4:
            problem.add_clause(rng.choice(problem.clauses))
        elif kind < 0.8 and false_lits:
            k = rng.randint(1, min(3, len(false_lits)))
            problem.add_clause(Clause(rng.sample(false_lits, k)))
        elif kind < 0.9:
            # The empty clause is falsified under every trail.
            problem.add_clause(Clause([]))
    return problem, trail


def test_subsumption_witnesses_match_a_linear_scan():
    rng = random.Random(9191)
    checked = hits = falsified_hits = 0
    for _ in range(400):
        problem, trail = _witness_formula(rng)
        m = len(problem.clauses)
        dead = frozenset(j for j in range(m) if rng.random() < 0.1)
        det, ticks = _counted(_Detector, problem, trail, dead)
        ref, ref_ticks = _counted(_ScanDetector, problem, trail, dead)
        for index in range(m):
            stack = frozenset(j for j in range(m) if rng.random() < 0.15)
            removed = frozenset(j for j in range(m) if rng.random() < 0.15)
            got = det._subsumed(index, stack | {index}, removed)
            want = ref._subsumed(index, stack | {index}, removed)
            assert got == want
            # Discharges inside a detection search for witnesses too.
            assert det.detect(index) == ref.detect(index)
            assert ticks == ref_ticks
            checked += 1
            hits += want is not None
            falsified_hits += want is not None and not (
                set(want) & problem.clauses[index].variables()
            )
    # The corpus exercises both outcomes, and witnesses falsified whole.
    assert 0 < hits < checked
    assert falsified_hits > 0


class _PartnerLoopDetector(_Detector):
    """The partner loop the set tests replaced, kept as the reference.

    Each partner is classified with its own ``_satisfied`` call and a
    per-literal clash test; everything else is ``_Detector``'s.
    """

    def _blocked(self, index, stack, removed, depth):
        clause = self.problem.clauses[index]
        neg_cs = frozenset(-lit for lit in clause.literal_set)
        quantified = self.problem.quantified
        false_lits = self.trail.false_lits
        for own in clause:
            if abs(own) not in quantified or self.trail.is_assigned(abs(own)):
                continue
            bindings, pending, stuck = {}, [], False
            for j in self.problem.occurrences(-own):
                if j == index or j in removed or j in self.dead:
                    continue
                w = self.problem.clauses[j]
                sat = self._satisfied(w)
                if sat is not None:
                    bindings.update(sat)
                    continue
                if any(
                    m != -own and m in neg_cs and m not in false_lits
                    for m in w.literal_set
                ):
                    continue
                if j in stack or depth >= pqe.MAX_CHAIN_DEPTH:
                    stuck = True
                    break
                pending.append(j)
            if stuck:
                continue
            rm = removed
            for j in pending:
                if j in rm:
                    continue
                sub = self._discharge(j, stack | {index}, rm, depth + 1)
                if sub is None:
                    break
                bindings.update(sub[0])
                rm = sub[1] | {j}
            else:
                return bindings, rm
        return None


def _counted(cls, problem, trail, dead):
    """A detector of class ``cls`` and the list of the ticks it charges."""
    ticks = []
    return cls(problem, trail, dead, tick=ticks.append), ticks


def test_blocked_partner_sets_match_the_partner_loop():
    rng = random.Random(4242)
    blocked = checked = discharged = 0
    for _ in range(120):
        problem = random_pqe(rng, 9, 27, 1).problem
        n, m = problem.var_count, len(problem.clauses)
        for _ in range(4):
            chosen = rng.sample(range(1, n + 1), rng.randint(0, n))
            trail = Assignment([Binding(v, rng.random() < 0.5) for v in chosen])
            dead = frozenset(j for j in range(m) if rng.random() < 0.1)
            for index in range(m):
                det, ticks = _counted(_Detector, problem, trail, dead)
                ref, ref_ticks = _counted(_PartnerLoopDetector, problem, trail, dead)
                got = det.detect(index)
                assert got == ref.detect(index)
                assert ticks == ref_ticks
                blocked += got is not None and got[1] == "blocked"
                # detect drops the removed set, so compare _blocked itself.
                stack = frozenset(j for j in range(m) if rng.random() < 0.15)
                removed = frozenset(j for j in range(m) if rng.random() < 0.15)
                depth = rng.choice((0, 0, 3, pqe.MAX_CHAIN_DEPTH))
                det, ticks = _counted(_Detector, problem, trail, dead)
                ref, ref_ticks = _counted(_PartnerLoopDetector, problem, trail, dead)
                got = det._blocked(index, stack | {index}, removed, depth)
                assert got == ref._blocked(index, stack | {index}, removed, depth)
                assert ticks == ref_ticks
                checked += 1
                discharged += len(ticks)
    # Both outcomes occur, and chains are discharged along the way.
    assert 0 < blocked < checked
    assert discharged > 0


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
        take_out(PqeProblem(p, (0,)), 1)


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


def _twinned(rng):
    """A random instance holding equal-content copies of some of its clauses.

    Each copy is a distinct object at a higher index, and the first copied
    clause is also a target, so once it closes its copy is the live one.
    """
    pq = random_pqe(rng, max_vars=8)
    base = pq.problem.clauses
    clauses = list(base)
    copied = rng.sample(range(len(base)), rng.randint(1, min(4, len(base))))
    for i in copied:
        at = next(j for j, c in enumerate(clauses) if c is base[i])
        clauses.insert(rng.randint(at + 1, len(clauses)), Clause(base[i].literals))
    position = {id(c): j for j, c in enumerate(clauses)}
    targets = [position[id(base[t])] for t in (copied[0], *pq.targets)]
    problem = CnfProblem(pq.problem.var_count, clauses, pq.problem.quantified)
    return PqeProblem(problem, tuple(targets))


def test_logged_clause_indices_name_the_clauses_propagation_read(monkeypatch):
    """Every ``start`` and step index is the position of the very clause object
    propagation reported as the conflict or used as the reason."""
    read = []

    def recording(res, steps=None):
        derived = analyze_conflict(res, steps)
        read.append((res.conflict, [] if steps is None else list(steps)))
        return derived

    monkeypatch.setattr(pqe, "analyze_conflict", recording)
    rng = random.Random(17)
    twins_read = 0
    for _ in range(300):
        pq = _twinned(rng)
        read.clear()
        sol = take_out(pq)
        events = [e for e in sol.derivation if e["event"] == "conflict_clause"]
        assert len(events) == len(read)
        clauses = sol.formula.clauses
        for event, (conflict, steps) in zip(events, read):
            assert clauses[event["start"]] is conflict
            assert len(event["steps"]) == len(steps)
            for (j, v), (reason, pivot) in zip(event["steps"], steps):
                assert clauses[j] is reason and v == pivot
            named = [event["start"], *(j for j, _ in event["steps"])]
            twins_read += sum(clauses.count(clauses[j]) > 1 for j in named)
    # The corpus does read clauses that have an equal-content copy.
    assert twins_read > 100


def test_three_target_regression_closes_each_target():
    """Three targets whose passes once kept re-deriving the same content.

    Branching on free variables only, every pass closes its own target
    and nothing else is ever queued.
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
    assert verify_pqe(p, list(targets), sol.solution_clauses)
    assert set(sol.final_dsequents) == set(targets)
    for d in sol.final_dsequents.values():
        assert check_dsequent(sol.formula, d)
    assert not any(ev["event"] == "projected" for ev in sol.derivation)


def _take_out_replayed(monkeypatch, pq):
    """take_out, checking every D-sequent the engine builds along the way."""
    made = []

    def recorded(build):
        def wrapper(*args):
            d = build(*args)
            made.append(d)
            return d

        return wrapper

    monkeypatch.setattr(pqe, "resolve_dsequents", recorded(resolve_dsequents))
    monkeypatch.setattr(pqe._Engine, "dsequent", recorded(pqe._Engine.dsequent))
    sol = take_out(pq)
    assert made
    for d in made:
        assert check_dsequent(sol.formula, d), d
    return sol


def _instance(clauses, quantified, targets):
    n = max(abs(lit) for c in clauses for lit in c)
    problem = CnfProblem(n, [Clause(c) for c in clauses], frozenset(quantified))
    return PqeProblem(problem, targets)


# Detection fails at 1=0, where the formula still has a model: a "sat" leaf.
SAT_LEAF = ([[-3, -4], [-2, 1, 3], [-2, 3, 4], [1, 2, 4]], {2, 3, 4}, (1,))

# At 2=0, 4=0 the formula has no model, and 2 alone already entails it.
SHRUNK_PROBE = (
    [[5, -3], [5, 3, 4], [-4], [-2, -5, 3], [2, 1, -3], [-1, 4, -5], [3, 1], [5, 4, -1]],
    {1, 3, 5},
    (5,),
)


def test_sat_leaf_run_pinned(monkeypatch):
    pq = _instance(*SAT_LEAF)
    sol = _take_out_replayed(monkeypatch, pq)
    assert sol.solution_clauses == []
    # Steps include the cube probe's solver steps.
    assert sol.steps == 13
    assert sol.derivation == [
        {"event": "atomic", "target": 1, "rationale": "sat", "subspace": [(1, False)]},
        {
            "event": "atomic",
            "target": 1,
            "rationale": "satisfied",
            "subspace": [(1, True)],
        },
        {"event": "resolve_dsequents", "target": 1, "var": 1, "subspace": []},
        {"event": "retired", "index": 1},
    ]
    assert verify_pqe(pq.problem, list(pq.targets), sol.solution_clauses)


def test_shrunk_probe_clause_run_pinned(monkeypatch):
    pq = _instance(*SHRUNK_PROBE)
    sol = _take_out_replayed(monkeypatch, pq)
    assert [list(c.literals) for c in sol.solution_clauses] == [[2]]
    # A shrink probe's model settles the cube 2=1, 4=0 without a probe.
    assert sol.steps == 35
    assert sol.derivation[:3] == [
        {"event": "solution_clause", "index": 8, "clause": [2]},
        {
            "event": "probe_clause",
            "index": 8,
            "clause": [2],
            "decisions": [(2, False), (4, False)],
        },
        {
            "event": "atomic",
            "target": 5,
            "rationale": "sat",
            "subspace": [(2, True), (4, False)],
        },
    ]
    assert verify_pqe(pq.problem, list(pq.targets), sol.solution_clauses)


def test_a_budget_spent_inside_a_cube_probe_stops_the_run():
    # 35 steps finish the run; at 20 the first probe runs out.
    with pytest.raises(StepLimitError, match="cube probe"):
        take_out(_instance(*SHRUNK_PROBE), 20)


def test_unmentioned_free_variables_change_nothing():
    rng = random.Random(3131)
    probes = 0
    for _ in range(2000):
        pq = random_pqe(rng, 8, 24, 2)
        p = pq.problem
        wide = CnfProblem(p.var_count + 16, list(p.clauses), p.quantified)
        sol = take_out(pq)
        got = take_out(PqeProblem(wide, pq.targets))
        assert got.solution_clauses == sol.solution_clauses
        assert got.steps == sol.steps
        probes += sum(
            ev["event"] == "probe_clause" or ev.get("rationale") == "sat"
            for ev in sol.derivation
        )
    # The corpus reaches the cube probe, where naive branching would differ.
    assert probes > 0


def test_decide_redundant_probes_each_solution_clause(monkeypatch):
    # decide_redundant stops at the first clause the rest of the formula
    # does not imply, here the only one.
    want = take_out(PqeProblem(parse_dimacs(UNIT_EXTRACTION), (0,))).solution_clauses
    assert want == [Clause([2])]
    probed = []
    real = pqe.probe

    def recording(problem, h, learned, limit, what):
        if what == "redundancy probe":
            probed.append(h)
        return real(problem, h, learned, limit, what)

    monkeypatch.setattr(pqe, "probe", recording)
    assert not decide_redundant(PqeProblem(parse_dimacs(UNIT_EXTRACTION), (0,)))
    assert probed == want


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


def _checked_probes(monkeypatch):
    """Wrap ``pqe.probe`` so that every probe is checked as it returns.

    Each answer must match a fresh probe of the formula as it
    stands; the closing clause must lie within the probed clause and be
    implied, and so must every certificate the probe's list holds.
    Returns a log of (certificates before the probe, outcome) pairs.
    """
    log = []
    real = pqe.probe

    def checked(problem, h, learned, limit, what):
        before = len(learned)
        out = real(problem, h, learned, limit, what)
        fresh = real(problem.copy(), h, [], 10**6, what)
        assert out.status == fresh.status
        if out.closing_clause is not None:
            assert out.closing_clause.literal_set <= h.literal_set
            assert implies(problem, out.closing_clause)
        for c in learned:
            assert implies(problem, c), c
        log.append((before, out))
        return out

    monkeypatch.setattr(pqe, "probe", checked)
    return log


def _few_free_3sat(rng):
    """Random 3-CNF on at most 12 variables with two to four free ones.

    With so few free variables detection often fails at a full free
    cube, so these instances reach the cube probe far more often than
    ``random_pqe`` does.
    """
    n = rng.randint(6, 12)
    clauses = []
    for _ in range(round(rng.choice((2.5, 3.0, 3.5)) * n)):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append(Clause([v if rng.random() < 0.5 else -v for v in chosen]))
    free = rng.sample(range(1, n + 1), rng.randint(2, 4))
    problem = CnfProblem(n, clauses, frozenset(range(1, n + 1)) - set(free))
    return PqeProblem(problem, tuple(rng.sample(range(len(clauses)), rng.randint(1, 4))))


def test_cube_probes_of_a_pass_share_one_solver(monkeypatch):
    log = _checked_probes(monkeypatch)
    rng = random.Random(1212)
    for _ in range(40):
        pq = _few_free_3sat(rng)
        sol = take_out(pq)
        assert verify_pqe(pq.problem, list(pq.targets), sol.solution_clauses)
    assert len(log) > 50
    # Later probes of a pass start from certificates learned before them.
    assert sum(before > 0 for before, _ in log) > 20


def test_redundancy_probes_share_one_solver(monkeypatch):
    log = _checked_probes(monkeypatch)
    rng = random.Random(77)
    for _ in range(25):
        pq = random_pqe(rng, max_vars=7)
        kept = [c for i, c in enumerate(pq.problem.clauses) if i not in pq.targets]
        reduced = CnfProblem(pq.problem.var_count, kept, pq.problem.quantified)
        assert decide_redundant(pq) == (qe_enum(pq.problem) == qe_enum(reduced))
    assert any(what.status == "unsat" for _, what in log)


# ---------------------------------------------------------------------------
# Reusing detections and discharges within a pass.
# ---------------------------------------------------------------------------


class _ForgetfulModels(dict):
    """A cube model store that keeps nothing."""

    def __setitem__(self, cube, stored):
        pass


class _NoModelReuse(pqe._Engine):
    """The engine with every cube settled by a probe of its own."""

    def __init__(self, *args):
        super().__init__(*args)
        self.models = _ForgetfulModels()


class _UnkeptMemo(pqe._Memo):
    """A detection memo that keeps nothing."""

    def put(self, *args):
        pass


class _FreshDetectionEngine(_NoModelReuse):
    """The engine without reuse, kept as the reference.

    Every node propagates from scratch and builds a fresh ``_Detector``,
    and every cube is probed.  ``at`` is the decisions of the node entered
    last, where a StepLimitError is raised.
    """

    def node(self, decisions, target, up=None):
        self.at = list(decisions)
        self.tick()
        if self.unsat_closed:
            return self.dsequent((), target, "conflict")
        res = pqe.propagate(self.F, (), Assignment(), decisions, self.dead)
        if res.is_conflict:
            return self._conflict_node(decisions, target, res)
        trail = Assignment([Binding(v, val) for v, val in decisions])
        memo = _UnkeptMemo(self.F, self.order)
        got = _Detector(self.F, trail, self.dead, self.tick, memo).detect(target)
        if got is not None:
            return self.atomic(got[0].items(), target, got[1])
        if len(decisions) == len(self.order):
            return self.project_out_remaining(decisions, target)
        v = self.order[len(decisions)]
        left = self.node(decisions + [(v, False)], target)
        if not left.binds(v):
            return left
        right = self.node(decisions + [(v, True)], target)
        return self._combine(left, right, v, target)


class _ReusingEngine(_NoModelReuse):
    """The engine as it is but for model reuse, noting the node entered last."""

    def node(self, decisions, target, up=None):
        self.at = list(decisions)
        return super().node(decisions, target, up)


def _run_with(engine, pq, step_limit=STEP_LIMIT):
    """``take_out`` run by ``engine``: its outcome, detections and propagations.

    The outcome is the run's outputs, or the StepLimitError message with
    the node it was raised at and the derivation so far.  Detections are
    (decisions, result) pairs in call order; each is checked to start
    with no live clause falsified by the decisions, which the reuse and
    ``_Detector.falsified`` rely on.  Propagations are (node decisions,
    carried, decisions pushed, conflict) tuples in call order; a carried
    one is checked to conflict exactly when a fresh one from the node's
    decisions does.
    """
    engines, detections, propagations = [], [], []
    detect = _Detector.detect
    propagate = pqe.propagate

    def carried_checked(problem, learned, start, decisions, skip):
        got = propagate(problem, learned, start, decisions, skip)
        (run,) = engines
        carried = isinstance(start, PropagationResult)
        if carried:
            fresh = propagate(problem, learned, Assignment(), run.at, skip)
            assert got.is_conflict == fresh.is_conflict, run.at
        propagations.append((run.at, carried, list(decisions), got.is_conflict))
        return got

    def checked(self, index):
        false_lits = self.trail.false_lits
        assert not any(
            c.literal_set <= false_lits and j not in self.dead
            for j, c in enumerate(self.problem.clauses)
        )
        got = detect(self, index)
        detections.append((self.trail.items(), got))
        return got

    class Recorded(engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pqe, "_Engine", Recorded)
        mp.setattr(_Detector, "detect", checked)
        mp.setattr(pqe, "propagate", carried_checked)
        try:
            sol = take_out(pq, step_limit)
        except StepLimitError as exc:
            (run,) = engines
            outcome = ("limit", str(exc), run.at, run.derivation)
            return outcome, detections, propagations
    outcome = (
        sol.derivation,
        [list(c.literals) for c in sol.solution_clauses],
        sol.final_dsequents,
        sol.steps,
    )
    return outcome, detections, propagations


def _assert_reuse_is_exact(pq, step_limit=STEP_LIMIT):
    """Both engines agree.

    Returns the outcome, the two detection logs and the reusing engine's
    propagations.
    """
    want, fresh, _ = _run_with(_FreshDetectionEngine, pq, step_limit)
    got, reusing, propagations = _run_with(_ReusingEngine, pq, step_limit)
    assert got == want
    # Every detection the reusing engine makes, the reference makes too,
    # in the same order and with the same result.
    rest = iter(fresh)
    assert all(d in rest for d in reusing)
    return got, fresh, reusing, propagations


def _reuse_instance(rng):
    """A random instance whose detections often fail below the root.

    A clause drawn with a quantified literal gets, half the time, a twin
    with that literal negated.  The two are each other's open partners at
    that variable, so neither can be discharged while the other is being
    checked.
    """
    n = rng.randint(4, 12)
    pool = range(1, n + 1)
    share = rng.choice((0.3, 0.5, 0.8))
    quantified = frozenset(rng.sample(pool, max(1, round(share * n))))
    clauses = []
    for _ in range(rng.randint(n // 2, 3 * n // 2)):
        c = random_clause(rng, pool)
        clauses.append(c)
        own = [lit for lit in c if abs(lit) in quantified]
        if own and rng.random() < 0.5:
            flip = rng.choice(own)
            clauses.append(Clause([-lit if lit == flip else lit for lit in c]))
    targets = rng.sample(range(len(clauses)), rng.randint(1, min(4, len(clauses))))
    return PqeProblem(CnfProblem(n, clauses, quantified), tuple(targets))


def test_reused_detections_match_fresh_ones():
    rng = random.Random(1414)
    fresh_calls = reusing_calls = limited = 0
    carried = []
    for _ in range(1000):
        pq = _reuse_instance(rng)
        outcome, fresh, reusing, propagations = _assert_reuse_is_exact(pq)
        fresh_calls += len(fresh)
        reusing_calls += len(reusing)
        carried += [conflict for _, up, _, conflict in propagations if up]
        steps = outcome[3]
        if steps > 1 and rng.random() < 0.3:
            # A budget that runs out somewhere inside the run, or just not.
            limit = rng.randint(1, steps)
            _assert_reuse_is_exact(pq, limit)
            limited += limit < steps
    assert reusing_calls < fresh_calls
    assert limited > 0
    # Carried propagations, checked against fresh ones, both ways.
    assert carried.count(True) > 100 and carried.count(False) > 100


def test_reused_detections_match_fresh_ones_on_diameter_runs():
    # Full take_out runs on the benchmark's kind of diameter query.
    rng = random.Random(606)
    fresh_calls = reusing_calls = 0
    carried = []
    for _ in range(4):
        ts = random_transition_system(rng)
        for k in range(1, 6):
            u = unroll(ts, k, duplicate_init=True)
            _, fresh, reusing, propagations = _assert_reuse_is_exact(
                PqeProblem(u.problem, tuple(u.init_targets))
            )
            fresh_calls += len(fresh)
            reusing_calls += len(reusing)
            carried += [conflict for _, up, _, conflict in propagations if up]
    assert reusing_calls < fresh_calls
    assert carried.count(True) > 0 and carried.count(False) > 100


# q=3 is quantified, 1 and 2 are free.  At the root the target (3 or 2)
# fails: its partner (-3 or -1) at q is open and cannot be discharged.  At
# 1=0 that partner is satisfied, so the target is blocked there.
PARTNER_GAINS_A_VALUE = ([[3, 2], [-3, -1]], {3}, (0,))

# At the root the target (3 or 2) fails, and its detection reads no clause
# holding 1, so 1=0 reuses the failure.  Below it, 2=0 derives the unit
# (2) without 1, and 2=1 derives (1 or -2).  At 1=1 the formula has grown,
# and (2) is now a witness that subsumes the target.
LEFT_CLAUSE_WITNESSES_RIGHT = (
    [[3, 2], [-3, 4], [2, 4], [2, -4], [1, -2, 5], [1, -2, -5]],
    {3, 4, 5},
    (0,),
)


def test_a_child_whose_variable_was_read_detects_again():
    pq = _instance(*PARTNER_GAINS_A_VALUE)
    _, fresh, reusing, _ = _assert_reuse_is_exact(pq)
    assert reusing[:2] == [
        ([], None),
        ([(1, False)], ({1: False}, "blocked")),
    ]


def test_a_grown_formula_refuses_reuse():
    pq = _instance(*LEFT_CLAUSE_WITNESSES_RIGHT)
    sol = take_out(pq)
    assert [list(c.literals) for c in sol.solution_clauses] == [[2], [1, -2]]
    _, fresh, reusing, _ = _assert_reuse_is_exact(pq)
    assert fresh == [
        ([], None),
        ([(1, False)], None),
        ([(1, True)], ({}, "subsumed")),
    ]
    # 1=0 took the root's failure; 1=1 detected afresh and hit.
    assert reusing == [fresh[0], fresh[2]]


# 1, 2, 3 and 4 are free, 5 and 6 quantified.  The target (-6 or 3) fails
# at 1=0, 2=1: its partner (6 or -4) is open and cannot be discharged while
# the target is being checked.  That failure reads no clause holding 1, so
# the cousin 1=1, 2=1 takes it, where 1=1 had reused the root's failure,
# which read 2's clauses.
COUSIN_TAKES_A_FAILURE = ([[-6, 3], [-5, -2, 6], [1, -3], [6, -4]], {5, 6}, (0,))

# 1 and 2 are free; 3, 4 and 5 quantified.  At 1=0 the target (-3) is
# blocked: its partner (3 or 4) is discharged, because (-2 or -1 or -4) is
# satisfied, and then (-5 or 3), with no partner at -5, is discharged
# with (3 or 4) removed.  At 1=1, 2=0 a fresh detection takes that last
# discharge from 1=0, whose result holds no free variable.
DISCHARGE_FROM_A_COUSIN = ([[-3], [3, 4], [-2, -1, -4], [-5, 3]], {3, 4, 5}, (0,))


class _LoggedMemo(pqe._Memo):
    """The engine's memo, logging every hit.

    A hit is logged as (key, node, node the entry was made at, result),
    with the nodes named by their decisions.
    """

    def __init__(self, engine, hits):
        super().__init__(engine.F, engine.order)
        self.engine = engine
        self.hits = hits
        self.made = {}

    def put(self, key, result, ticks, mask, state):
        super().put(key, result, ticks, mask, state)
        self.made[id(self.entries[key][-1][-1])] = self.engine.at

    def get(self, key, state):
        hit = super().get(key, state)
        if hit is not None:
            made = self.made[id(hit)]
            self.hits.append((key, self.engine.at, made, hit[0]))
        return hit


def _memo_hits(pq):
    """The memo hits of the engine as it is but for model reuse."""
    hits = []

    class Logged(_ReusingEngine):
        def __init__(self, *args):
            super().__init__(*args)
            self.memo = _LoggedMemo(self, hits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pqe, "_Engine", Logged)
        take_out(pq)
    return hits


def _assert_exact_under_every_limit(pq):
    outcome, *_ = _assert_reuse_is_exact(pq)
    for limit in range(1, outcome[3] + 1):
        _assert_reuse_is_exact(pq, limit)


def test_a_cousin_takes_a_failed_detection():
    pq = _instance(*COUSIN_TAKES_A_FAILURE)
    _assert_exact_under_every_limit(pq)
    _, fresh, reusing, _ = _assert_reuse_is_exact(pq)
    at = [(1, True), (2, True)]
    assert (at, None) in fresh and (at, None) not in reusing
    assert (0, at, [(1, False), (2, True)], None) in _memo_hits(pq)


def test_a_fresh_detection_takes_a_discharge_from_a_cousin():
    pq = _instance(*DISCHARGE_FROM_A_COUSIN)
    _assert_exact_under_every_limit(pq)
    _, _, reusing, _ = _assert_reuse_is_exact(pq)
    at = [(1, True), (2, False)]
    assert (at, ({2: False}, "blocked")) in reusing
    key = (3, frozenset({0}), frozenset({1}), 1)
    assert (key, at, [(1, False)], ({}, frozenset({1}))) in _memo_hits(pq)


def test_a_closed_pass_refuses_its_entries():
    # The target (-3 or 1) is blocked at the root: no clause holds 3.
    pq = _instance([[-3, 1], [2, 1]], {3}, (0,))
    engine = pqe._Engine(pq, STEP_LIMIT)
    d = engine.node([], 0)
    assert d.rationale == "blocked"
    state = engine.memo.state([])
    assert engine.memo.get(0, state) == (({}, "blocked"), 0, 0b11)
    engine.close(d)
    assert engine.memo.get(0, state) is None


def _capped_chain():
    """Target (1) with links (-q or q+1) from 1 up to the chain depth cap.

    The last link's partner, the clause (-cap-1 or cap+2 or x), is only
    met where no discharge may run, and x is the one free variable.
    """
    top = pqe.MAX_CHAIN_DEPTH + 1
    x = top + 2
    clauses = [[1]] + [[-q, q + 1] for q in range(1, top)] + [[-top, top + 1, x]]
    return _instance(clauses, set(range(1, x)), (0,)), x


def test_a_partner_met_at_the_depth_cap_is_read():
    pq, x = _capped_chain()
    _, fresh, reusing, _ = _assert_reuse_is_exact(pq)
    # At x=1 that partner is satisfied, and the whole chain discharges.
    assert reusing == fresh
    assert reusing[-1] == ([(x, True)], ({x: True}, "blocked"))


def test_a_step_limit_inside_a_reused_detection():
    pq = _instance(*LEFT_CLAUSE_WITNESSES_RIGHT)
    for limit in range(1, 10):
        _assert_reuse_is_exact(pq, limit)
    # The root node and its two discharges take 3 steps and 1=0 a fourth,
    # so limits 4 and 5 run out inside the failure 1=0 reuses.
    for limit in (4, 5):
        outcome, detections, _ = _run_with(_ReusingEngine, pq, limit)
        assert outcome[:3] == ("limit", f"step limit {limit} exceeded", [(1, False)])
        assert detections == [([], None)]


# ---------------------------------------------------------------------------
# Carrying node propagation from the parent.
# ---------------------------------------------------------------------------

# 4 is quantified and 3 the one free variable.  The target (-4) fails at the
# root: its partner (-3 or 4) is open and cannot be discharged while the
# target is being checked.  The root's propagation already sets 4=0, 3=0.
FORCED_BY_THE_PARENT = ([[-4], [-3, 4]], {4}, (0,))

# 1 is quantified; 2, 3 and 4 are free.  Below 2=0, 3=0 conflicts and
# derives (3).  At 2=1 that clause, appended by the left subtree, is unit:
# it forces 3=1, and then (1 or -3 or -2) and (-1 or -3 or -2) clash on 1.
UNIT_FROM_THE_LEFT = (
    [[-1, -4], [1, -3, -2], [-1, -3, -2], [1, 3], [-1, 3]],
    {1},
    (0,),
)


def test_a_decision_the_parent_forced_the_same_way_is_carried():
    _, _, _, propagations = _assert_reuse_is_exact(_instance(*FORCED_BY_THE_PARENT))
    # 3=0 pushes no decision and carries the root's fixpoint unchanged.
    assert propagations[:2] == [([], False, [], False), ([(3, False)], True, [], False)]


def test_a_decision_the_parent_forced_the_other_way_is_replayed():
    outcome, _, _, propagations = _assert_reuse_is_exact(
        _instance(*FORCED_BY_THE_PARENT)
    )
    # 3=1 contradicts the root's fixpoint: no carried call, and the fresh
    # replay conflicts, so the conflict clause comes from its trail.
    assert propagations[2:] == [([(3, True)], False, [(3, True)], True)]
    assert outcome[0][2] == {
        "event": "conflict_clause",
        "index": 2,
        "reused": False,
        "clause": [-3],
        "start": 1,
        "steps": [[0, 4]],
        "decisions": [(3, True)],
    }


def test_a_clause_from_the_left_subtree_is_unit_on_the_right():
    outcome, _, _, propagations = _assert_reuse_is_exact(_instance(*UNIT_FROM_THE_LEFT))
    # The carried call counts (3), index 5, and conflicts; the replay
    # resolves through it.
    assert propagations[-2:] == [
        ([(2, True)], True, [(2, True)], True),
        ([(2, True)], False, [(2, True)], True),
    ]
    derivation = outcome[0]
    assert derivation[5]["steps"] == [[1, 1], [5, 3]]
    assert outcome[1] == [[3], [-2]]


# ---------------------------------------------------------------------------
# Reusing the models of cube probes.
# ---------------------------------------------------------------------------


class _CheckedModels(pqe._Engine):
    """The engine, checking every stored model it reuses.

    A reused model must agree with the probed cube and satisfy every live
    clause of the formula as it stands.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.reused = 0

    def project_out_remaining(self, decisions, target):
        self.cube = decisions
        return super().project_out_remaining(decisions, target)

    def _stored_model(self, cube):
        model = super()._stored_model(cube)
        if model is not None:
            assert all(model[v] == val for v, val in self.cube)
            for j, c in enumerate(self.F.clauses):
                if j not in self.dead:
                    assert any(model[abs(lit)] == (lit > 0) for lit in c), j
            self.reused += 1
        return model


def _take_out_by(engine, pq):
    """``take_out`` run by ``engine``, with the engine it ran on."""
    engines = []

    class Recorded(engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pqe, "_Engine", Recorded)
        sol = take_out(pq)
    return sol, engines[0]


def _assert_models_reused_exactly(pq):
    """Reuse changes no output and spends no more steps; returns the reuses."""
    got, run = _take_out_by(_CheckedModels, pq)
    want, _ = _take_out_by(_NoModelReuse, pq)
    assert got.solution_clauses == want.solution_clauses
    assert got.derivation == want.derivation
    assert got.final_dsequents == want.final_dsequents
    assert got.steps <= want.steps
    return run.reused


def test_reused_models_match_probes_on_diameter_runs():
    # The criterion-6 corpus: its first 20 systems, k = 1..5.
    rng = random.Random(606)
    reused = 0
    for _ in range(20):
        ts = random_transition_system(rng)
        for k in range(1, 6):
            u = unroll(ts, k, duplicate_init=True)
            reused += _assert_models_reused_exactly(
                PqeProblem(u.problem, tuple(u.init_targets))
            )
    assert reused > 100


def test_reused_models_match_probes_on_few_free_instances():
    rng = random.Random(1212)
    reused = sum(_assert_models_reused_exactly(_few_free_3sat(rng)) for _ in range(40))
    assert reused > 20


def test_a_model_falsified_by_a_later_clause_is_probed_again(monkeypatch):
    # Every clause a run adds is implied by the live formula, so no run
    # falsifies a stored model; this state is built by hand.  At 1=0, 2=1
    # the formula has the model 3=1.
    pq = _instance([[1, 3], [-3, 2]], {3}, (0,))
    engine = pqe._Engine(pq, STEP_LIMIT)
    cube = [(1, False), (2, True)]
    assert engine.project_out_remaining(cube, 0).rationale == "sat"
    assert (False, True) in engine.models
    probes = []
    real = pqe.probe
    monkeypatch.setattr(pqe, "probe", lambda *a: probes.append(a) or real(*a))
    assert engine.project_out_remaining(cube, 0).rationale == "sat"
    assert probes == []
    # A clause the cube falsifies leaves the stored model behind.
    engine._add_clause(Clause([1, -2]))
    d = engine.project_out_remaining(cube, 0)
    assert d.rationale == "conflict"
    assert probes
    assert engine.derivation[-1]["event"] == "probe_clause"


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
        decide_redundant(PqeProblem(p, (0,)), 0)


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
