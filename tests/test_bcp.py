"""Unit propagation and conflict analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqesat.bcp import analyze_conflict, propagate, resolve_to_base
from pqesat.cnf import Assignment, Binding, Clause, CnfProblem, resolve
from pqesat.oracle import implies


def test_propagate_unit_chain():
    p = CnfProblem(3, [Clause([1]), Clause([-1, 2]), Clause([-2, 3])])
    res = propagate(p, [], Assignment(), [])
    assert not res.is_conflict
    assert res.trail.items() == [(1, True), (2, True), (3, True)]
    assert [b.decision for b in res.trail.bindings] == [False, False, False]
    assert res.trail.bindings[1].reason is p.clauses[1]


def test_propagate_leaves_base_untouched():
    base = Assignment([Binding(5, True)])
    p = CnfProblem(5, [Clause([-5, 1])])
    res = propagate(p, [], base, [])
    assert len(base) == 1
    assert res.base_len == 1
    assert res.trail.items() == [(5, True), (1, True)]


def test_propagate_decisions_then_conflict():
    p = CnfProblem(2, [Clause([1, 2])])
    res = propagate(p, [], Assignment(), [(1, False), (2, False)])
    assert res.is_conflict
    assert res.conflict is p.clauses[0]


def test_propagate_scans_formula_before_learned():
    p = CnfProblem(2, [Clause([-1, 2])])
    learned = [Clause([2])]
    res = propagate(p, [], Assignment(), [(1, True)])
    assert res.trail.bindings[-1].reason is p.clauses[0]
    res = propagate(p, learned, Assignment(), [])
    assert res.trail.bindings[-1].reason is learned[0]


def test_propagate_falsified_clause_beats_an_earlier_unit():
    # After 1=True the first clause is unit and the second falsified; the
    # conflict wins even though the unit comes first in scan order.
    p = CnfProblem(2, [Clause([-1, 2]), Clause([-1])])
    res = propagate(p, [], Assignment(), [(1, True)])
    assert res.conflict is p.clauses[1]
    assert res.trail.items() == [(1, True)]


def test_propagate_satisfied_clauses_never_fire():
    # 1=True satisfies the first clause, so only the second is unit.
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    res = propagate(p, [], Assignment(), [(1, True)])
    assert res.trail.items() == [(1, True), (3, True)]


def test_propagate_skips_a_clause_that_would_be_the_conflict():
    # Both clauses are falsified; with the first skipped the second is
    # the conflict.
    p = CnfProblem(2, [Clause([-1]), Clause([-1, -2])])
    decisions = [(1, True), (2, True)]
    assert propagate(p, [], Assignment(), decisions).conflict is p.clauses[0]
    res = propagate(p, [], Assignment(), decisions, {0})
    assert res.conflict is p.clauses[1]


def test_propagate_skips_a_clause_that_would_be_the_first_unit():
    # The skipped clause never fires, so 2 stays open and the second
    # clause propagates 3.
    p = CnfProblem(3, [Clause([-1, 2]), Clause([-1, 3])])
    res = propagate(p, [], Assignment(), [(1, True)], {0})
    assert not res.is_conflict
    assert res.trail.items() == [(1, True), (3, True)]
    assert res.trail.bindings[-1].reason is p.clauses[1]


def test_propagate_no_unit_no_conflict():
    p = CnfProblem(3, [Clause([1, 2, 3])])
    res = propagate(p, [], Assignment(), [(1, False)])
    assert not res.is_conflict
    assert res.trail.items() == [(1, False)]


def test_propagate_skips_a_unit_satisfied_before_it_fires():
    # After 1=T and 2=T the first two clauses are both unit on 3.  The
    # first fires; the second is satisfied by then and must not fire
    # again, and propagation goes on to the third clause.
    p = CnfProblem(4, [Clause([-1, 3]), Clause([-2, 3]), Clause([-3, 4])])
    decisions = [(1, True), (2, True)]
    res = propagate(p, [], Assignment(), decisions)
    assert not res.is_conflict
    assert res.trail.items() == [(1, True), (2, True), (3, True), (4, True)]
    assert res.trail.bindings[2].reason is p.clauses[0]
    assert res.trail.bindings[3].reason is p.clauses[2]
    _assert_same_result(res, _scan_propagate(p, [], Assignment(), decisions))


def test_propagate_prefers_the_formula_clause_falsified_with_a_learned_one():
    # Propagating 2 falsifies the second formula clause and the learned
    # clause in one push; the formula clause comes first in scan order.
    p = CnfProblem(2, [Clause([-1, 2]), Clause([-1, -2])])
    learned = [Clause([-2, -1])]
    res = propagate(p, learned, Assignment(), [(1, True)])
    assert res.conflict is p.clauses[1]
    assert res.trail.items() == [(1, True), (2, True)]
    want = _scan_propagate(p, learned, Assignment(), [(1, True)])
    _assert_same_result(res, want)


def _scan_propagate(problem, learned, base, decisions, skip=frozenset()):
    """The plain rescan the clause counters replaced, kept as the reference.

    Every round scans all clauses in order: the first falsified one is the
    conflict, and otherwise the first unit clause fires.
    """
    trail = base.copy()
    for v, val in decisions:
        trail.push(Binding(v, val, decision=True))
    scan = [c for i, c in enumerate(problem.clauses) if i not in skip]
    scan += learned
    while True:
        unit = None
        for c in scan:
            cs = c.literal_set
            if cs <= trail.false_lits:
                return trail, len(base), c
            if unit is None and trail.true_lits.isdisjoint(cs):
                open_lits = cs - trail.false_lits
                if len(open_lits) == 1:
                    unit = (c, next(iter(open_lits)))
        if unit is None:
            return trail, len(base), None
        reason, lit = unit
        trail.push(Binding(abs(lit), lit > 0, decision=False, reason=reason))


def _assert_same_result(res, want):
    trail, base_len, conflict = want
    assert res.base_len == base_len
    assert res.conflict is conflict
    assert res.trail.items() == trail.items()
    for got, ref in zip(res.trail.bindings, trail.bindings):
        assert got.decision == ref.decision
        assert got.reason is ref.reason


def _random_clause(rng, n):
    vs = rng.sample(range(1, n + 1), min(rng.choice((1, 2, 2, 2, 3, 3, 4)), n))
    return Clause([v if rng.random() < 0.5 else -v for v in vs])


@pytest.mark.parametrize("seed", range(100))
def test_propagate_matches_the_rescan(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    clauses = [_random_clause(rng, n) for _ in range(rng.randint(0, 2 * n))]
    if rng.random() < 0.15:
        clauses.insert(rng.randint(0, len(clauses)), Clause([]))
    p = CnfProblem(n, clauses)
    learned = []
    for _ in range(rng.randint(0, n)):
        if clauses and rng.random() < 0.3:
            # A learned clause may repeat a formula clause, as the same
            # object or as an equal copy.
            c = rng.choice(clauses)
            learned.append(c if rng.random() < 0.5 else Clause(c.literals))
        else:
            learned.append(_random_clause(rng, n))
    skip = {i for i in range(len(clauses)) if rng.random() < 0.2}
    order = rng.sample(range(1, n + 1), n)
    k = rng.randint(0, n // 3)
    base = Assignment(
        [Binding(v, rng.random() < 0.5, rng.random() < 0.5) for v in order[:k]]
    )
    decisions = [(v, rng.random() < 0.5) for v in order[k : k + rng.randint(0, 4)]]
    res = propagate(p, learned, base, decisions, skip)
    _assert_same_result(res, _scan_propagate(p, learned, base, decisions, skip))


def _assert_same_counters(res, fresh):
    assert res.counted == fresh.counted
    assert res.formula_len == fresh.formula_len
    # Both dicts hold the same positions, in ascending order.
    assert list(res.open_count.items()) == list(fresh.open_count.items())
    assert list(res.open_count) == sorted(res.open_count)


def _unassigned_decisions(rng, n, trail, most):
    free = [v for v in range(1, n + 1) if not trail.is_assigned(v)]
    chosen = rng.sample(free, min(len(free), rng.randint(1, most)))
    return [(v, rng.random() < 0.5) for v in chosen]


@pytest.mark.parametrize("grow", ["learned", "formula", "both"])
@pytest.mark.parametrize("seed", range(40))
def test_carried_propagation_matches_the_rescan(seed, grow):
    """Parent -> child chains, with clauses appended between the frames.

    ``"learned"`` appends learned clauses, as the solver does under
    learn_to="P"; ``"formula"`` appends formula clauses with no learned
    ones, as under learn_to="F" or on a growing probe formula; ``"both"``
    grows both, where the child cannot carry and counts from scratch.
    Each child must match the plain rescan and, in its counters, a call
    without a parent.
    """
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    p = CnfProblem(n, [_random_clause(rng, n) for _ in range(rng.randint(n, 3 * n))])
    learned = [_random_clause(rng, n) for _ in range(rng.randint(0, n))]
    if grow == "formula":
        learned = []
    skip = frozenset(i for i in range(len(p.clauses)) if rng.random() < 0.1)
    res = propagate(p, learned, Assignment(), [], skip)
    for _ in range(6):
        if res.is_conflict:
            break
        for _ in range(rng.randint(0, 4)):
            c = _random_clause(rng, n)
            if grow != "formula" and rng.random() < 0.6:
                learned.append(rng.choice(p.clauses) if rng.random() < 0.2 else c)
            if grow != "learned":
                p.add_clause(c)
        decisions = _unassigned_decisions(rng, n, res.trail, 3)
        if not decisions:
            break
        child = propagate(p, learned, res.trail, decisions, skip, parent=res)
        want = _scan_propagate(p, learned, res.trail, decisions, skip)
        _assert_same_result(child, want)
        _assert_same_counters(
            child, propagate(p, learned, res.trail, decisions, skip)
        )
        res = child


def test_carried_propagation_leaves_the_parent_alone():
    p = CnfProblem(4, [Clause([-1, 2, 3]), Clause([-2, 4]), Clause([1, 3, 4])])
    parent = propagate(p, [], Assignment(), [])
    before = dict(parent.open_count)
    child = propagate(p, [], parent.trail, [(1, True), (3, False)], parent=parent)
    assert child.trail.items() == [(1, True), (3, False), (2, True), (4, True)]
    assert parent.open_count == before
    assert parent.trail.items() == []


def test_learned_positions_shift_when_the_formula_grows():
    # The parent counted no learned clause, so both children carry its
    # counters.  The first child indexes the learned clause at position 1;
    # after the formula grows, the second must find it at position 2.
    p = CnfProblem(4, [Clause([1, 2, 3])])
    parent = propagate(p, [], Assignment(), [])
    learned = [Clause([-4, 2])]
    propagate(p, learned, parent.trail, [(3, False)], parent=parent)
    p.add_clause(Clause([-1, 4]))
    decisions = [(1, True)]
    child = propagate(p, learned, parent.trail, decisions, parent=parent)
    assert child.trail.items() == [(1, True), (4, True), (2, True)]
    assert child.trail.bindings[-1].reason is learned[0]
    _assert_same_result(child, _scan_propagate(p, learned, parent.trail, decisions))
    _assert_same_counters(child, propagate(p, learned, parent.trail, decisions))


def test_a_conflicting_result_cannot_be_a_parent():
    p = CnfProblem(1, [Clause([1])])
    res = propagate(p, [], Assignment(), [(1, False)])
    with pytest.raises(ValueError):
        propagate(p, [], res.trail, [], parent=res)


def test_a_carried_decision_falsifies_the_first_clause_in_scan_order():
    # The learned clause and the second formula clause are open at the
    # parent; the decisions falsify both, and the formula clause wins.
    p = CnfProblem(4, [Clause([1, 4]), Clause([2, 3])])
    learned = [Clause([3, 2])]
    parent = propagate(p, learned, Assignment(), [(1, False)])
    assert list(parent.open_count) == [1, 2]
    decisions = [(3, False), (2, False)]
    child = propagate(p, learned, parent.trail, decisions, parent=parent)
    assert child.conflict is p.clauses[1]
    _assert_same_result(child, _scan_propagate(p, learned, parent.trail, decisions))


def test_analyze_conflict_resolves_out_propagated_literals():
    # Decisions 1=0, 2=0 propagate 3 (first clause) then 4 (second),
    # falsifying the third clause; resolving that clause against the
    # reason of 4 leaves a clause over the decisions alone.
    p = CnfProblem(4, [Clause([1, 2, 3]), Clause([1, 4]), Clause([2, -4])])
    res = propagate(p, [], Assignment(), [(1, False), (2, False)])
    assert res.is_conflict
    assert res.conflict is p.clauses[2]
    assert res.trail.items() == [(1, False), (2, False), (3, True), (4, True)]

    steps = []
    learned = analyze_conflict(res, steps)
    assert learned.literals == (2, 1)
    assert steps == [(p.clauses[1], 4)]
    assert res.trail.falsifies_clause(learned)


def test_analyze_conflict_without_propagated_literals():
    p = CnfProblem(2, [Clause([1, 2])])
    res = propagate(p, [], Assignment(), [(1, False), (2, False)])
    steps = []
    learned = analyze_conflict(res, steps)
    assert learned == Clause([1, 2])
    assert learned is not p.clauses[0]
    assert steps == []


def test_analyze_conflict_requires_a_conflict():
    p = CnfProblem(1, [Clause([1])])
    res = propagate(p, [], Assignment(), [])
    with pytest.raises(ValueError):
        analyze_conflict(res)


def test_resolve_to_base_peels_latest_first():
    p = CnfProblem(4, [Clause([1, 2]), Clause([-2, 3])])
    res = propagate(p, [], Assignment(), [(1, False)])
    assert res.trail.items() == [(1, False), (2, True), (3, True)]
    # -2 and -3 are falsified only through propagation; both get resolved
    # away, the later binding first.
    steps = []
    got = resolve_to_base(Clause([-2, -3]), res, steps)
    assert got.literal_set == {1}
    assert [v for _, v in steps] == [3, 2]


def test_resolve_to_base_keeps_decision_literals():
    p = CnfProblem(3, [Clause([-1, 2])])
    res = propagate(p, [], Assignment(), [(1, True)])
    got = resolve_to_base(Clause([-1, -2]), res)
    assert got.literal_set == {-1}


def _walk_resolve_to_base(clause, result, steps=None):
    """The loop the single backward walk replaced, kept as the reference.

    Each round searches from the trail's end for the latest propagated
    binding whose variable the current clause holds.
    """
    trail = result.trail
    current = clause
    while True:
        pivot = None
        lits = current.literal_set
        for i in range(len(trail.bindings) - 1, result.base_len - 1, -1):
            b = trail.bindings[i]
            if b.decision:
                continue
            if b.var in lits or -b.var in lits:
                pivot = b
                break
        if pivot is None:
            break
        current = resolve(current, pivot.reason, pivot.var)
        if steps is not None:
            steps.append((pivot.reason, pivot.var))
    return Clause(current.literals)


@pytest.mark.parametrize("seed", range(100))
def test_resolve_to_base_matches_the_restarting_walk(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    p = CnfProblem(n, [_random_clause(rng, n) for _ in range(rng.randint(n, 3 * n))])
    learned = [_random_clause(rng, n) for _ in range(rng.randint(0, n))]
    order = rng.sample(range(1, n + 1), n)
    k = rng.randint(0, n // 3)
    base = Assignment([Binding(v, rng.random() < 0.5) for v in order[:k]])
    decisions = [(v, rng.random() < 0.5) for v in order[k : k + rng.randint(0, 4)]]
    res = propagate(p, learned, base, decisions)
    # The conflict clause, when there is one, and a few clauses the trail
    # falsifies, drawn from its falsified literals.
    clauses = [res.conflict] if res.is_conflict else []
    false_lits = sorted(res.trail.false_lits)
    for _ in range(3):
        if false_lits:
            clauses.append(Clause(rng.sample(false_lits, rng.randint(1, len(false_lits)))))
    for c in clauses:
        got_steps, want_steps = [], []
        got = resolve_to_base(c, res, got_steps)
        want = _walk_resolve_to_base(c, res, want_steps)
        assert got.literals == want.literals
        assert got_steps == want_steps


@st.composite
def _conflicts(draw):
    """A formula, learned clauses, base and decisions whose propagation conflicts."""
    n = draw(st.integers(2, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lit, min_size=1, max_size=3).filter(
        lambda ls: not any(-x in ls for x in ls)
    ).map(Clause)
    clauses = draw(st.lists(clause, min_size=1, max_size=3 * n))
    learned = draw(st.lists(clause, max_size=n))
    order = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    d = draw(st.integers(0, n - k))
    base = Assignment([Binding(v, values[i]) for i, v in enumerate(order[:k])])
    decisions = [(v, values[k + i]) for i, v in enumerate(order[k : k + d])]
    return CnfProblem(n, clauses), learned, base, decisions


@settings(max_examples=300, deadline=None)
@given(_conflicts())
def test_resolve_to_base_properties(case):
    p, learned, base, decisions = case
    res = propagate(p, learned, base, decisions)
    if not res.is_conflict:
        return
    got = analyze_conflict(res)
    context = res.trail.bindings[: res.base_len + len(decisions)]
    # Falsified by the base plus this call's decisions.
    assert got.literal_set <= Assignment(context).false_lits
    propagated = {b.var for b in res.trail.bindings[res.base_len :] if not b.decision}
    assert not any(abs(lit) in propagated for lit in got)
    # Implied by the formula plus the learned clauses: every reason is one.
    assert implies(CnfProblem(p.var_count, [*p.clauses, *learned]), got)
