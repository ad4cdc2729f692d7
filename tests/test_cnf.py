"""Clause, formula, assignment, and DIMACS behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqesat.cnf import (
    Assignment,
    Binding,
    Clause,
    CnfError,
    CnfProblem,
    ResolutionError,
    cluster_of,
    format_dimacs,
    is_blocked,
    parse_dimacs,
    resolve,
)


def test_clause_keeps_first_occurrence_order():
    c = Clause([3, -1, 3, 2])
    assert c.literals == (3, -1, 2)
    assert c.literal_set == frozenset({3, -1, 2})


def test_clause_equality_ignores_order():
    assert Clause([1, 2]) == Clause([2, 1])
    assert hash(Clause([1, 2])) == hash(Clause([2, 1]))
    assert Clause([1, 2]) != Clause([1, -2])


def test_clause_rejects_tautology_and_zero():
    with pytest.raises(CnfError):
        Clause([1, -1])
    with pytest.raises(CnfError):
        Clause([1, 0])


def test_clause_rejects_bool_literals():
    # True == 1, but it would print as "True" and break the DIMACS round trip.
    with pytest.raises(CnfError, match="bad literal True"):
        Clause([True])


def test_empty_clause():
    c = Clause([])
    assert c.is_empty()
    assert len(c) == 0


def test_problem_checks_variable_range():
    with pytest.raises(CnfError):
        CnfProblem(2, [Clause([3])])
    with pytest.raises(CnfError):
        CnfProblem(2, [], quantified=frozenset({5}))


# Like bool literals, these would print as "True" or "2.0" and break the
# DIMACS round trip.


@pytest.mark.parametrize("var_count", [True, 2.0])
def test_problem_rejects_a_var_count_that_is_not_an_int(var_count):
    with pytest.raises(CnfError, match=f"var_count {var_count!r} is not"):
        CnfProblem(var_count, [Clause([1])])


def test_problem_rejects_a_bool_quantified_variable():
    with pytest.raises(CnfError, match="quantified variable True"):
        CnfProblem(2, [Clause([1])], quantified=frozenset({True}))


def test_problem_rejects_a_missing_var_count_with_its_own_error():
    with pytest.raises(CnfError, match="var_count None"):
        CnfProblem(None, [])


def test_free_vars():
    p = CnfProblem(4, [], frozenset({2, 4}))
    assert p.free_vars == frozenset({1, 3})


def test_add_clause_returns_index():
    p = CnfProblem(2, [Clause([1])])
    assert p.add_clause(Clause([2])) == 1
    assert p.clauses[1] == Clause([2])
    with pytest.raises(CnfError):
        p.add_clause(Clause([3]))


def test_assignment_trail_order_and_lookup():
    a = Assignment([Binding(2, True), Binding(1, False)])
    assert a.items() == [(2, True), (1, False)]
    assert a.value(2) is True
    assert a.value(3) is None
    assert -2 in a.false_lits
    assert a.first_true_literal(Clause([-1, 2])) == 2
    with pytest.raises(CnfError):
        a.push(Binding(2, False))


def test_first_true_literal_follows_the_trail():
    a = Assignment([Binding(3, False), Binding(1, True), Binding(2, True)])
    assert a.first_true_literal(Clause([2, 1])) == 1
    assert a.first_true_literal(Clause([2, -3])) == -3
    assert a.first_true_literal(Clause([-1, 3, 4])) is None
    assert a.first_true_literal(Clause([])) is None


def test_assignment_clause_tests():
    a = Assignment([Binding(1, False), Binding(2, False)])
    assert a.falsifies_clause(Clause([1, 2]))
    assert not a.falsifies_clause(Clause([1, 3]))
    assert a.satisfies_clause(Clause([-1, 5]))


def test_assignment_copy_is_independent():
    a = Assignment([Binding(1, True)])
    b = a.copy()
    b.push(Binding(2, False))
    assert len(a) == 1
    assert len(b) == 2
    assert not a.is_assigned(2)
    assert 2 not in a.false_lits
    assert 2 in b.false_lits


DIMACS = """\
c comment line
p cnf 4 3
e 1 3 0
-1 3 0
2 1 0
4 -3 0
"""


def test_parse_dimacs():
    p = parse_dimacs(DIMACS)
    assert p.var_count == 4
    assert p.quantified == frozenset({1, 3})
    assert [c.literals for c in p.clauses] == [(-1, 3), (2, 1), (4, -3)]


def test_parse_dimacs_clause_may_span_lines():
    p = parse_dimacs("p cnf 3 2\n1 2\n3 0 -1 0\n")
    assert [c.literals for c in p.clauses] == [(1, 2, 3), (-1,)]


def test_parse_dimacs_errors():
    with pytest.raises(CnfError):
        parse_dimacs("1 2 0\n")  # clause data before the problem line
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # clause count mismatch
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # literal out of range
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 1\n1 0\ne 1 0\n")  # quantifier after clauses
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 0\ne 1 0\ne 2 0\n")  # duplicate quantifier line
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 0\ne 1\n")  # missing terminator
    with pytest.raises(CnfError, match="line 2: duplicate problem line"):
        parse_dimacs("p cnf 2 0\np cnf 2 0\n")
    with pytest.raises(CnfError, match="line 1: malformed problem line"):
        parse_dimacs("p cnf 2\n")  # wrong field count
    with pytest.raises(CnfError, match="line 1: malformed problem line"):
        parse_dimacs("p cnf two 0\n")  # non-integer count
    with pytest.raises(CnfError, match="line 2: bad token 'x'"):
        parse_dimacs("p cnf 2 0\ne x 0\n")
    with pytest.raises(CnfError, match="line 2: quantified variable 3 out of range"):
        parse_dimacs("p cnf 2 0\ne 3 0\n")
    with pytest.raises(CnfError, match="line 2: bad token '1x'"):
        parse_dimacs("p cnf 2 1\n1x 2 0\n")
    with pytest.raises(CnfError, match="line 3: tautological clause"):
        parse_dimacs("p cnf 2 2\n1 2 0\n1 -1 0\n")
    with pytest.raises(CnfError, match="missing problem line"):
        parse_dimacs("c a comment and nothing else\n")


def test_format_round_trip():
    p = parse_dimacs(DIMACS)
    again = parse_dimacs(format_dimacs(p))
    assert again.var_count == p.var_count
    assert again.quantified == p.quantified
    assert again.clauses == p.clauses


def test_resolve():
    got = resolve(Clause([2, -4]), Clause([1, 4]), 4)
    assert got.literals == (2, 1)


def test_resolve_rejects_bad_pivots():
    with pytest.raises(ResolutionError):
        resolve(Clause([1, 2]), Clause([-1, -2]), 1)  # two clashes
    with pytest.raises(ResolutionError):
        resolve(Clause([1, 2]), Clause([1, 3]), 1)  # no clash


def test_is_blocked():
    # Both partners on the opposite literal of variable 1 clash with the
    # clause on variable 2 as well, so every resolvent on 1 is a tautology.
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, -2]), Clause([-1, -2, 3])])
    assert is_blocked(p, p.clauses[0], 1)
    q = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    assert not is_blocked(q, q.clauses[0], 1)


def test_is_blocked_skip_indices():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    assert is_blocked(p, p.clauses[0], 1, skip_indices=frozenset({1}))


def test_is_blocked_needs_a_literal_of_the_variable():
    p = CnfProblem(3, [Clause([1, 2])])
    with pytest.raises(CnfError):
        is_blocked(p, p.clauses[0], 3)


def test_cluster_collects_identical_literal_sharers():
    p = CnfProblem(
        9,
        [
            Clause([1, 2]),
            Clause([1, -7, 9]),
            Clause([1, -3]),
            Clause([2, 5, 6]),
            Clause([-1, 4]),  # opposite polarity only: stays out
            Clause([-2, 7]),
            Clause([5, 8]),
        ],
    )
    assert cluster_of(p, 0) == [0, 1, 2, 3]


def test_cluster_seed_comes_first():
    p = CnfProblem(3, [Clause([1]), Clause([1, 2]), Clause([2, 3])])
    assert cluster_of(p, 1) == [1, 0, 2]


def test_adding_a_clause_drops_the_cluster_memo():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    assert cluster_of(p, 0) == [0]
    assert p.add_clause(Clause([2, 3])) == 2
    assert cluster_of(p, 0) == [0, 2]


def test_a_copy_keeps_its_own_cluster_memo():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    assert cluster_of(p, 0) == [0]
    q = p.copy()
    q.add_clause(Clause([1]))
    assert cluster_of(q, 0) == [0, 2]
    # Neither the copy's growth nor its clusters reach the original.
    assert cluster_of(p, 0) == [0]
    p.add_clause(Clause([2, 3]))
    assert cluster_of(p, 0) == [0, 2]


def _scan_cluster(problem, index):
    """The plain scan the occurrence index replaced, kept as the reference."""
    seed = problem.clauses[index]
    members = [index]
    for i, other in enumerate(problem.clauses):
        if i == index:
            continue
        if seed.literal_set & other.literal_set:
            members.append(i)
    return members


_N = 6
_clauses = st.lists(
    st.sets(st.integers(1, _N), max_size=4).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in sorted(vs)])
    ),
    max_size=12,
)


def _assert_index_matches_clauses(p):
    for lit in [*range(-_N, 0), *range(1, _N + 1)]:
        want = [j for j, c in enumerate(p.clauses) if lit in c.literal_set]
        assert p.occurrences(lit) == want
    for i in range(len(p.clauses)):
        assert cluster_of(p, i) == _scan_cluster(p, i)
    # Each clause filed once, under its least literal, the empty one under 0.
    least = {}
    for j, c in enumerate(p.clauses):
        least.setdefault(min(c.literals, default=0), []).append(j)
    assert p.least_literal_index() == least


@settings(max_examples=60, deadline=None)
@given(_clauses, _clauses, _clauses)
def test_occurrence_index_tracks_added_clauses_and_copies(base, added, copy_added):
    p = CnfProblem(_N, [Clause(c) for c in base])
    _assert_index_matches_clauses(p)
    for c in added:
        p.add_clause(Clause(c))
    _assert_index_matches_clauses(p)
    before = {lit: list(p.occurrences(lit)) for lit in range(-_N, _N + 1)}
    q = p.copy()
    for c in copy_added:
        q.add_clause(Clause(c))
    _assert_index_matches_clauses(q)
    _assert_index_matches_clauses(p)
    assert {lit: p.occurrences(lit) for lit in range(-_N, _N + 1)} == before
