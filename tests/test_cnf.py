"""Clause, formula, assignment, and DIMACS behavior."""

import pytest

from pqesat.cnf import (
    Assignment,
    Binding,
    Clause,
    CnfError,
    CnfProblem,
    ResolutionError,
    cluster_of,
    cofactor_clause,
    cofactor_formula,
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


def test_clause_origin_is_bookkeeping_only():
    assert Clause([1], "learned") == Clause([1], "input")


def test_clause_rejects_tautology_and_zero():
    with pytest.raises(CnfError):
        Clause([1, -1])
    with pytest.raises(CnfError):
        Clause([1, 0])


def test_empty_clause():
    c = Clause([])
    assert c.is_empty()
    assert len(c) == 0


def test_problem_checks_variable_range():
    with pytest.raises(CnfError):
        CnfProblem(2, [Clause([3])])
    with pytest.raises(CnfError):
        CnfProblem(2, [], quantified=frozenset({5}))


def test_free_vars():
    p = CnfProblem(4, [], frozenset({2, 4}))
    assert p.free_vars == frozenset({1, 3})
    assert p.is_quantified(2)
    assert not p.is_quantified(1)


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
    assert a.satisfies_literal(2)
    assert a.falsifies_literal(-2)
    assert a.position(1) == 1
    with pytest.raises(CnfError):
        a.push(Binding(2, False))


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
    assert not a.falsifies_literal(2)
    assert b.falsifies_literal(2)


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


def test_format_round_trip():
    p = parse_dimacs(DIMACS)
    again = parse_dimacs(format_dimacs(p))
    assert again.var_count == p.var_count
    assert again.quantified == p.quantified
    assert again.clauses == p.clauses


def test_resolve():
    got = resolve(Clause([2, -4]), Clause([1, 4]), 4)
    assert got.literals == (2, 1)
    assert got.origin == "learned"


def test_resolve_rejects_bad_pivots():
    with pytest.raises(ResolutionError):
        resolve(Clause([1, 2]), Clause([-1, -2]), 1)  # two clashes
    with pytest.raises(ResolutionError):
        resolve(Clause([1, 2]), Clause([1, 3]), 1)  # no clash


def test_cofactor_clause():
    a = Assignment([Binding(1, False)])
    assert cofactor_clause(Clause([1, 2]), a).literals == (2,)
    assert cofactor_clause(Clause([-1, 2]), a) is None


def test_cofactor_formula():
    p = CnfProblem(
        3,
        [Clause([1, 2]), Clause([-1, 3]), Clause([2, 3])],
        frozenset({1, 2}),
    )
    a = Assignment([Binding(1, False)])
    got = cofactor_formula(p, a)
    assert [c.literals for c in got.clauses] == [(2,), (2, 3)]
    assert got.quantified == frozenset({2})


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
    assert cluster_of(p, 0, skip_indices=frozenset({2})) == [0, 1, 3]


def test_cluster_seed_comes_first():
    p = CnfProblem(3, [Clause([1]), Clause([1, 2]), Clause([2, 3])])
    assert cluster_of(p, 1) == [1, 0, 2]
