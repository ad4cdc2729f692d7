"""The enumeration oracles the rest of the suite leans on."""

import pytest

from pqesat.circuits import Gate, Netlist, TransitionSystem
from pqesat.cnf import Clause, CnfError, CnfProblem
from pqesat.oracle import (
    GuardError,
    TruthTable,
    bfs_reach,
    enum_sat,
    implies,
    qe_enum,
    verify_pqe,
)

from oracle_helpers import all_models


def test_enum_sat_first_model_is_lexicographic():
    # Variable 1 varies slowest, False before True.
    p = CnfProblem(3, [Clause([1, 2, 3])])
    assert enum_sat(p) == {1: False, 2: False, 3: True}


def test_enum_sat_total_even_for_unmentioned_variables():
    p = CnfProblem(4, [Clause([2])])
    assert enum_sat(p) == {1: False, 2: True, 3: False, 4: False}


def test_enum_sat_unsat():
    p = CnfProblem(1, [Clause([1]), Clause([-1])])
    assert enum_sat(p) is None


def test_enum_sat_guard():
    with pytest.raises(GuardError):
        enum_sat(CnfProblem(25, []))


def test_implies():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    assert implies(p, Clause([2, 3]))  # the resolvent of the two
    assert not implies(p, Clause([3]))


def test_implies_is_vacuous_for_unsat_formulas():
    p = CnfProblem(2, [Clause([1]), Clause([-1])])
    assert implies(p, Clause([2]))


def test_qe_enum_projects_out_the_quantified_block():
    # With 2 gone, (1 or 2) and (-2 or 3) admits exactly "1 or 3".
    p = CnfProblem(
        3, [Clause([1, 2]), Clause([-2, 3])], quantified=frozenset({2})
    )
    table = qe_enum(p)
    assert table.variables == (1, 3)
    assert table.rows == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_qe_enum_matches_direct_projection():
    p = CnfProblem(
        4,
        [Clause([1, -3]), Clause([3, 4]), Clause([-4, 2, 3])],
        quantified=frozenset({3, 4}),
    )
    table = qe_enum(p)
    wanted = {
        tuple(int(m[v]) for v in table.variables) for m in all_models(p)
    }
    assert {row for row, val in table.rows.items() if val} == wanted


def test_qe_enum_guard():
    with pytest.raises(GuardError):
        qe_enum(CnfProblem(34, [], quantified=frozenset(range(1, 18))))


def test_truth_table_equality_includes_variable_order():
    a = TruthTable((1,), {(0,): 1, (1,): 0})
    b = TruthTable((2,), {(0,): 1, (1,): 0})
    assert a != b
    assert a == TruthTable((1,), {(0,): 1, (1,): 0})


def test_verify_pqe_accepts_a_correct_answer():
    # Taking out (1 or 2) from exists 2 . (1 or 2) and (-2): the models
    # over 1 drop to just 1=1, so the unit clause 1 restores them.
    p = CnfProblem(2, [Clause([1, 2]), Clause([-2])], frozenset({2}))
    assert verify_pqe(p, [0], [Clause([1])])
    assert not verify_pqe(p, [0], [])


def test_verify_pqe_rejects_targets_that_name_no_clause():
    p = CnfProblem(2, [Clause([1, 2]), Clause([-2])], frozenset({2}))
    for bad in ([7], [-1], [0, 2]):
        with pytest.raises(CnfError, match="out of range"):
            verify_pqe(p, bad, [])


def test_verify_pqe_rejects_quantified_solution_clauses():
    p = CnfProblem(2, [Clause([1, 2])], frozenset({2}))
    with pytest.raises(CnfError):
        verify_pqe(p, [0], [Clause([2])])


def _toggle_system() -> TransitionSystem:
    # One bit, flipped every step, starting at 0.
    trans = Netlist(
        ["s_1"],
        [Gate("next_1", "NOT", ("s_1",))],
        ["next_1"],
    )
    return TransitionSystem(CnfProblem(1, [Clause([-1])]), trans)


def test_bfs_reach_step_by_step():
    ts = _toggle_system()
    assert bfs_reach(ts, 0) == {(0,)}
    assert bfs_reach(ts, 1) == {(0,), (1,)}
    assert bfs_reach(ts, 2) == {(0,), (1,)}


def test_bfs_reach_free_inputs_are_nondeterministic():
    # next bit = s XOR u with u unconstrained: both successors exist.
    trans = Netlist(
        ["s_1", "u"],
        [Gate("next_1", "XOR", ("s_1", "u"))],
        ["next_1"],
    )
    ts = TransitionSystem(CnfProblem(1, [Clause([-1])]), trans)
    assert bfs_reach(ts, 1) == {(0,), (1,)}


def test_bfs_reach_guard():
    trans = Netlist(
        [f"s_{i}" for i in range(1, 14)],
        [Gate(f"next_{i}", "NOT", (f"s_{i}",)) for i in range(1, 14)],
        [f"next_{i}" for i in range(1, 14)],
    )
    ts = TransitionSystem(CnfProblem(13, []), trans)
    with pytest.raises(GuardError):
        bfs_reach(ts, 1)
