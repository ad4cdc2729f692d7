"""The four applications built on top of clause extraction."""

import random

import pytest

from pqesat import apps
from pqesat.apps import (
    AppError,
    EqCheckInstance,
    InterpolationInstance,
    diameter_lt,
    eq_check,
    interpolate,
    prop_gen,
)
from pqesat.circuits import (
    Gate,
    Netlist,
    TransitionSystem,
    add_stutter,
    parse_netlist,
    tseitin_encode,
)
from pqesat.cnf import Clause, CnfProblem
from pqesat.fuzzing import random_interp_split, random_transition_system
from pqesat.oracle import bfs_reach, enum_sat, implies
from pqesat.pqe import PqeConfig, StepLimitError

from oracle_helpers import extension_holds, projected_models


# ---------------------------------------------------------------------------
# Reachability diameter.
# ---------------------------------------------------------------------------


def _counter() -> TransitionSystem:
    # Two bits counting 00, 01, 10, 11 and wrapping; s_1 is the high bit.
    trans = Netlist(
        ["s_1", "s_2"],
        [
            Gate("next_2", "NOT", ("s_2",)),
            Gate("next_1", "XOR", ("s_1", "s_2")),
        ],
        ["next_1", "next_2"],
    )
    return TransitionSystem(
        2, CnfProblem(2, [Clause([-1]), Clause([-2])]), trans
    )


def test_diameter_of_the_two_bit_counter():
    # From 00 the counter needs three steps to see all four states, so
    # the reach sets first stabilize at k=3 vs k=4.
    ts = add_stutter(_counter())
    assert not diameter_lt(ts, 1)
    assert not diameter_lt(ts, 2)
    assert not diameter_lt(ts, 3)
    assert diameter_lt(ts, 4)
    assert diameter_lt(ts, 5)


def test_diameter_matches_the_reach_oracle():
    ts = add_stutter(_counter())
    for k in (1, 2, 3, 4, 5):
        assert diameter_lt(ts, k) == (bfs_reach(ts, k - 1) == bfs_reach(ts, k))


def test_diameter_matches_breadth_first_search_on_fresh_systems():
    # Diameter queries reach the PQE engine's cube probe far more often
    # than random take_out draws, so they get a seed of their own.
    rng = random.Random(1107)
    for _ in range(10):
        system = random_transition_system(rng)
        for k in range(1, 6):
            want = bfs_reach(system, k - 1) == bfs_reach(system, k)
            assert diameter_lt(system, k) == want


def test_diameter_of_a_toggle():
    trans = Netlist(["s_1"], [Gate("next_1", "NOT", ("s_1",))], ["next_1"])
    ts = add_stutter(TransitionSystem(1, CnfProblem(1, [Clause([-1])]), trans))
    assert not diameter_lt(ts, 1)
    assert diameter_lt(ts, 2)


def test_diameter_needs_a_positive_bound():
    with pytest.raises(AppError):
        diameter_lt(add_stutter(_counter()), 0)


# ---------------------------------------------------------------------------
# Interpolation.
# ---------------------------------------------------------------------------


def test_instance_validates_the_shared_set():
    a = CnfProblem(3, [Clause([1, 2])])
    b = CnfProblem(3, [Clause([2, 3])])
    with pytest.raises(AppError):
        InterpolationInstance(a, b, frozenset({3}))
    with pytest.raises(AppError):
        InterpolationInstance(
            CnfProblem(3, [Clause([1, 2])], frozenset({1})), b, frozenset({2})
        )


def test_refuted_conjunction_collapses_to_the_empty_clause():
    # A forces 2, B forbids it.  The candidate is the strongest possible
    # statement; A alone does not imply it, so it is not an interpolant.
    a = CnfProblem(2, [Clause([1]), Clause([-1, 2])])
    b = CnfProblem(2, [Clause([-2])])
    inst = InterpolationInstance(a, b, frozenset({2}))
    res = interpolate(inst)
    assert res.status == "candidate_only"
    assert res.candidate == [Clause([])]
    assert extension_holds(inst, res.candidate)


def test_quantifier_free_a_clauses_pass_through():
    # Both of A's clauses mention only the shared variable, so they move
    # into the candidate verbatim; with A unsatisfiable each is
    # (vacuously) implied by it, making the pair an interpolant.
    a = CnfProblem(2, [Clause([1]), Clause([-1])])
    b = CnfProblem(2, [Clause([1, 2])])
    inst = InterpolationInstance(a, b, frozenset({1}))
    res = interpolate(inst)
    assert res.status == "interpolant"
    assert res.candidate == [Clause([1]), Clause([-1])]
    assert extension_holds(inst, res.candidate)


def test_interpolant_over_shared_variables():
    # A's private variable 1 and B's private variable 5 drop out; what
    # remains of A is its shared-variable content, implied by A itself.
    a = CnfProblem(5, [Clause([2]), Clause([3, -2]), Clause([1, -3])])
    b = CnfProblem(
        5,
        [
            Clause([3, 2, 5]),
            Clause([3, 5, -2]),
            Clause([3]),
            Clause([2, -5, 3]),
        ],
    )
    inst = InterpolationInstance(a, b, frozenset({2, 3}))
    res = interpolate(inst)
    assert res.status == "interpolant"
    assert [list(c.literals) for c in res.candidate] == [[2], [3, -2]]
    for c in res.candidate:
        assert c.variables() <= inst.shared
        assert implies(a, c)
    assert extension_holds(inst, res.candidate)


def test_candidate_can_lean_on_b():
    # The unit clause 5 follows from A with B but not from A alone.
    a = CnfProblem(
        8,
        [
            Clause([1, 6, -4]),
            Clause([1, -6, 7]),
            Clause([-4, 3]),
            Clause([6, 1, 5]),
            Clause([-5, 1, -7]),
            Clause([-2]),
            Clause([3, 7, -4]),
            Clause([-1]),
        ],
    )
    b = CnfProblem(8, [Clause([-6]), Clause([5, 8])])
    inst = InterpolationInstance(a, b, frozenset({5, 6}))
    res = interpolate(inst)
    assert res.status == "candidate_only"
    assert [list(c.literals) for c in res.candidate] == [[5]]
    assert not implies(a, res.candidate[0])
    assert extension_holds(inst, res.candidate)


def test_interpolant_status_holds_beyond_the_enumeration_guard():
    # Variables are numbered up to 26, past the enumeration oracle's 24;
    # the status comes from solver probes, so the size does not matter.
    a = CnfProblem(26, [Clause([1]), Clause([-1, 2])])
    b = CnfProblem(26, [Clause([-2, 26])])
    res = interpolate(InterpolationInstance(a, b, frozenset({2})))
    assert res.status == "interpolant"
    assert res.candidate == [Clause([2])]


def test_interpolation_random_splits_keep_the_extension_property():
    rng = random.Random(7)
    done = 0
    while done < 25:
        inst = random_interp_split(rng, max_vars=9)
        if inst is None:
            continue
        res = interpolate(inst)
        assert res.status in ("interpolant", "candidate_only")
        for c in res.candidate:
            assert c.variables() <= inst.shared
        assert extension_holds(inst, res.candidate)
        done += 1


# ---------------------------------------------------------------------------
# Equivalence checking.
# ---------------------------------------------------------------------------

AND_DIRECT = Netlist(["a", "b"], [Gate("z", "AND", ("a", "b"))], ["z"])

AND_VIA_OR = parse_netlist(
    """\
input x
input y
gate nx = NOT(x)
gate ny = NOT(y)
gate either = OR(nx, ny)
gate z = NOT(either)
output z
"""
)

OR_DIRECT = Netlist(["a", "b"], [Gate("z", "OR", ("a", "b"))], ["z"])


def test_eq_check_positive():
    res = eq_check(EqCheckInstance(AND_DIRECT, AND_VIA_OR))
    assert res.verdict == "equivalent"
    assert res.witness is None
    assert res.constant is None


def test_eq_check_negative_with_witness():
    res = eq_check(EqCheckInstance(AND_DIRECT, OR_DIRECT))
    assert res.verdict == "inequivalent"
    assert set(res.witness) == {"a", "b"}
    vector = [res.witness[name] for name in AND_DIRECT.inputs]
    got1 = AND_DIRECT.output_values(dict(zip(AND_DIRECT.inputs, vector)))
    got2 = OR_DIRECT.output_values(dict(zip(OR_DIRECT.inputs, vector)))
    assert got1 != got2


def test_eq_check_flags_constant_circuits():
    const0 = Netlist(
        ["a"],
        [Gate("na", "NOT", ("a",)), Gate("z", "AND", ("a", "na"))],
        ["z"],
    )
    plain = Netlist(["a"], [Gate("z", "AND", ("a", "a"))], ["z"])
    res = eq_check(EqCheckInstance(plain, const0))
    assert res.verdict == "constant_circuit"
    assert res.constant == "m2 is constant 0"


def test_eq_check_encodes_each_circuit_once(monkeypatch):
    encoded = []

    def counting(nl):
        encoded.append(nl)
        return tseitin_encode(nl)

    monkeypatch.setattr(apps, "tseitin_encode", counting)
    res = eq_check(EqCheckInstance(AND_DIRECT, OR_DIRECT))
    assert res.verdict == "inequivalent"
    assert len(encoded) == 2
    assert encoded[0] is AND_DIRECT and encoded[1] is OR_DIRECT


def test_eq_check_constant_probe_respects_the_step_limit():
    with pytest.raises(StepLimitError, match="constant probe of the m1 circuit"):
        eq_check(EqCheckInstance(AND_DIRECT, OR_DIRECT), PqeConfig(step_limit=0))


def test_eq_check_validates_shapes():
    two_out = Netlist(
        ["a"], [Gate("z", "NOT", ("a",)), Gate("w", "NOT", ("z",))], ["z", "w"]
    )
    with pytest.raises(AppError):
        EqCheckInstance(two_out, AND_DIRECT)
    one_in = Netlist(["a"], [Gate("z", "AND", ("a", "a"))], ["z"])
    with pytest.raises(AppError):
        EqCheckInstance(AND_DIRECT, one_in)


# ---------------------------------------------------------------------------
# Property generation.
# ---------------------------------------------------------------------------

COMPARATOR = parse_netlist(
    """\
input a
input b
gate eq = XOR(a, b)
gate z = NOT(eq)
output z
"""
)


def test_prop_gen_produces_implied_clauses():
    res = prop_gen(COMPARATOR)
    assert [list(c.literals) for c in res.properties] == [[4, -1, -2]]
    assert sorted(res.problem.quantified) == [3]
    for c in res.properties:
        assert implies(res.problem, c)
        assert not c.variables() & res.problem.quantified


def test_prop_gen_with_a_quantified_input():
    res = prop_gen(COMPARATOR, quantified_inputs=frozenset({"a"}))
    assert sorted(res.problem.quantified) == [1, 3]
    assert res.properties == []


def test_prop_gen_validates_arguments():
    with pytest.raises(AppError):
        prop_gen(COMPARATOR, quantified_inputs=frozenset({"missing"}))
    with pytest.raises(AppError):
        prop_gen(COMPARATOR, target=40)
    # A single-gate circuit quantifies nothing (its only gate is the
    # output), so no target clause has anything to eliminate.
    nl = Netlist(["a", "b"], [Gate("z", "AND", ("a", "b"))], ["z"])
    with pytest.raises(AppError):
        prop_gen(nl, target=0)
