"""Netlists, their CNF encodings, transition systems, and unrollings."""

import itertools

import pytest

from pqesat.circuits import (
    CircuitError,
    Gate,
    Netlist,
    TransitionSystem,
    Unrolling,
    add_stutter,
    format_netlist,
    next_state,
    parse_netlist,
    tseitin_encode,
    unroll,
)
from pqesat.cnf import Clause, CnfProblem
from pqesat.oracle import bfs_reach

from oracle_helpers import all_models, final_frame_states


def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate("z", "NAND", ("a", "b"))
    with pytest.raises(CircuitError):
        Gate("z", "NOT", ("a", "b"))
    with pytest.raises(CircuitError):
        Gate("z", "AND", ("a",))
    with pytest.raises(CircuitError):
        Gate("z", "XOR", ("a", "a"))
    assert Gate("z", "AND", ("a", "a")).operands == ("a", "a")


def test_netlist_validation():
    with pytest.raises(CircuitError):
        Netlist(["a", "a"], [], [])
    with pytest.raises(CircuitError):
        Netlist(["a"], [Gate("z", "NOT", ("b",))], ["z"])
    with pytest.raises(CircuitError):
        Netlist(["a"], [], ["z"])
    with pytest.raises(CircuitError):
        Netlist(["a"], [Gate("z", "NOT", ("a",))], ["z", "z"])
    with pytest.raises(CircuitError):  # gates must come in definition order
        Netlist(["a"], [Gate("y", "NOT", ("z",)), Gate("z", "NOT", ("a",))], ["z"])


def test_simulate():
    nl = Netlist(
        ["a", "b"],
        [
            Gate("nb", "NOT", ("b",)),
            Gate("z", "AND", ("a", "nb")),
            Gate("w", "XOR", ("z", "b")),
        ],
        ["z", "w"],
    )
    assert nl.output_values({"a": True, "b": False}) == (True, True)
    assert nl.output_values({"a": True, "b": True}) == (False, True)
    with pytest.raises(CircuitError):
        nl.simulate({"a": True})


NETLIST_TEXT = """\
# a one-bit comparator
input a
input b
gate eq = XOR(a, b)
gate z = NOT(eq)
output z
"""


def test_parse_netlist():
    nl = parse_netlist(NETLIST_TEXT)
    assert nl.inputs == ["a", "b"]
    assert [g.name for g in nl.gates] == ["eq", "z"]
    assert nl.outputs == ["z"]
    assert nl.output_values({"a": True, "b": True}) == (True,)


def test_parse_netlist_errors():
    with pytest.raises(CircuitError):
        parse_netlist("inputs a\n")
    with pytest.raises(CircuitError):
        parse_netlist("input a\ngate z = NOT a\noutput z\n")
    with pytest.raises(CircuitError):
        parse_netlist("input a\noutput b\n")


def test_format_netlist_round_trips():
    nl = parse_netlist(NETLIST_TEXT)
    assert parse_netlist(format_netlist(nl)) == nl


def test_tseitin_numbers_signals_in_declaration_order():
    nl = parse_netlist(NETLIST_TEXT)
    problem, vmap = tseitin_encode(nl)
    assert problem.var_count == 4
    assert vmap.var_of == {"a": 1, "b": 2, "eq": 3, "z": 4}
    assert vmap.inputs == [1, 2]
    assert vmap.internal == [3]
    assert vmap.outputs == [4]
    assert problem.quantified == frozenset()


def test_tseitin_clause_shape_is_stable():
    nl = Netlist(["a", "b"], [Gate("z", "AND", ("a", "b"))], ["z"])
    problem, _ = tseitin_encode(nl)
    assert [list(c.literals) for c in problem.clauses] == [
        [-1, -2, 3],
        [1, -3],
        [2, -3],
    ]


def test_tseitin_models_are_exactly_the_executions():
    nl = parse_netlist(NETLIST_TEXT)
    problem, vmap = tseitin_encode(nl)
    models = all_models(problem)
    assert len(models) == 2 ** len(nl.inputs)
    for m in models:
        values = nl.simulate({name: m[v] for name, v in zip(nl.inputs, vmap.inputs)})
        for name, v in vmap.var_of.items():
            assert m[v] == values[name]


def _toggle() -> TransitionSystem:
    trans = Netlist(["s_1"], [Gate("next_1", "NOT", ("s_1",))], ["next_1"])
    return TransitionSystem(CnfProblem(1, [Clause([-1])]), trans)


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
    return TransitionSystem(CnfProblem(2, [Clause([-1]), Clause([-2])]), trans)


def test_transition_system_validation():
    trans = Netlist(["s_1"], [Gate("next_1", "NOT", ("s_1",))], ["next_1"])
    assert TransitionSystem(CnfProblem(1, []), trans).state_bits == 1
    with pytest.raises(CircuitError):
        TransitionSystem(CnfProblem(2, []), trans)  # no next_2 for init's bit 2
    with pytest.raises(CircuitError):
        TransitionSystem(CnfProblem(1, [], frozenset({1})), trans)  # quantified init
    with pytest.raises(CircuitError):
        TransitionSystem(
            CnfProblem(1, []),
            Netlist(["s_1"], [Gate("g", "NOT", ("s_1",))], ["g"]),
        )  # outputs must be named next_1..next_n
    with pytest.raises(CircuitError):
        TransitionSystem(
            CnfProblem(1, []),
            Netlist(["x"], [Gate("next_1", "NOT", ("x",))], ["next_1"]),
        )  # state input s_1 missing


def test_next_state_by_simulation():
    ts = _counter()
    assert next_state(ts, (0, 0)) == (0, 1)
    assert next_state(ts, (0, 1)) == (1, 0)
    assert next_state(ts, (1, 0)) == (1, 1)
    assert next_state(ts, (1, 1)) == (0, 0)


def test_next_state_reads_free_inputs():
    trans = Netlist(
        ["s_1", "u"], [Gate("next_1", "XOR", ("s_1", "u"))], ["next_1"]
    )
    ts = TransitionSystem(CnfProblem(1, []), trans)
    assert next_state(ts, (0,), {"u": True}) == (1,)
    assert next_state(ts, (0,), {"u": False}) == (0,)


def test_add_stutter_gives_every_state_a_self_loop():
    ts = add_stutter(_counter())
    assert ts.state_bits == 2
    assert ts.free_input_names() == ["stutter_sel"]
    for state in itertools.product((0, 1), repeat=2):
        assert next_state(ts, state, {"stutter_sel": True}) == state
        assert next_state(ts, state, {"stutter_sel": False}) == next_state(
            _counter(), state
        )


def test_add_stutter_rejects_name_collisions():
    trans = Netlist(
        ["s_1", "stutter_sel"],
        [Gate("next_1", "OR", ("s_1", "stutter_sel"))],
        ["next_1"],
    )
    ts = TransitionSystem(CnfProblem(1, []), trans)
    with pytest.raises(CircuitError):
        add_stutter(ts)


def test_unroll_rejects_zero_frames():
    # A float or a bool is not a frame count, even when it equals one.
    for k in (0, 2.0, True):
        with pytest.raises(CircuitError):
            unroll(_toggle(), k)


def test_unroll_layout():
    ts = _toggle()
    u = unroll(ts, 2)
    # Frame-major numbering: state bit 1, then one gate per frame.
    assert u.frame_states == [[1], [2], [3]]
    assert u.problem.var_count == 3
    assert u.problem.quantified == frozenset({1, 2})
    assert u.init_targets == []


def test_unroll_duplicate_init_maps_onto_frame_two():
    ts = _toggle()
    u = unroll(ts, 2, duplicate_init=True)
    assert u.init_targets == [1]
    # The original unit -1 reappears over frame 2's state variable.
    assert u.problem.clauses[1] == Clause([-2])


def test_unroll_admits_exactly_the_k_step_runs():
    ts = _toggle()
    assert final_frame_states(ts, unroll(ts, 1)) == {(1,)}
    assert final_frame_states(ts, unroll(ts, 2)) == {(0,)}


def test_unrolled_stuttering_system_matches_bfs():
    for ts in (add_stutter(_toggle()), add_stutter(_counter())):
        for k in (1, 2, 3):
            assert final_frame_states(ts, unroll(ts, k)) == bfs_reach(ts, k)


def test_duplicated_init_shifts_the_horizon_back_one_step():
    for ts in (add_stutter(_toggle()), add_stutter(_counter())):
        for k in (1, 2, 3):
            u = unroll(ts, k, duplicate_init=True)
            assert final_frame_states(ts, u) == bfs_reach(ts, k - 1)
