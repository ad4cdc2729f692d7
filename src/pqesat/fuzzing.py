"""Seeded random instance generators for cross-checking the engines.

Every generator takes an explicit random.Random so a seed reproduces the
same corpus byte for byte.  Sizes default to ranges the enumeration
oracles accept.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from .apps import EqCheckInstance, InterpolationInstance
from .circuits import GATE_OPS, Gate, Netlist, TransitionSystem, add_stutter
from .cnf import Clause, CnfProblem
from .pqe import PqeProblem


def random_clause(
    rng: random.Random, pool: Sequence[int], max_width: int = 3
) -> Clause:
    """Up to ``max_width`` distinct variables of the pool, random signs."""
    width = rng.randint(1, min(max_width, len(pool)))
    variables = rng.sample(pool, width)
    return Clause([v if rng.random() < 0.5 else -v for v in variables])


def random_cnf(
    rng: random.Random, max_vars: int = 12, max_clauses: int = 40
) -> CnfProblem:
    n = rng.randint(3, max_vars)
    m = rng.randint(min(n, max_clauses), max_clauses)
    return CnfProblem(n, [random_clause(rng, range(1, n + 1)) for _ in range(m)])


def random_pqe(
    rng: random.Random,
    max_vars: int = 10,
    max_clauses: int = 25,
    max_targets: int = 2,
) -> PqeProblem:
    n = rng.randint(3, max_vars)
    m = rng.randint(n, min(max_clauses, 3 * n))
    quantified = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    problem = CnfProblem(
        n, [random_clause(rng, range(1, n + 1)) for _ in range(m)], quantified
    )
    targets = tuple(rng.sample(range(m), rng.randint(1, min(max_targets, m))))
    return PqeProblem(problem, targets)


# ---------------------------------------------------------------------------
# Netlists.
# ---------------------------------------------------------------------------


def _random_gate(
    rng: random.Random,
    name: str,
    signals: list[str],
    ops: Sequence[str] = GATE_OPS,
) -> Gate:
    """A gate over earlier signals; XOR operands are always distinct."""
    op = rng.choice(ops)
    if op == "XOR" and len(set(signals)) < 2:
        # No second operand exists for an XOR, so draw another op.
        op = rng.choice([o for o in ops if o != "XOR"])
    if op == "NOT":
        return Gate(name, op, (rng.choice(signals),))
    a = rng.choice(signals)
    b = rng.choice(signals)
    if op == "XOR":
        while b == a:
            b = rng.choice(signals)
    return Gate(name, op, (a, b))


def random_netlist(
    rng: random.Random, n_inputs: int = 3, n_gates: int = 5, n_outputs: int = 1
) -> Netlist:
    """A random circuit; outputs are the last gates, so they have depth."""
    if n_inputs < 2 or not 1 <= n_outputs <= n_gates:
        raise ValueError("need at least two inputs and from 1 to n_gates outputs")
    inputs = [f"v{i}" for i in range(1, n_inputs + 1)]
    signals = list(inputs)
    gates: list[Gate] = []
    for j in range(1, n_gates + 1):
        gates.append(_random_gate(rng, f"g{j}", signals))
        signals.append(f"g{j}")
    outputs = [g.name for g in gates[-n_outputs:]]
    return Netlist(inputs, gates, outputs)


def netlist_truth_table(nl: Netlist) -> tuple[tuple[bool, ...], ...]:
    """Output vectors over all input vectors, in lexicographic input order."""
    rows = []
    for bits in itertools.product([False, True], repeat=len(nl.inputs)):
        rows.append(nl.output_values(dict(zip(nl.inputs, bits))))
    return tuple(rows)


def reencode_netlist(rng: random.Random, nl: Netlist) -> Netlist:
    """An equivalent circuit with different structure.

    Each gate is either kept or expanded into an equivalent group of
    gates over fresh names (the classic two-negation rewrites); the
    original gate name always labels the group's final gate, so operand
    references and outputs survive untouched.
    """
    gates: list[Gate] = []
    for g in nl.gates:
        if rng.random() < 0.3:
            gates.append(g)
            continue
        t = lambda i: f"{g.name}_r{i}"
        if g.op == "AND":
            a, b = g.operands
            gates.append(Gate(t(1), "NOT", (a,)))
            gates.append(Gate(t(2), "NOT", (b,)))
            gates.append(Gate(t(3), "OR", (t(1), t(2))))
            gates.append(Gate(g.name, "NOT", (t(3),)))
        elif g.op == "OR":
            a, b = g.operands
            gates.append(Gate(t(1), "NOT", (a,)))
            gates.append(Gate(t(2), "NOT", (b,)))
            gates.append(Gate(t(3), "AND", (t(1), t(2))))
            gates.append(Gate(g.name, "NOT", (t(3),)))
        elif g.op == "XOR":
            a, b = g.operands
            gates.append(Gate(t(1), "NOT", (a,)))
            gates.append(Gate(t(2), "NOT", (b,)))
            gates.append(Gate(t(3), "AND", (a, t(2))))
            gates.append(Gate(t(4), "AND", (t(1), b)))
            gates.append(Gate(g.name, "OR", (t(3), t(4))))
        else:  # NOT
            (a,) = g.operands
            gates.append(Gate(t(1), "OR", (a, a)))
            gates.append(Gate(g.name, "NOT", (t(1),)))
    return Netlist(list(nl.inputs), gates, list(nl.outputs))


def mutate_netlist(rng: random.Random, nl: Netlist) -> Netlist:
    """Flip one gate's operation, or invert the first output.

    The result usually computes a different function; callers wanting a
    guaranteed difference should compare truth tables and retry.
    """
    two_input = [i for i, g in enumerate(nl.gates) if g.op != "NOT"]
    if two_input and rng.random() < 0.8:
        i = rng.choice(two_input)
        g = nl.gates[i]
        choices = [op for op in ("AND", "OR", "XOR") if op != g.op]
        if g.operands[0] == g.operands[1] and "XOR" in choices:
            choices.remove("XOR")
        gates = list(nl.gates)
        gates[i] = Gate(g.name, rng.choice(choices), g.operands)
        return Netlist(list(nl.inputs), gates, list(nl.outputs))
    return _invert_first_output(nl)


def _invert_first_output(nl: Netlist) -> Netlist:
    inverted = f"{nl.outputs[0]}_inv"
    gates = list(nl.gates) + [Gate(inverted, "NOT", (nl.outputs[0],))]
    return Netlist(list(nl.inputs), gates, [inverted] + list(nl.outputs[1:]))


def distinct_mutant(
    rng: random.Random, nl: Netlist, tries: int = 25
) -> Netlist:
    """A mutated circuit guaranteed to compute a different function."""
    reference = netlist_truth_table(nl)
    for _ in range(tries):
        mutant = mutate_netlist(rng, nl)
        if netlist_truth_table(mutant) != reference:
            return mutant
    return _invert_first_output(nl)


def random_eq_pair(rng: random.Random, n_inputs: int = 3) -> EqCheckInstance:
    """Two structurally different encodings of one function."""
    m1 = random_netlist(rng, n_inputs, rng.randint(2, 5))
    return EqCheckInstance(m1, reencode_netlist(rng, m1))


# ---------------------------------------------------------------------------
# Transition systems and interpolation splits.
# ---------------------------------------------------------------------------


def random_transition_system(
    rng: random.Random, bits: int = 3, stutter: bool = True
) -> TransitionSystem:
    state = [f"s_{i}" for i in range(1, bits + 1)]
    inputs = list(state)
    if rng.random() < 0.5:
        inputs.append("u")
    signals = list(inputs)
    gates: list[Gate] = []
    for j in range(1, rng.randint(1, 4) + 1):
        gates.append(_random_gate(rng, f"g{j}", signals))
        signals.append(f"g{j}")
    for i in range(1, bits + 1):
        # A different op order than the inner gates; the frozen corpora
        # were drawn with it.
        gates.append(
            _random_gate(rng, f"next_{i}", signals, ("AND", "OR", "XOR", "NOT"))
        )
    trans = Netlist(inputs, gates, [f"next_{i}" for i in range(1, bits + 1)])
    init_clauses = [
        Clause([i if rng.random() < 0.5 else -i])
        for i in range(1, bits + 1)
        if rng.random() < 0.8
    ]
    ts = TransitionSystem(CnfProblem(bits, init_clauses), trans)
    return add_stutter(ts) if stutter else ts


def random_interp_split(
    rng: random.Random, max_vars: int = 12
) -> Optional[InterpolationInstance]:
    """A random A/B split; None when the draw shares no variable."""
    nx = rng.randint(1, 3)
    ny = rng.randint(1, min(4, max_vars - nx - 1))
    nz = rng.randint(1, max_vars - nx - ny)
    n = nx + ny + nz
    a_vars = range(1, nx + ny + 1)
    b_vars = range(nx + 1, n + 1)
    a = CnfProblem(n, [random_clause(rng, a_vars) for _ in range(rng.randint(2, 8))])
    b = CnfProblem(n, [random_clause(rng, b_vars) for _ in range(rng.randint(2, 8))])
    inst = InterpolationInstance(a, b)
    return inst if inst.shared else None
