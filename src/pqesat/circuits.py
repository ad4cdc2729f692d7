"""Gate-level netlists, their CNF encodings, and transition-system unrolling.

A netlist is an ordered list of 1- and 2-input gates over named signals.
``tseitin_encode`` turns one into a CNF formula whose models are exactly
the consistent executions of the circuit.  A transition system pairs an
initial-state formula with a netlist computing the next state; ``unroll``
lays out k copies of that netlist frame by frame, sharing variables where
one frame's outputs feed the next frame's state.

Netlist text format, one statement per line (``#`` starts a comment):

    input <name>
    gate <name> = <AND|OR|NOT|XOR>(<name>[, <name>])
    output <name>
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .cnf import Clause, CnfProblem

GATE_OPS = ("AND", "OR", "NOT", "XOR")


class CircuitError(Exception):
    """Malformed netlist, netlist text, or transition system."""


@dataclass(frozen=True)
class Gate:
    name: str
    op: str
    operands: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        if self.op not in GATE_OPS:
            raise CircuitError(f"unknown gate op {self.op!r}")
        want = 1 if self.op == "NOT" else 2
        if len(self.operands) != want:
            raise CircuitError(
                f"{self.op} gate {self.name!r} takes {want} operand(s), "
                f"got {len(self.operands)}"
            )
        if self.op == "XOR" and self.operands[0] == self.operands[1]:
            raise CircuitError(
                f"XOR gate {self.name!r} with a repeated operand is the "
                f"constant 0; model it differently"
            )


@dataclass
class Netlist:
    """A combinational circuit.

    Gates appear in topological order by construction: every operand must
    be an input or an earlier gate, which rules out cycles.
    """

    inputs: list[str]
    gates: list[Gate]
    outputs: list[str]

    def __post_init__(self):
        defined: set[str] = set()
        for name in self.inputs:
            if name in defined:
                raise CircuitError(f"duplicate input {name!r}")
            defined.add(name)
        for g in self.gates:
            if g.name in defined:
                raise CircuitError(f"duplicate signal {g.name!r}")
            for operand in g.operands:
                if operand not in defined:
                    raise CircuitError(
                        f"gate {g.name!r} uses undefined signal {operand!r}"
                    )
            defined.add(g.name)
        seen_out: set[str] = set()
        for name in self.outputs:
            if name not in defined:
                raise CircuitError(f"undeclared output {name!r}")
            if name in seen_out:
                raise CircuitError(f"duplicate output {name!r}")
            seen_out.add(name)

    def simulate(self, inputs: dict[str, bool]) -> dict[str, bool]:
        """Value of every signal under the given input values."""
        values: dict[str, bool] = {}
        for name in self.inputs:
            if name not in inputs:
                raise CircuitError(f"missing value for input {name!r}")
            values[name] = bool(inputs[name])
        for g in self.gates:
            a = values[g.operands[0]]
            if g.op == "NOT":
                values[g.name] = not a
            else:
                b = values[g.operands[1]]
                if g.op == "AND":
                    values[g.name] = a and b
                elif g.op == "OR":
                    values[g.name] = a or b
                else:
                    values[g.name] = a != b
        return values

    def output_values(self, inputs: dict[str, bool]) -> tuple[bool, ...]:
        values = self.simulate(inputs)
        return tuple(values[name] for name in self.outputs)


_GATE_RE = re.compile(r"^(\w+)\s*=\s*(\w+)\s*\(\s*([^()]*?)\s*\)$")


def parse_netlist(text: str) -> Netlist:
    inputs: list[str] = []
    gates: list[Gate] = []
    outputs: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if kind == "input":
                if not re.fullmatch(r"\w+", rest):
                    raise CircuitError(f"bad input name {rest!r}")
                inputs.append(rest)
            elif kind == "output":
                if not re.fullmatch(r"\w+", rest):
                    raise CircuitError(f"bad output name {rest!r}")
                outputs.append(rest)
            elif kind == "gate":
                m = _GATE_RE.match(rest)
                if m is None:
                    raise CircuitError(f"unparsable gate statement {rest!r}")
                name, op, args = m.group(1), m.group(2), m.group(3)
                operands = tuple(s.strip() for s in args.split(",")) if args else ()
                gates.append(Gate(name, op, operands))
            else:
                raise CircuitError(f"unknown statement {kind!r}")
        except CircuitError as exc:
            raise CircuitError(f"line {lineno}: {exc}") from None
    try:
        return Netlist(inputs, gates, outputs)
    except CircuitError as exc:
        raise CircuitError(f"netlist invalid: {exc}") from None


def parse_netlist_file(path: str) -> Netlist:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def format_netlist(nl: Netlist) -> str:
    """Render a netlist back to text (round-trips with parse_netlist)."""
    lines = [f"input {name}" for name in nl.inputs]
    for g in nl.gates:
        lines.append(f"gate {g.name} = {g.op}({', '.join(g.operands)})")
    lines.extend(f"output {name}" for name in nl.outputs)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tseitin encoding.
# ---------------------------------------------------------------------------


@dataclass
class VarMap:
    """Which CNF variable each signal got, and the circuit roles.

    ``inputs`` are the primary-input variables, ``outputs`` the variables
    of signals listed as circuit outputs, ``internal`` the remaining gate
    variables.
    """

    var_of: dict[str, int]
    inputs: list[int]
    internal: list[int]
    outputs: list[int]


def _gate_clauses(g: Gate, var_of: dict[str, int]) -> list[Clause]:
    # One fixed clause order per gate kind so encodings are reproducible.
    op, z, a = g.op, var_of[g.name], var_of[g.operands[0]]
    b = var_of[g.operands[1]] if len(g.operands) == 2 else None
    if op == "NOT":
        return [Clause([a, z]), Clause([-a, -z])]
    if op == "AND":
        return [Clause([-a, -b, z]), Clause([a, -z]), Clause([b, -z])]
    if op == "OR":
        return [Clause([a, b, -z]), Clause([-a, z]), Clause([-b, z])]
    # XOR
    return [
        Clause([-a, -b, -z]),
        Clause([a, b, -z]),
        Clause([a, -b, z]),
        Clause([-a, b, z]),
    ]


def tseitin_encode(nl: Netlist) -> tuple[CnfProblem, VarMap]:
    """Encode a netlist as CNF, one constraint block per gate.

    Signals are numbered in declaration order, inputs first.  The models
    of the result are exactly the consistent executions of the circuit.
    The returned problem leaves every variable free; callers choose what
    to quantify.
    """
    var_of: dict[str, int] = {}
    for name in nl.inputs:
        var_of[name] = len(var_of) + 1
    for g in nl.gates:
        var_of[g.name] = len(var_of) + 1
    clauses: list[Clause] = []
    for g in nl.gates:
        clauses.extend(_gate_clauses(g, var_of))
    out_names = set(nl.outputs)
    vmap = VarMap(
        var_of=var_of,
        inputs=[var_of[n] for n in nl.inputs],
        internal=[var_of[g.name] for g in nl.gates if g.name not in out_names],
        outputs=[var_of[n] for n in nl.outputs],
    )
    return CnfProblem(len(var_of), clauses), vmap


# ---------------------------------------------------------------------------
# Transition systems.
# ---------------------------------------------------------------------------


def state_input_names(n: int) -> list[str]:
    return [f"s_{i}" for i in range(1, n + 1)]


def next_output_names(n: int) -> list[str]:
    return [f"next_{i}" for i in range(1, n + 1)]


@dataclass
class TransitionSystem:
    """Initial states plus a next-state circuit.

    The netlist reads the present state on inputs ``s_1..s_n`` (it may
    have further inputs, which act as free nondeterministic choices) and
    must compute every next-state bit as a gate named by an output
    ``next_1..next_n``.  ``init`` is a formula over variables 1..n, bit i
    being variable i, so its variable count is the number of state bits.
    """

    init: CnfProblem
    trans: Netlist

    def __post_init__(self):
        n = self.state_bits
        if n < 1:
            raise CircuitError("a transition system needs at least one state bit")
        if self.init.quantified:
            raise CircuitError("init formula must not quantify anything")
        if list(self.trans.outputs) != next_output_names(n):
            raise CircuitError(
                f"init has {n} state bits, so the transition netlist must "
                f"output exactly next_1..next_{n}"
            )
        have = set(self.trans.inputs)
        missing = [s for s in state_input_names(n) if s not in have]
        if missing:
            raise CircuitError(f"transition netlist lacks state inputs {missing}")
        gate_names = {g.name for g in self.trans.gates}
        for name in self.trans.outputs:
            if name not in gate_names:
                raise CircuitError(
                    f"output {name!r} must be a gate, not an input passthrough"
                )

    @property
    def state_bits(self) -> int:
        return self.init.var_count

    def state_names(self) -> list[str]:
        return state_input_names(self.state_bits)

    def free_input_names(self) -> list[str]:
        states = set(self.state_names())
        return [name for name in self.trans.inputs if name not in states]


def next_state(
    ts: TransitionSystem, state: tuple[int, ...], inputs: Optional[dict] = None
) -> tuple[int, ...]:
    """Successor of a state (a 0/1 tuple) by direct simulation."""
    if len(state) != ts.state_bits:
        raise CircuitError(f"state {state!r} has wrong width")
    values: dict[str, bool] = {k: bool(v) for k, v in (inputs or {}).items()}
    for name, bit in zip(ts.state_names(), state):
        values[name] = bool(bit)
    signals = ts.trans.simulate(values)
    return tuple(int(signals[name]) for name in ts.trans.outputs)


def add_stutter(ts: TransitionSystem) -> TransitionSystem:
    """Give every state a self-loop, controlled by a fresh selector input.

    Each next-state bit becomes a mux: with the selector on, the present
    bit is copied; off, the original next-state function runs.  Unrolling
    quantifies the selector along with the other non-state inputs, so the
    transition relation turns into "step or stay".
    """
    n = ts.state_bits
    rename = {name: f"stutter_pre_{i}" for i, name in enumerate(ts.trans.outputs, 1)}
    taken = set(ts.trans.inputs) | {g.name for g in ts.trans.gates}
    fresh = ["stutter_sel", "stutter_off"]
    fresh += [f"stutter_keep_{i}" for i in range(1, n + 1)]
    fresh += [f"stutter_move_{i}" for i in range(1, n + 1)]
    fresh += list(rename.values())
    for name in fresh:
        if name in taken:
            raise CircuitError(f"cannot stutter: signal name {name!r} in use")
    gates = [
        Gate(rename.get(g.name, g.name), g.op, tuple(rename.get(x, x) for x in g.operands))
        for g in ts.trans.gates
    ]
    gates.append(Gate("stutter_off", "NOT", ("stutter_sel",)))
    for i in range(1, n + 1):
        gates.append(Gate(f"stutter_keep_{i}", "AND", ("stutter_sel", f"s_{i}")))
        gates.append(Gate(f"stutter_move_{i}", "AND", ("stutter_off", f"stutter_pre_{i}")))
        gates.append(Gate(f"next_{i}", "OR", (f"stutter_keep_{i}", f"stutter_move_{i}")))
    trans = Netlist(
        list(ts.trans.inputs) + ["stutter_sel"], gates, next_output_names(n)
    )
    return TransitionSystem(ts.init.copy(), trans)


@dataclass
class Unrolling:
    """k transition steps laid out as one CNF formula.

    ``frame_states`` holds k+1 variable blocks: the state variables of
    each time frame, the last one being the only free block.  When the
    initial-state clauses were instantiated a second time over frame 2,
    ``init_targets`` lists their clause indices.
    """

    problem: CnfProblem
    frame_states: list[list[int]]
    init_targets: list[int] = field(default_factory=list)


def unroll(ts: TransitionSystem, k: int, duplicate_init: bool = False) -> Unrolling:
    """Chain k copies of the transition netlist after the initial states.

    Variable numbering is frame-major: the first frame's state bits are
    1..n, then per frame its non-state inputs and gate variables, each
    frame's next-state gate variables doubling as the following frame's
    state bits.  All variables are quantified except the final state
    block.
    """
    if type(k) is not int or k < 1:
        raise CircuitError(f"cannot unroll {k!r} frames")
    n = ts.state_bits
    frame_states: list[list[int]] = [list(range(1, n + 1))]
    counter = n
    clauses: list[Clause] = list(ts.init.clauses)
    init_targets: list[int] = []
    frames: list[dict[str, int]] = []

    for _ in range(k):
        var_of: dict[str, int] = dict(zip(ts.state_names(), frame_states[-1]))
        for name in ts.free_input_names():
            counter += 1
            var_of[name] = counter
        for g in ts.trans.gates:
            counter += 1
            var_of[g.name] = counter
        frames.append(var_of)
        frame_states.append([var_of[name] for name in ts.trans.outputs])

    if duplicate_init:
        second = frame_states[1]
        for c in ts.init.clauses:
            mapped = [
                (second[abs(lit) - 1] if lit > 0 else -second[abs(lit) - 1])
                for lit in c
            ]
            init_targets.append(len(clauses))
            clauses.append(Clause(mapped))

    for var_of in frames:
        for g in ts.trans.gates:
            clauses.extend(_gate_clauses(g, var_of))

    quantified = frozenset(range(1, counter + 1)) - frozenset(frame_states[-1])
    problem = CnfProblem(counter, clauses, quantified)
    return Unrolling(problem, frame_states, init_targets)
