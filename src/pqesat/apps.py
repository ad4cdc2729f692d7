"""Applications of partial quantifier elimination.

Four end-to-end uses of taking clauses out of a quantified formula:
deciding whether a transition system's reachability diameter is below a
bound, interpolation, combinational equivalence checking, and property
generation for a circuit.  Each builds a quantified CNF with a dedicated
structure, hands the interesting slice of it to the PQE engine, and reads
the answer off the solution clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .circuits import Netlist, TransitionSystem, tseitin_encode, unroll
from .cnf import Clause, CnfProblem, mentioned_variables
from .oracle import implies
from .pqe import PqeProblem, decide_redundant, probe, take_out
from .solver import STEP_LIMIT, solve  # noqa: F401  bench/spans.py wraps apps.solve by name


class AppError(Exception):
    """Ill-formed application instance."""


# ---------------------------------------------------------------------------
# Reachability diameter.
# ---------------------------------------------------------------------------


def diameter_lt(ts: TransitionSystem, k: int, step_limit: int = STEP_LIMIT) -> bool:
    """Is every reachable state reachable in fewer than k transitions?

    Unrolls k frames with the initial-state clauses instantiated a second
    time over frame 2 and asks whether that second copy is redundant
    under the quantifier: it is exactly when the states reachable in k-1
    and in k steps coincide.  The transition system must stutter (every
    state needs a self-transition) for that equivalence to hold.

    Raises StepLimitError when the engine gives up, so a returned boolean
    is always a definite answer.
    """
    if type(k) is not int or k < 1:
        raise AppError(f"diameter comparison needs an int k >= 1, got {k!r}")
    u = unroll(ts, k, duplicate_init=True)
    return decide_redundant(PqeProblem(u.problem, tuple(u.init_targets)), step_limit)


# ---------------------------------------------------------------------------
# Interpolation.
# ---------------------------------------------------------------------------


@dataclass
class InterpolationInstance:
    """A conjunction split A and B.

    Both sides use one global variable numbering.  ``shared`` holds the
    variables mentioned by both sides; A's private variables and B's
    private variables end up quantified.
    """

    a: CnfProblem
    b: CnfProblem

    def __post_init__(self):
        if self.a.quantified or self.b.quantified:
            raise AppError("interpolation sides must be quantifier-free")

    @property
    def shared(self) -> frozenset[int]:
        return mentioned_variables(self.a) & mentioned_variables(self.b)


@dataclass
class InterpolationResult:
    candidate: list[Clause]
    status: str  # "interpolant" | "candidate_only"
    derivation: list[dict] = field(repr=False, default_factory=list)
    steps: int = 0


def interpolate(
    inst: InterpolationInstance, step_limit: int = STEP_LIMIT
) -> InterpolationResult:
    """Take A out of the quantified conjunction of A and B.

    The solution mentions only shared variables; conjoined with B it has
    the same models over the shared-and-B variables as A with B.  When
    every solution clause is implied by A alone (checked by bounded
    solver probes), the result is a proper interpolant.
    """
    n = max(inst.a.var_count, inst.b.var_count)
    quantified = (
        mentioned_variables(inst.a) | mentioned_variables(inst.b)
    ) - inst.shared
    clauses = list(inst.a.clauses) + list(inst.b.clauses)
    problem = CnfProblem(n, clauses, quantified)
    sol = take_out(PqeProblem(problem, tuple(range(len(inst.a.clauses)))), step_limit)
    what = "interpolant probe"
    learned: list[Clause] = []  # one list, as every probe is of A
    implied = all(
        probe(inst.a, c, learned, step_limit, what).status == "unsat"
        for c in sol.solution_clauses
    )
    status = "interpolant" if implied else "candidate_only"
    return InterpolationResult(
        list(sol.solution_clauses), status, sol.derivation, sol.steps
    )


# ---------------------------------------------------------------------------
# Equivalence checking.
# ---------------------------------------------------------------------------


@dataclass
class EqCheckInstance:
    """Two single-output circuits compared input-for-input by position."""

    m1: Netlist
    m2: Netlist

    def __post_init__(self):
        for label, nl in (("first", self.m1), ("second", self.m2)):
            if len(nl.outputs) != 1:
                raise AppError(f"{label} circuit must have exactly one output")
        if len(self.m1.inputs) != len(self.m2.inputs):
            raise AppError(
                f"input counts differ: {len(self.m1.inputs)} vs "
                f"{len(self.m2.inputs)}"
            )


@dataclass
class EqCheckResult:
    verdict: str  # "equivalent" | "inequivalent" | "constant_circuit"
    witness: Optional[dict[str, bool]] = None  # first circuit's input names
    constant: Optional[str] = None  # e.g. "m2 is constant 1"
    solution: list[Clause] = field(default_factory=list)
    steps: int = 0


def eq_check(inst: EqCheckInstance, step_limit: int = STEP_LIMIT) -> EqCheckResult:
    """Are the two circuits equivalent?

    Rules out constant circuits with four satisfiability probes, then
    takes the input-equality clauses out of the quantified conjunction of
    the two encodings.  For non-constant circuits the solution determines
    the verdict: equivalence holds exactly when it forces the two output
    variables equal.  An inequivalence witness comes from a miter-style
    satisfiability call.
    """
    f1, map1 = tseitin_encode(inst.m1)
    f2, map2 = tseitin_encode(inst.m2)
    for label, f, w in (("m1", f1, map1.outputs[0]), ("m2", f2, map2.outputs[0])):
        what = f"constant probe of the {label} circuit"
        learned: list[Clause] = []  # one list per circuit, as each is fixed
        for value, h in ((0, Clause([-w])), (1, Clause([w]))):
            if probe(f, h, learned, step_limit, what).status == "unsat":
                constant = f"{label} is constant {value}"
                return EqCheckResult("constant_circuit", constant=constant)

    offset = f1.var_count

    def shift(c: Clause) -> Clause:
        return Clause([lit + offset if lit > 0 else lit - offset for lit in c])

    v1 = [map1.var_of[name] for name in inst.m1.inputs]
    v2 = [map2.var_of[name] + offset for name in inst.m2.inputs]
    w1 = map1.outputs[0]
    w2 = map2.outputs[0] + offset
    eq_clauses: list[Clause] = []
    for a, b in zip(v1, v2):
        eq_clauses.append(Clause([-a, b]))
        eq_clauses.append(Clause([a, -b]))
    body = eq_clauses + list(f1.clauses) + [shift(c) for c in f2.clauses]
    var_count = offset + f2.var_count
    quantified = frozenset(range(1, var_count + 1)) - {w1, w2}
    problem = CnfProblem(var_count, body, quantified)
    sol = take_out(PqeProblem(problem, tuple(range(len(eq_clauses)))), step_limit)

    # The solution ranges over the two output variables only; squeeze it
    # into a two-variable space so the entailment check stays tiny.
    squeeze = {w1: 1, w2: 2}
    small = [
        Clause([squeeze[abs(lit)] if lit > 0 else -squeeze[abs(lit)] for lit in c])
        for c in sol.solution_clauses
    ]
    hprob = CnfProblem(2, small)
    # Exact at two variables; bench/selftest.py also expects implies traced here.
    if implies(hprob, Clause([-1, 2])) and implies(hprob, Clause([1, -2])):
        return EqCheckResult("equivalent", solution=sol.solution_clauses,
                             steps=sol.steps)

    miter = CnfProblem(var_count, body + [Clause([w1, w2]), Clause([-w1, -w2])])
    outcome = probe(miter, Clause([]), [], step_limit, "miter call")
    if outcome.status != "sat":
        raise AssertionError("solution refutes equality but the miter is unsat")
    witness = {name: outcome.model[v] for name, v in zip(inst.m1.inputs, v1)}
    return EqCheckResult("inequivalent", witness=witness,
                         solution=sol.solution_clauses, steps=sol.steps)


# ---------------------------------------------------------------------------
# Property generation.
# ---------------------------------------------------------------------------


@dataclass
class PropGenResult:
    properties: list[Clause]
    problem: CnfProblem  # the encoded circuit, quantification included
    derivation: list[dict] = field(repr=False, default_factory=list)
    steps: int = 0


def prop_gen(
    nl: Netlist,
    quantified_inputs: frozenset[str] = frozenset(),
    target: int = 0,
    step_limit: int = STEP_LIMIT,
) -> PropGenResult:
    """Properties of a circuit, from taking one clause out of its encoding.

    Quantifies the internal gate variables plus the chosen inputs and
    takes the target clause out.  Every returned clause is implied by the
    encoding, so each is a property of the circuit over the remaining
    inputs and the outputs.
    """
    unknown = set(quantified_inputs) - set(nl.inputs)
    if unknown:
        raise AppError(f"not inputs of the circuit: {sorted(unknown)}")
    encoded, vmap = tseitin_encode(nl)
    quantified = set(vmap.internal)
    quantified.update(vmap.var_of[name] for name in quantified_inputs)
    problem = CnfProblem(encoded.var_count, list(encoded.clauses),
                         frozenset(quantified))
    if type(target) is not int or not 0 <= target < len(problem.clauses):
        raise AppError(f"target index {target!r} out of range")
    if not problem.clauses[target].variables() & problem.quantified:
        raise AppError("target clause has no quantified variable to eliminate")
    sol = take_out(PqeProblem(problem, (target,)), step_limit)
    return PropGenResult(
        list(sol.solution_clauses), problem, sol.derivation, sol.steps
    )
