"""Clause-redundancy SAT solving and partial quantifier elimination.

The package has three layers:

* ``cnf`` / ``oracle`` -- clauses, DIMACS parsing, and brute-force
  enumeration oracles used to validate everything else.
* ``bcp`` / ``solver`` / ``pqe`` -- unit propagation, the
  clause-induction SAT solver, and the engine that takes clauses out of
  a quantified formula while recording D-sequents.
* ``circuits`` / ``apps`` -- netlists, Tseitin encoding, transition
  systems, and the four applications (reachability diameter,
  interpolation, equivalence checking, property generation).
"""

from .cnf import (
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
    parse_dimacs_file,
    resolve,
)
from .oracle import (
    GuardError,
    TruthTable,
    bfs_reach,
    enum_sat,
    implies,
    qe_enum,
    verify_pqe,
)
from .bcp import PropagationResult, propagate
from .solver import SolveOutcome, solve
from .pqe import (
    DSequent,
    PqeError,
    PqeProblem,
    PqeSolution,
    StepLimitError,
    atomic_dsequent,
    decide_redundant,
    resolve_dsequents,
    sat_by_pqe,
    take_out,
)
from .circuits import (
    CircuitError,
    Gate,
    Netlist,
    TransitionSystem,
    Unrolling,
    add_stutter,
    format_netlist,
    next_state,
    parse_netlist,
    parse_netlist_file,
    tseitin_encode,
    unroll,
)
from .apps import (
    AppError,
    EqCheckInstance,
    EqCheckResult,
    InterpolationInstance,
    InterpolationResult,
    PropGenResult,
    diameter_lt,
    eq_check,
    interpolate,
    prop_gen,
)

__all__ = [
    "Assignment",
    "Binding",
    "Clause",
    "CnfError",
    "CnfProblem",
    "ResolutionError",
    "cluster_of",
    "format_dimacs",
    "is_blocked",
    "parse_dimacs",
    "parse_dimacs_file",
    "resolve",
    "GuardError",
    "TruthTable",
    "bfs_reach",
    "enum_sat",
    "implies",
    "qe_enum",
    "verify_pqe",
    "PropagationResult",
    "propagate",
    "SolveOutcome",
    "solve",
    "DSequent",
    "PqeError",
    "PqeProblem",
    "PqeSolution",
    "StepLimitError",
    "atomic_dsequent",
    "decide_redundant",
    "resolve_dsequents",
    "sat_by_pqe",
    "take_out",
    "CircuitError",
    "Gate",
    "Netlist",
    "TransitionSystem",
    "Unrolling",
    "add_stutter",
    "format_netlist",
    "next_state",
    "parse_netlist",
    "parse_netlist_file",
    "tseitin_encode",
    "unroll",
    "AppError",
    "EqCheckInstance",
    "EqCheckResult",
    "InterpolationInstance",
    "InterpolationResult",
    "PropGenResult",
    "diameter_lt",
    "eq_check",
    "interpolate",
    "prop_gen",
]
