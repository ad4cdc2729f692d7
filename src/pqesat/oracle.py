"""Brute-force reference implementations.

Everything in this module works by exhaustive enumeration and is the
ground truth that the clever algorithms are tested against.  Each entry
point guards its input size and raises GuardError rather than silently
grinding on an instance that is too large for enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import TransitionSystem, next_state
from .cnf import Clause, CnfError, CnfProblem

MAX_SAT_VARS = 24
MAX_QE_SIDE = 16  # free and quantified sides, each
MAX_REACH_BITS = 12


class GuardError(Exception):
    """An oracle was asked to enumerate more than it is willing to."""


def _bit(var_count: int, v: int) -> int:
    # Variable 1 is the most significant bit, so ascending masks
    # enumerate assignments in lexicographic order with False first.
    return 1 << (var_count - v)


def _clause_masks(var_count: int, clauses: list[Clause]) -> list[tuple[int, int]]:
    masks = []
    for c in clauses:
        pos = 0
        neg = 0
        for lit in c:
            if lit > 0:
                pos |= _bit(var_count, lit)
            else:
                neg |= _bit(var_count, -lit)
        masks.append((pos, neg))
    return masks


def _mask_satisfies(mask: int, full: int, masks: list[tuple[int, int]]) -> bool:
    for pos, neg in masks:
        if not (mask & pos) and not (~mask & full & neg):
            return False
    return True


def enum_sat(problem: CnfProblem) -> dict[int, bool] | None:
    """First satisfying total assignment in lexicographic order, or None.

    Lexicographic means variable 1 varies slowest and False is tried
    before True.
    """
    n = problem.var_count
    if n > MAX_SAT_VARS:
        raise GuardError(f"enum_sat limited to {MAX_SAT_VARS} variables, got {n}")
    masks = _clause_masks(n, problem.clauses)
    full = (1 << n) - 1
    for m in range(1 << n):
        if _mask_satisfies(m, full, masks):
            return {v: bool(m & _bit(n, v)) for v in range(1, n + 1)}
    return None


def implies(problem: CnfProblem, clause: Clause) -> bool:
    """Does every model of the formula satisfy the clause?"""
    n = problem.var_count
    if n > MAX_SAT_VARS:
        raise GuardError(f"implies limited to {MAX_SAT_VARS} variables, got {n}")
    for lit in clause:
        if abs(lit) > n:
            raise CnfError(f"clause variable {abs(lit)} out of range")
    masks = _clause_masks(n, problem.clauses)
    [(cpos, cneg)] = _clause_masks(n, [clause])
    full = (1 << n) - 1
    for m in range(1 << n):
        if (m & cpos) or (~m & full & cneg):
            continue  # clause satisfied, no counterexample here
        if _mask_satisfies(m, full, masks):
            return False
    return True


@dataclass
class TruthTable:
    """Truth table of a formula over its free variables, in variable order."""

    variables: tuple[int, ...]
    rows: dict[tuple[int, ...], int]


def qe_enum(problem: CnfProblem) -> TruthTable:
    """Truth table of the formula after existentially quantifying.

    Row keys assign the free variables in ascending variable order; the
    value is 1 when some assignment of the quantified variables satisfies
    every clause.
    """
    free = sorted(problem.free_vars)
    quant = sorted(problem.quantified)
    if len(free) > MAX_QE_SIDE or len(quant) > MAX_QE_SIDE:
        raise GuardError(
            f"qe_enum limited to {MAX_QE_SIDE} free and {MAX_QE_SIDE} "
            f"quantified variables, got {len(free)}/{len(quant)}"
        )
    n = problem.var_count
    masks = _clause_masks(n, problem.clauses)
    full = (1 << n) - 1
    quant_masks = [
        sum(_bit(n, v) for j, v in enumerate(quant) if qm & (1 << j))
        for qm in range(1 << len(quant))
    ]
    rows: dict[tuple[int, ...], int] = {}
    for fa in _all_rows(len(free)):
        base = sum(_bit(n, v) for v, val in zip(free, fa) if val)
        rows[fa] = int(
            any(_mask_satisfies(base | qm, full, masks) for qm in quant_masks)
        )
    return TruthTable(tuple(free), rows)


def _all_rows(width: int):
    for m in range(1 << width):
        yield tuple((m >> (width - 1 - j)) & 1 for j in range(width))


def verify_pqe(
    problem: CnfProblem,
    target_indices: list[int],
    solution_clauses: list[Clause],
) -> bool:
    """Check a partial quantifier elimination answer by enumeration.

    The solution clauses joined with the formula minus the targets must
    have the same truth table over the free variables as the original
    formula.  Solution clauses may only mention free variables, and every
    target must name a clause of the formula.
    """
    for t in target_indices:
        if not 0 <= t < len(problem.clauses):
            raise CnfError(f"target index {t} out of range")
    for c in solution_clauses:
        bad = c.variables() & problem.quantified
        if bad:
            raise CnfError(
                f"solution clause {c!r} mentions quantified variables {sorted(bad)}"
            )
    targets = set(target_indices)
    remaining = [c for i, c in enumerate(problem.clauses) if i not in targets]
    candidate = CnfProblem(
        problem.var_count, remaining + list(solution_clauses), problem.quantified
    )
    return qe_enum(problem) == qe_enum(candidate)


def bfs_reach(ts: TransitionSystem, k: int) -> set[tuple[int, ...]]:
    """States reachable from the initial states in at most k steps.

    Works directly on the transition system's netlist by simulating it for
    every combination of current state and free input, so it is immune to
    any encoding mistakes in the CNF path.
    """
    n = ts.state_bits
    if n > MAX_REACH_BITS:
        raise GuardError(f"bfs_reach limited to {MAX_REACH_BITS} state bits, got {n}")
    free_inputs = ts.free_input_names()
    init_states = set()
    masks = _clause_masks(n, ts.init.clauses)
    full = (1 << n) - 1
    for m in range(1 << n):
        if _mask_satisfies(m, full, masks):
            init_states.add(tuple(1 if m & _bit(n, v) else 0 for v in range(1, n + 1)))
    reached = set(init_states)
    frontier = set(init_states)
    for _ in range(k):
        nxt = set()
        for state in frontier:
            for im in range(1 << len(free_inputs)):
                inputs = {
                    name: bool(im & (1 << j)) for j, name in enumerate(free_inputs)
                }
                succ = next_state(ts, state, inputs)
                if succ not in reached:
                    nxt.add(succ)
        if not nxt:
            break
        reached |= nxt
        frontier = nxt
    return reached
