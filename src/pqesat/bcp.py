"""Unit propagation over a trail, plus trail-guided conflict analysis.

Propagation here is deliberately simple and deterministic: after every
assignment the clause lists are rescanned front to back in one pass of
set operations against the trail's true and false literal sets.  A
falsified clause is reported the moment one exists, and otherwise the
first unit clause in scan order fires.  Main-formula clauses, minus any
the caller skips (PQE skips the clauses it took out), are scanned before
learned ones.  The predictability matters more than speed at the sizes
this package targets, because the solving algorithms' certificates are
sensitive to propagation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from .cnf import Assignment, Binding, Clause, CnfProblem, resolve


@dataclass
class PropagationResult:
    """Outcome of one propagate() call.

    A falsified clause is an outcome, not an error.  ``base_len`` marks
    where this call's bindings start on the trail; bindings before it
    belong to the caller's context.
    """

    trail: Assignment
    base_len: int
    conflict: Optional[Clause]

    @property
    def is_conflict(self) -> bool:
        return self.conflict is not None


def propagate(
    problem: CnfProblem,
    learned: Sequence[Clause],
    base: Assignment,
    decisions: Sequence[tuple[int, bool]],
    skip: AbstractSet[int] = frozenset(),
) -> PropagationResult:
    """Extend ``base`` with ``decisions`` and run unit propagation.

    ``base`` itself is not modified.  Clauses of the problem are consulted
    first (in index order), then the learned clauses.  Problem clauses
    whose indices are in ``skip`` are ignored as if absent.
    """
    trail = base.copy()
    base_len = len(base)
    for v, val in decisions:
        trail.push(Binding(v, val, decision=True))

    true_lits = trail.true_lits
    false_lits = trail.false_lits
    scan = [c for i, c in enumerate(problem.clauses) if i not in skip]
    scan += learned
    while True:
        # A unit found early does not end the pass: a falsified clause
        # later in scan order still wins.
        unit = None
        for c in scan:
            cs = c.literal_set
            if cs <= false_lits:
                return PropagationResult(trail, base_len, c)
            if unit is None and true_lits.isdisjoint(cs):
                open_lits = cs - false_lits
                if len(open_lits) == 1:
                    unit = (c, next(iter(open_lits)))
        if unit is None:
            return PropagationResult(trail, base_len, None)
        reason, lit = unit
        trail.push(Binding(abs(lit), lit > 0, decision=False, reason=reason))


def resolve_to_base(
    clause: Clause,
    result: PropagationResult,
    steps: Optional[list[tuple[Clause, int]]] = None,
) -> Clause:
    """Resolve away literals that were only falsified by this call's propagation.

    The input clause must be falsified by the result's trail.  Literals
    falsified by a binding made before the call, or by one of this call's
    decisions, are left alone; literals falsified by this call's propagated
    bindings are removed by resolving with their reason clauses, latest
    first.  The returned clause is falsified by the caller's context plus
    the decisions alone.  When ``steps`` is given, each resolution is
    appended to it as (reason clause, pivot variable).
    """
    trail = result.trail
    current = clause
    while True:
        pivot = None
        lits = current.literal_set
        for i in range(len(trail.bindings) - 1, result.base_len - 1, -1):
            b = trail.bindings[i]
            if b.decision:
                continue
            if b.var in lits or -b.var in lits:
                pivot = b
                break
        if pivot is None:
            break
        current = resolve(current, pivot.reason, pivot.var)
        if steps is not None:
            steps.append((pivot.reason, pivot.var))
    return Clause(current.literals)


def analyze_conflict(
    result: PropagationResult,
    steps: Optional[list[tuple[Clause, int]]] = None,
) -> Clause:
    """Derive a clause explaining a propagation conflict.

    Starting from the falsified clause, resolutions against reason clauses
    peel off everything this call propagated, so the result is falsified
    by the caller's context plus this call's decisions.  With no
    propagated literal involved, the falsified clause itself comes back
    as a fresh copy: the PQE engine maps clause objects to their indices
    by identity, so a derived clause must never be a formula member.
    """
    if result.conflict is None:
        raise ValueError("analyze_conflict needs a conflicting result")
    return resolve_to_base(result.conflict, result, steps)
