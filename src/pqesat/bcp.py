"""Unit propagation over a trail, plus trail-guided conflict analysis.

Propagation is deterministic, because the solving algorithms'
certificates are sensitive to its order.  Each clause has a scan
position: its index for a formula clause, and the formula's length plus
its index for a learned one, so formula clauses come first.  Formula
clauses whose indices the caller skips (PQE skips the clauses it took
out) are ignored as if absent.  After every assignment, a falsified
clause is reported if one exists, the one first in scan order; otherwise
the first unit clause in scan order fires.

One pass over the clauses records each unsatisfied clause's count of
open (unassigned) literals and puts the unit ones on a min-heap of scan
positions.  After that, a propagated literal touches only the clauses
that hold it, which drop out as satisfied, and those that hold its
negation, which lose an open literal: at none they are falsified, at one
they join the heap.  A heap entry satisfied after it was pushed is
skipped when popped.  Formula clauses are found through the formula's
occurrence index, learned ones through an index built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
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
    occ = problem.occurrences
    n = len(problem.clauses)
    scan = list(problem.clauses)
    scan += learned
    open_count: dict[int, int] = {}
    learned_occ: dict[int, list[int]] = {}
    units: list[int] = []
    for pos, c in enumerate(scan):
        if pos < n and pos in skip:
            continue
        cs = c.literal_set
        if not true_lits.isdisjoint(cs):
            continue
        # Most clauses share no literal with the trail; skip the difference.
        k = len(cs) if cs.isdisjoint(false_lits) else len(cs - false_lits)
        if k == 0:
            return PropagationResult(trail, base_len, c)
        open_count[pos] = k
        if k == 1:
            units.append(pos)
        if pos >= n:
            for lit in c.literals:
                learned_occ.setdefault(lit, []).append(pos)

    # ``units`` is in ascending order, so it is already a heap.
    while units:
        pos = heappop(units)
        if pos not in open_count:
            continue
        reason = scan[pos]
        for lit in reason.literals:
            if lit not in false_lits:
                break
        trail.push(Binding(abs(lit), lit > 0, decision=False, reason=reason))
        for p in occ(lit):
            open_count.pop(p, None)
        for p in learned_occ.get(lit, ()):
            open_count.pop(p, None)
        # Both lists ascend and formula positions precede learned ones, so
        # the first clause falsified here is the first in scan order.
        for touched in (occ(-lit), learned_occ.get(-lit, ())):
            for p in touched:
                k = open_count.get(p)
                if k is None:
                    continue
                if k == 1:
                    return PropagationResult(trail, base_len, scan[p])
                open_count[p] = k - 1
                if k == 2:
                    heappush(units, p)
    return PropagationResult(trail, base_len, None)


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
