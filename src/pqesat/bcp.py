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
occurrence index, learned ones through a ``_LearnedIndex``.

A call may start from an earlier conflict-free result, its parent: the
child copies the parent's counters, applies its own decisions through
their occurrence lists, and counts only the clauses appended since.  At
the parent's fixpoint no counted clause is unit or falsified, so every
clause unit or falsified after the decisions is a touched or a newly
counted one, and the scan-order rule still picks the same clause.  A
chain of results grows either its formula with no learned clauses (PQE)
or its learned list on a fixed formula (the solver), never both.

Conflict analysis walks the trail once, latest binding first, and edits
one ordered literal set instead of building a clause per resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import AbstractSet, Optional, Sequence

from .cnf import Assignment, Binding, Clause, CnfProblem, ResolutionError


class _LearnedIndex:
    """Learned clauses' scan positions by literal, shared down a chain of results."""

    __slots__ = ("formula_len", "count", "occ")

    def __init__(self):
        self.formula_len = 0
        self.count = 0
        self.occ: dict[int, list[int]] = {}

    def update(
        self, formula_len: int, learned: Sequence[Clause]
    ) -> dict[int, list[int]]:
        if formula_len != self.formula_len:
            if self.count:
                raise ValueError("the formula grew after learned clauses were indexed")
            self.formula_len = formula_len
        occ = self.occ
        for i in range(self.count, len(learned)):
            pos = formula_len + i
            for lit in learned[i].literals:
                occ.setdefault(lit, []).append(pos)
        self.count = len(learned)
        return occ


@dataclass
class PropagationResult:
    """Outcome of one propagate() call.

    A falsified clause is an outcome, not an error.  ``base_len`` marks
    where this call's bindings start on the trail; bindings before it
    belong to the caller's context.  A result without a conflict also
    keeps what a child call needs: the open-literal count of every
    unsatisfied counted clause, keyed by scan position in ascending
    order, how many scan positions were counted, and the chain's index.
    """

    trail: Assignment
    base_len: int
    conflict: Optional[Clause]
    open_count: dict[int, int] = field(default_factory=dict, repr=False)
    counted: int = 0
    index: Optional[_LearnedIndex] = field(default=None, repr=False)

    @property
    def is_conflict(self) -> bool:
        return self.conflict is not None


def propagate(
    problem: CnfProblem,
    learned: Sequence[Clause],
    start: Assignment | PropagationResult,
    decisions: Sequence[tuple[int, bool]],
    skip: AbstractSet[int] = frozenset(),
) -> PropagationResult:
    """Extend ``start`` with ``decisions`` and run unit propagation.

    ``start`` is an assignment to count from, or a conflict-free result
    to carry on from, whose trail is then the base.  It is not modified.
    Clauses of the problem are consulted first (in index order), then the
    learned clauses.  Problem clauses whose indices are in ``skip`` are
    ignored as if absent.

    A result to carry on from must have been computed on the same problem,
    skip set and learned list, and its counters are copied, not changed.
    Since it ran, the formula may have grown if the chain has indexed no
    learned clause, or else the learned list; otherwise ``ValueError``.
    """
    if isinstance(start, PropagationResult):
        if start.is_conflict:
            raise ValueError("a conflicting result has no fixpoint to start from")
        parent, base = start, start.trail
    else:
        parent, base = None, start
    trail = base.copy()
    base_len = len(base)
    for v, val in decisions:
        trail.push(Binding(v, val))

    true_lits = trail.true_lits
    false_lits = trail.false_lits
    occ = problem.occurrences
    clauses = problem.clauses
    n = len(clauses)
    if parent is not None:
        open_count = dict(parent.open_count)
        counted = parent.counted
        index = parent.index
    else:
        open_count = {}
        counted = 0
        index = _LearnedIndex()
    learned_occ = index.update(n, learned)

    def clause_at(pos: int) -> Clause:
        return clauses[pos] if pos < n else learned[pos - n]

    # Apply the decisions to the carried counters: satisfied clauses drop
    # out first, so a clause both satisfied and shortened is never counted.
    # Without a parent nothing is carried, and the count below sees them.
    lits = [v if val else -v for v, val in decisions] if open_count else ()
    for lit in lits:
        for p in occ(lit):
            open_count.pop(p, None)
        for p in learned_occ.get(lit, ()):
            open_count.pop(p, None)
    touched = []
    for lit in lits:
        for shortened in (occ(-lit), learned_occ.get(-lit, ())):
            for p in shortened:
                k = open_count.get(p)
                if k is not None:
                    open_count[p] = k - 1
                    touched.append(p)
    touched = sorted(set(touched))
    for p in touched:
        if open_count[p] == 0:
            return PropagationResult(trail, base_len, clause_at(p))
    units = [p for p in touched if open_count[p] == 1]

    # Clauses appended since the parent counted come after every carried
    # position, so ``units`` stays ascending.
    appended = chain(clauses[counted:], learned[max(counted - n, 0) :])
    for pos, c in enumerate(appended, counted):
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

    # ``units`` is in ascending order, so it is already a heap.
    bindings = trail.bindings
    while units:
        pos = heappop(units)
        if pos not in open_count:
            continue
        reason = clause_at(pos)
        for lit in reason.literals:
            if lit not in false_lits:
                break
        # A counted, unsatisfied clause's one open literal is unassigned,
        # so the binding skips ``Assignment.push``'s check.
        bindings.append(Binding(abs(lit), lit > 0, reason))
        true_lits.add(lit)
        false_lits.add(-lit)
        for p in occ(lit):
            open_count.pop(p, None)
        for p in learned_occ.get(lit, ()):
            open_count.pop(p, None)
        # Both lists ascend and formula positions precede learned ones, so
        # the first clause falsified here is the first in scan order.
        for p in occ(-lit):
            k = open_count.get(p)
            if k is None:
                continue
            if k == 1:
                return PropagationResult(trail, base_len, clauses[p])
            open_count[p] = k - 1
            if k == 2:
                heappush(units, p)
        for p in learned_occ.get(-lit, ()):
            k = open_count.get(p)
            if k is None:
                continue
            if k == 1:
                return PropagationResult(trail, base_len, learned[p - n])
            open_count[p] = k - 1
            if k == 2:
                heappush(units, p)
    return PropagationResult(
        trail, base_len, None, open_count, n + len(learned), index
    )


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

    A reason's other literals were all falsified before the binding it
    forced, so a resolution only brings in literals bound earlier on the
    trail.  One walk from the trail's end down to ``base_len`` therefore
    meets every pivot, latest first.  It edits one ordered literal set,
    in the order ``cnf.resolve`` gives, and keeps its check: a reason
    that lacks the pivot's opposite literal, or clashes on a second
    variable, raises ``ResolutionError``.  With nothing resolved, the
    input clause itself comes back.
    """
    lits = dict.fromkeys(clause.literals)
    bindings = result.trail.bindings
    resolved = False
    for i in range(len(bindings) - 1, result.base_len - 1, -1):
        v, _, reason = bindings[i]
        if reason is None:
            continue
        pivot = v if v in lits else -v if -v in lits else None
        if pivot is None:
            continue
        if -pivot not in reason.literal_set:
            raise ResolutionError(f"cannot resolve on {v}: {reason!r} lacks {-pivot}")
        del lits[pivot]
        for lit in reason.literals:
            if -lit in lits:
                raise ResolutionError(f"cannot resolve on {v}: second clash at {lit}")
            if lit != -pivot:
                lits.setdefault(lit)
        resolved = True
        if steps is not None:
            steps.append((reason, v))
    return Clause(lits) if resolved else clause


def analyze_conflict(
    result: PropagationResult,
    steps: Optional[list[tuple[Clause, int]]] = None,
) -> Clause:
    """Derive a clause explaining a propagation conflict.

    Starting from the falsified clause, resolutions against reason clauses
    peel off everything this call propagated, so the result is falsified
    by the caller's context plus this call's decisions.  With no
    propagated literal involved, the falsified clause itself comes back.
    """
    if result.conflict is None:
        raise ValueError("analyze_conflict needs a conflicting result")
    return resolve_to_base(result.conflict, result, steps)
