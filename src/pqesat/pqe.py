"""Partial quantifier elimination by proving target clauses redundant.

Given a formula with existential variables and a set of target clauses,
take_out() produces clauses over the free variables only whose addition
makes every target redundant: joined with the formula minus the targets,
they have the same projection onto the free variables as the original
formula.

Redundancy is established per target through D-sequents: records stating
that a target is redundant in the subspace fixed by a small partial
assignment.  Atomic D-sequents come from cheap syntactic detectors
(satisfaction, subsumption, blocked clauses); D-sequents from the two
branches of a variable resolve into one covering both; a D-sequent with
an empty subspace discharges its target outright.

Targets are taken out one at a time, in the given order.  Each pass works
on the current formula: clauses added by earlier passes participate, clauses
already taken out are retired and ignored.  That makes every pass a
statement about removing a single clause from the formula it actually ran
on, so passes compose by simple chaining.  Branching decides free variables
only, those some clause mentions, in ascending order.  A conflict found by
propagation resolves back to the decisions, so the derived clause is over
free variables and joins the solution.  When detection fails with every
such variable decided, one solver probe settles that full free cube x: if
the live formula, the target included, is satisfiable at x, the target is
redundant there; otherwise the clause x falsifies, shrunk, joins the
solution.  No target is ever grown, and no quantified variable is branched
on.

Detections are reused across a pass, and so is every discharge inside
one.  Within a pass the closed targets are fixed, and a node detects only
after propagation has found no live clause falsified.  A result then
depends only on the decisions' values on the clauses of the occurrence
lists it walked.  So each result is kept, with the steps it spent and the
free variables of those clauses, until the formula grows or the target
closes.  Any later node whose decisions agree on those variables takes
it, charging the same steps, without detecting again (see ``_Memo``).

A node's propagation carries on from its parent's.  Within a pass the
closed targets are fixed and the formula only grows, so a child starts
from the parent's conflict-free fixpoint, pushes its one new decision and
counts only the clauses added since (see ``bcp.propagate``).  Whether
unit propagation reaches a conflict does not depend on the order units
fire, so the carried result conflicts exactly when a fresh one would, and
a node reads nothing else from it: detection runs on the decisions alone.
A conflict is replayed from scratch over the decisions, and its analysis
reads the replay, so every derived clause is the one a fresh propagation
gives.  A decision the parent's fixpoint binds the other way is replayed
at once.

A cube probe that answers "sat" leaves its model, keyed by its values on
the free variables, for the rest of the ``take_out``.  A later cube with
those values takes the "sat" answer from the model, with no probe, if the
model satisfies every clause added since it was stored: closed targets
only drop clauses, so it then satisfies the live formula.  Such a cube
spends its node's step and no solver step.  Outputs do not change: a
skipped probe only leaves certificates unlearned, and the shrink loop
drops a literal exactly when the live formula entails the rest.

A probe asks the induction solver about the live formula with x as its
assumptions.  The probes of one pass share one probe formula, which gains
each solution clause as it is added, and one certificate list: within a
pass the live formula only gains clauses it already implies, so what one
probe learns holds for the next.  The list is dropped when the pass's
target closes.  ``decide_redundant`` likewise keeps one probe formula
and certificate list for all its redundancy probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Optional

from .bcp import PropagationResult, analyze_conflict, propagate
from .cnf import Assignment, Binding, Clause, CnfProblem, mentioned_variables
from .solver import STEP_LIMIT, SolveOutcome, solve

MAX_CHAIN_DEPTH = 8


class PqeError(Exception):
    """Malformed instance or broken precondition in the PQE layer."""


class StepLimitError(Exception):
    """The step budget ran out before an answer was reached."""


@dataclass(frozen=True)
class DSequent:
    """Target ``target`` is redundant in the subspace fixed by ``subspace``.

    The statement refers to the working formula at emission time: its
    first ``formula_size`` clauses minus the ``removed`` ones (clauses
    taken out by earlier passes).  ``rationale`` names the producing rule.
    """

    subspace: tuple[tuple[int, bool], ...]
    target: int
    formula_size: int
    rationale: str
    removed: tuple[int, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.subspace))
        object.__setattr__(self, "subspace", ordered)
        object.__setattr__(self, "removed", tuple(sorted(self.removed)))
        seen = set()
        for v, _ in ordered:
            if v in seen:
                raise PqeError(f"subspace binds variable {v} twice")
            seen.add(v)

    def binds(self, v: int) -> bool:
        return any(var == v for var, _ in self.subspace)

    def value_of(self, v: int) -> Optional[bool]:
        for var, val in self.subspace:
            if var == v:
                return val
        return None


def resolve_dsequents(d1: DSequent, d2: DSequent, v: int) -> DSequent:
    """Join two D-sequents whose subspaces disagree exactly on variable v."""
    if d1.target != d2.target:
        raise PqeError("cannot join D-sequents for different targets")
    v1, v2 = d1.value_of(v), d2.value_of(v)
    if v1 is None or v2 is None or v1 == v2:
        raise PqeError(f"subspaces must assign {v} opposite values")
    merged: dict[int, bool] = {}
    for var, val in d1.subspace + d2.subspace:
        if var == v:
            continue
        if var in merged and merged[var] != val:
            raise PqeError(f"subspaces disagree on shared variable {var}")
        merged[var] = val
    return DSequent(
        tuple(sorted(merged.items())),
        d1.target,
        max(d1.formula_size, d2.formula_size),
        "resolved",
        tuple(set(d1.removed) | set(d2.removed)),
    )


@dataclass(frozen=True)
class PqeProblem:
    """A formula together with the clause indices to take out of it."""

    problem: CnfProblem
    targets: tuple[int, ...]

    def __post_init__(self):
        uniq = []
        for t in self.targets:
            if not 0 <= t < len(self.problem.clauses):
                raise PqeError(f"target index {t} out of range")
            if t not in uniq:
                uniq.append(t)
        object.__setattr__(self, "targets", tuple(uniq))


@dataclass
class PqeSolution:
    """Outcome of taking the target clauses out of the quantified formula.

    ``solution_clauses`` mention free variables only; conjoined with the
    input minus the targets they preserve its projection.  Targets that
    were free of quantified variables move there verbatim and get no
    D-sequent; every other target maps to its final empty-subspace
    D-sequent in ``final_dsequents``.  ``formula`` is the grown formula,
    so D-sequent clause indices stay meaningful.  ``steps`` is the work
    spent against ``step_limit``: branching nodes, chained ``_discharge``
    attempts and the solver steps of cube probes.  A detection or
    discharge reused from an earlier node of the pass charges the
    ``_discharge`` attempts it made there; a cube settled by an earlier
    probe's model charges no solver step.  Cube probes share certificates
    within a pass, so a probe's steps depend on the probes before it.  It
    is a budget count, not an output; two engines that agree on every
    other field may spend different steps.
    """

    solution_clauses: list[Clause]
    final_dsequents: dict[int, DSequent]
    derivation: list[dict]
    formula: CnfProblem
    steps: int


class _Memo:
    """The detection results of one ``take_out`` pass, with what they read.

    Entries are filed under a ``_Detector._discharge`` call's arguments
    ``(index, stack, removed, depth)``, or under the target for a whole
    detection.  Each holds the result, the ticks the call spent and a
    dependency mask: an int with one bit per variable of ``order``, the
    OR of the bits of every clause on the occurrence lists the call
    walked, nested calls included.  An entry holds at a trail that
    agrees with the trail it was made at on every masked variable, both
    on which are assigned and on their values.

    Within a pass that is exact, for three reasons.  Engine trails hold
    only decisions on ``order``, made in its sequence, so two trails that
    agree on the masked variables give every walked clause the same
    values and the same earliest satisfied literal.  The dead clauses are
    fixed, and the engine clears the memo whenever the formula grows, so
    every list and every skip is the same.  And the engine detects only
    when no live clause is falsified, so a subsumption witness, a live
    clause inside the checked clause plus the falsified literals, shares
    a literal with the checked clause: a candidate off that clause's own
    lists fails under both trails.  So the call returns the same result
    after the same ticks.
    """

    def __init__(self, problem: CnfProblem, order: Iterable[int]):
        self.problem = problem
        self.bits = {v: 1 << i for i, v in enumerate(order)}
        # Each literal's occurrence list's bits.  Lists only grow, so the
        # clauses added since the last clear are ORed in at the next.
        self.list_masks: dict[int, int] = {}
        self.size = 0
        self.clear()

    def clear(self) -> None:
        """Drop every entry; OR the clauses added since into their lists' masks."""
        bits = self.bits
        clauses = self.problem.clauses
        for c in clauses[self.size:]:
            mask = 0
            for lit in c.literals:
                mask |= bits.get(abs(lit), 0)
            if mask:
                for lit in c.literals:
                    self.list_masks[lit] = self.list_masks.get(lit, 0) | mask
        self.size = len(clauses)
        self.entries: dict[object, list[tuple]] = {}

    def state(self, trail: Iterable[tuple[int, bool]]) -> tuple[int, int]:
        """The masks of the variables a trail assigns, and of those it sets true."""
        assigned = true = 0
        for v, val in trail:
            bit = self.bits.get(v, 0)
            assigned |= bit
            if val:
                true |= bit
        return assigned, true

    def lists_mask(self, index: int) -> int:
        """The bits of the clauses on the clause's own literals' lists."""
        mask = 0
        for lit in self.problem.clauses[index].literals:
            mask |= self.list_masks.get(lit, 0)
        return mask

    def get(self, key: object, state: tuple[int, int]) -> Optional[tuple]:
        """``(result, ticks, mask)`` of an entry that holds at ``state``."""
        assigned, true = state
        for mask, was_assigned, was_true, hit in self.entries.get(key, ()):
            if assigned & mask == was_assigned and true & mask == was_true:
                return hit
        return None

    def put(
        self, key: object, result, ticks: int, mask: int, state: tuple[int, int]
    ) -> None:
        hit = (result, ticks, mask)
        entry = (mask, state[0] & mask, state[1] & mask, hit)
        self.entries.setdefault(key, []).append(entry)


class _Detector:
    """Atomic redundancy detection under a pure-decision assignment.

    A detection for a clause may lean on other clauses being locally
    removable: those are discharged one after another, each check running
    against the formula minus the clauses discharged before it, so the
    whole chain reads as a sequence of single-clause removals.  Clauses
    still being worked on (``stack``) stay visible as threats but may not
    be discharged or serve as subsumption witnesses; ``dead`` clauses
    were taken out by earlier passes and are invisible entirely.  ``dead``
    is a live view of the engine's closed targets, read rather than
    copied: targets close only between passes.

    Three invariants keep detections cheap without changing any result.
    A subsumption witness lies inside the clause plus the falsified
    literals, so the formula's least-literal index files it under one of
    those literals, or under 0 if it is empty: only those lists are
    candidates, walked in index order so the first witness is the one a
    scan of the whole formula finds.  And no discharge ever puts a
    ``stack`` member into ``removed``, while at ``MAX_CHAIN_DEPTH`` no
    discharge runs at all: so a blocked check whose literal has an open,
    non-clashing partner in ``stack``, or any such partner at the depth
    cap, fails before a single partner is discharged.  Only ``steps``
    tells the difference, one tick per ``_discharge`` not attempted.
    Finally, a check reads other clauses only through occurrence lists,
    and ``mask`` collects the bits of the lists it walks (see ``_Memo``).
    Every ``_discharge`` result goes into ``memo`` with that mask and the
    ticks it spent, and a later call with the same arguments, at a trail
    that agrees on the mask, takes it and charges the same ticks.  A
    detector built without the engine's memo keeps one of its own, which
    serves its one trail.
    """

    def __init__(
        self,
        problem: CnfProblem,
        trail: Assignment,
        dead: AbstractSet[int],
        tick: Optional[Callable[[int], None]] = None,
        memo: Optional[_Memo] = None,
    ):
        self.problem = problem
        self.trail = trail
        self.dead = dead
        self.tick = tick
        self.memo = memo if memo is not None else _Memo(problem, ())
        self.state = self.memo.state(trail.items())
        self.mask = 0
        self.ticks = 0

    def detect(self, index: int) -> Optional[tuple[dict[int, bool], str]]:
        clause = self.problem.clauses[index]
        stack = frozenset([index])
        # Every check reads the clause's own values; its lists hold it.
        self.mask |= self.memo.lists_mask(index)
        got = self._satisfied(clause)
        if got is not None:
            return got, "satisfied"
        got = self._subsumed(index, stack, frozenset())
        if got is not None:
            return got, "subsumed"
        blocked = self._blocked(index, stack, frozenset(), 0)
        if blocked is not None:
            return blocked[0], "blocked"
        return None

    def _satisfied(self, clause: Clause) -> Optional[dict[int, bool]]:
        lit = self.trail.first_true_literal(clause)
        return None if lit is None else {abs(lit): lit > 0}

    def _subsumed(
        self, index: int, stack: frozenset[int], removed: frozenset[int]
    ) -> Optional[dict]:
        clause = self.problem.clauses[index]
        true_lits = self.trail.true_lits
        false_lits = self.trail.false_lits
        # Every literal of a witness must appear in the clause being
        # checked or be falsified by the trail, and none may be satisfied.
        # So a witness is filed under one of those literals, or under 0 if
        # it is empty; walking those lists in index order finds the same
        # first witness as a scan of the whole formula.
        allowed = clause.literal_set | false_lits
        filed = self.problem.least_literal_index()
        candidates = set(filed.get(0, ()))
        for lit in allowed:
            candidates.update(filed.get(lit, ()))
        for j in sorted(candidates):
            if j == index or j in stack or j in removed or j in self.dead:
                continue
            ws = self.problem.clauses[j].literal_set
            if ws <= allowed and true_lits.isdisjoint(ws):
                return {abs(lit): lit < 0 for lit in ws & false_lits}
        return None

    def _blocked(
        self,
        index: int,
        stack: frozenset[int],
        removed: frozenset[int],
        depth: int,
    ) -> Optional[tuple[dict[int, bool], frozenset[int]]]:
        clauses = self.problem.clauses
        clause = clauses[index]
        quantified = self.problem.quantified
        true_lits = self.trail.true_lits
        # The negations of the clause's literals that the trail leaves
        # open: an unsatisfied partner clashes on a second variable when
        # it holds one of them other than -own.
        neg_open = frozenset(-lit for lit in clause.literal_set)
        neg_open -= self.trail.false_lits
        list_masks = self.memo.list_masks
        for own in clause:
            if abs(own) not in quantified or self.trail.is_assigned(abs(own)):
                continue
            clash = neg_open - {-own}
            partners = self.problem.occurrences(-own)
            self.mask |= list_masks.get(-own, 0)
            # Satisfied partners bring their bindings, clashing ones drop
            # out, and open ones wait for a discharge.
            bindings: dict[int, bool] = {}
            pending: list[int] = []
            stuck = False
            for j in partners:
                if j == index or j in removed or j in self.dead:
                    continue
                ws = clauses[j].literal_set
                if not true_lits.isdisjoint(ws):
                    bindings.update(self._satisfied(clauses[j]))
                    continue
                if not clash.isdisjoint(ws):
                    continue
                if j in stack or depth >= MAX_CHAIN_DEPTH:
                    # No discharge can take this partner out, so the
                    # others need not be tried.
                    stuck = True
                    break
                pending.append(j)
            if stuck:
                continue
            rm = removed
            for j in pending:
                if j in rm:
                    continue
                sub = self._discharge(j, stack | {index}, rm, depth + 1)
                if sub is None:
                    break
                bindings.update(sub[0])
                rm = sub[1] | {j}
            else:
                return bindings, rm
        return None

    def _charge(self, n: int) -> None:
        self.ticks += n
        if self.tick is not None:
            self.tick(n)

    def _discharge(
        self, index: int, stack: frozenset[int], removed: frozenset[int], depth: int
    ) -> Optional[tuple[dict[int, bool], frozenset[int]]]:
        # Only _blocked calls this, for a partner it found unsatisfied.
        key = (index, stack, removed, depth)
        hit = self.memo.get(key, self.state)
        if hit is not None:
            got, ticks, mask = hit
            self.mask |= mask
            self._charge(ticks)
            return got
        outer, self.mask = self.mask, self.memo.lists_mask(index)
        before = self.ticks
        self._charge(1)
        witness = self._subsumed(index, stack, removed)
        if witness is not None:
            got = witness, removed
        else:
            got = self._blocked(index, stack, removed, depth)
        self.memo.put(key, got, self.ticks - before, self.mask, self.state)
        self.mask |= outer
        return got


def atomic_dsequent(
    problem: CnfProblem, index: int, subspace: Assignment
) -> Optional[DSequent]:
    """Try the syntactic redundancy detectors on one clause.

    The subspace assignment should consist of plain decisions.  Detection
    is the engine's own, so it may discharge chains of other clauses on the
    way.  Returns a D-sequent whose subspace is the subset of bindings the
    detection actually relied on, or None when no detector applies.
    """
    got = _Detector(problem, subspace, dead=frozenset()).detect(index)
    if got is None:
        return None
    bindings, rationale = got
    return DSequent(
        tuple(sorted(bindings.items())), index, len(problem.clauses), rationale
    )


class _Engine:
    def __init__(
        self,
        pqe: PqeProblem,
        step_limit: int,
        on_clause: Optional[Callable[[Clause], None]] = None,
    ):
        self.F = pqe.problem.copy()
        self.step_limit = step_limit
        # Sees each solution clause the moment it is added.
        self.on_clause = on_clause
        # Closed targets' final D-sequents, in closing order; dead views the keys.
        self.final: dict[int, DSequent] = {}
        self.dead = self.final.keys()
        self.solution: list[Clause] = []
        self.derivation: list[dict] = []
        self.steps = 0
        self.unsat_closed = False
        # The pass's probe formula and the certificates its probes share,
        # built at the pass's first cube probe and dropped when it closes.
        self.probe_formula: Optional[CnfProblem] = None
        self.probe_learned: list[Clause] = []
        # Models of "sat" cube probes, keyed by their values on ``order``,
        # each with the formula's length when it was stored.
        self.models: dict[tuple[bool, ...], tuple[dict[int, bool], int]] = {}
        # The branching order; decisions are always a prefix of it.
        self.order = sorted(mentioned_variables(self.F) - self.F.quantified)
        # The pass's detection results, cleared when the formula grows or
        # the pass's target closes.
        self.memo = _Memo(self.F, self.order)

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.step_limit:
            raise StepLimitError(f"step limit {self.step_limit} exceeded")

    def close(self, d: DSequent) -> None:
        """Record a target's final D-sequent, taking the target out."""
        self.final[d.target] = d
        self.derivation.append({"event": "retired", "index": d.target})
        self.probe_formula = None
        self.memo.clear()

    def dsequent(self, subspace: Iterable, target: int, rationale: str) -> DSequent:
        """A D-sequent about the current formula minus the closed targets."""
        return DSequent(
            tuple(subspace), target, len(self.F.clauses), rationale, tuple(self.dead)
        )

    def atomic(self, subspace: Iterable, target: int, rationale: str) -> DSequent:
        """A D-sequent from a single rule, logged as an ``atomic`` event."""
        d = self.dsequent(subspace, target, rationale)
        self.derivation.append(
            {"event": "atomic", "target": target, "rationale": rationale,
             "subspace": list(d.subspace)}
        )
        return d

    def emit(self, clause: Clause, index: int, event: str) -> None:
        """Add a clause over free variables only to the solution."""
        self.solution.append(clause)
        self.derivation.append(
            {"event": event, "index": index, "clause": list(clause.literals)}
        )
        if self.on_clause is not None:
            self.on_clause(clause)

    def _add_clause(self, clause: Clause) -> int:
        idx = self.F.add_clause(clause)
        self.memo.clear()
        if self.probe_formula is not None:
            self.probe_formula.add_clause(clause)
        self.emit(clause, idx, "solution_clause")
        return idx

    def node(
        self,
        decisions: list[tuple[int, bool]],
        target: int,
        up: Optional[PropagationResult] = None,
    ) -> DSequent:
        """Cover the target with a D-sequent over this subspace.

        The returned subspace is a subset of ``decisions``.  The call may
        add solution clauses; only the given target is covered here.
        ``up`` is the parent's conflict-free propagation, carried on from
        here.  A detection of the target that an earlier node of the pass
        made and that still holds here is taken from the memo, charging
        its ticks, without building a detector (see ``_Memo``).
        """
        self.tick()
        if self.unsat_closed:
            return self.dsequent((), target, "conflict")
        res = self._propagate(decisions, up)
        if res.is_conflict:
            return self._conflict_node(decisions, target, res)

        state = self.memo.state(decisions)
        hit = self.memo.get(target, state)
        if hit is not None:
            got, ticks, _ = hit
            self.tick(ticks)
        else:
            trail = Assignment([Binding(v, val) for v, val in decisions])
            detector = _Detector(self.F, trail, self.dead, self.tick, self.memo)
            got = detector.detect(target)
            self.memo.put(target, got, detector.ticks, detector.mask, state)
        if got is not None:
            bindings, rationale = got
            return self.atomic(bindings.items(), target, rationale)
        if len(decisions) == len(self.order):
            return self.project_out_remaining(decisions, target)
        v = self.order[len(decisions)]
        left = self.node(decisions + [(v, False)], target, res)
        # A left result that never mentions v covers the whole subspace
        # already; only otherwise is the other branch needed.
        if not left.binds(v):
            return left
        right = self.node(decisions + [(v, True)], target, res)
        return self._combine(left, right, v, target)

    def _propagate(
        self, decisions: list[tuple[int, bool]], up: Optional[PropagationResult]
    ) -> PropagationResult:
        """Propagate ``decisions``, carrying on from ``up`` unless that conflicts.

        A conflict is replayed from scratch, because its analysis reads the trail.
        """
        if up is not None:
            v, val = decisions[-1]
            held = up.trail.value(v)
            # A decision ``up`` already binds adds nothing, or conflicts.
            if held is None or held == val:
                new = decisions[-1:] if held is None else ()
                res = propagate(self.F, (), up, new, self.dead)
                if not res.is_conflict:
                    return res
        return propagate(self.F, (), Assignment(), decisions, self.dead)

    def _conflict_node(self, decisions, target, res) -> DSequent:
        steps_log: list[tuple[Clause, int]] = []
        # The decisions bind free variables only, so the derived clause,
        # which keeps just the literals they falsify, is over free ones.
        derived = analyze_conflict(res, steps_log)
        twin = self._alive_twin(derived)
        # An identical live clause justifies the target here already, and
        # adding a copy would change nothing.
        idx = twin if twin is not None else self._add_clause(derived)
        self.derivation.append(
            {
                "event": "conflict_clause",
                "index": idx,
                "reused": twin is not None,
                "clause": list(derived.literals),
                "start": self._alive_twin(res.conflict),
                "steps": [[self._alive_twin(r), v] for r, v in steps_log],
                "decisions": list(decisions),
            }
        )
        if derived.is_empty():
            # The whole formula is unsatisfiable: the empty clause is on
            # the solution side and every target is redundant everywhere.
            self.unsat_closed = True
        sub = ((abs(l), l < 0) for l in derived.literals)
        return self.dsequent(sub, target, "conflict")

    def _alive_twin(self, clause: Clause) -> Optional[int]:
        """Lowest index of a live clause with the given clause's exact content.

        A twin has the same least literal, so it is filed under it in the
        least-literal index (the empty clause under 0), whose lists
        ascend: the first hit is the lowest index.

        It also names the conflict and reason clauses of a log, because
        propagation only ever reads the lowest live copy of a content: the
        first falsified clause in scan order is reported, units fire from
        a min-heap, and a later copy is satisfied by the time its turn
        comes.
        """
        least = min(clause.literals, default=0)
        for j in self.F.least_literal_index().get(least, ()):
            if j in self.dead:
                continue
            if self.F.clauses[j].literal_set == clause.literal_set:
                return j
        return None

    def project_out_remaining(
        self, decisions: list[tuple[int, bool]], target: int
    ) -> DSequent:
        """Settle a full free cube x, where detection failed, by probing.

        Does the live formula, the target included, entail h, the clause
        x falsifies?  If not, it has a model at x, and so does it without
        the target: a ``"sat"`` D-sequent over x.  If so, h is shrunk by
        dropping each literal in turn while the entailment holds, joins
        the formula and the solution, and the target is redundant where h
        is false.  A probe that answers yes closes with a clause implied by
        the live formula and made of h's literals, so a literal missing
        from the latest such clause is dropped without a probe.

        All probes of a pass share one probe formula, the live formula
        that ``_add_clause`` keeps growing, and one certificate list.
        Within a pass the live formula only gains clauses (closed targets
        change only between passes), so a certificate learned by one probe
        stays implied for the next.  Probe steps count against the budget.
        The name is kept from the variable elimination this replaced,
        because the benchmark's tracer wraps the method by it as
        ``pqe.project``.
        """
        if self._stored_model(tuple(val for _, val in decisions)) is not None:
            return self.atomic(decisions, target, "sat")
        if self.probe_formula is None:
            live = [c for i, c in enumerate(self.F.clauses) if i not in self.dead]
            self.probe_formula = CnfProblem(self.F.var_count, live)
            self.probe_learned = []

        def closing(lits: list[int]) -> Optional[Clause]:
            limit = self.step_limit - self.steps
            out = probe(
                self.probe_formula, Clause(lits), self.probe_learned, limit, "cube probe"
            )
            self.tick(out.steps)
            if out.model is not None:
                key = tuple(out.model[v] for v in self.order)
                self.models[key] = (out.model, len(self.F.clauses))
            return out.closing_clause

        lits = [-v if val else v for v, val in decisions]
        closed = closing(lits)
        if closed is None:
            return self.atomic(decisions, target, "sat")
        for lit in list(lits):
            rest = [m for m in lits if m != lit]
            if lit not in closed.literal_set:
                lits = rest
                continue
            got = closing(rest)
            if got is not None:
                lits, closed = rest, got
        idx = self._add_clause(Clause(lits))
        self.derivation.append(
            {"event": "probe_clause", "index": idx, "clause": lits,
             "decisions": list(decisions)}
        )
        if not lits:
            self.unsat_closed = True
        return self.dsequent(((abs(l), l < 0) for l in lits), target, "conflict")

    def _stored_model(self, cube: tuple[bool, ...]) -> Optional[dict[int, bool]]:
        """The model stored at these values on ``order``, if still a model.

        One that a clause added since it was stored falsifies is dropped.
        """
        stored = self.models.get(cube)
        if stored is None:
            return None
        model, size = stored
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in self.F.clauses[size:]):
            return model
        del self.models[cube]
        return None

    def _combine(self, dl: DSequent, dr: DSequent, v: int, t: int) -> DSequent:
        # node() already returned a left result that does not bind v.
        if not dr.binds(v):
            return dr
        joined = resolve_dsequents(dl, dr, v)
        self.derivation.append(
            {
                "event": "resolve_dsequents",
                "target": t,
                "var": v,
                "subspace": list(joined.subspace),
            }
        )
        return joined


def take_out(
    pqe: PqeProblem,
    step_limit: int = STEP_LIMIT,
    *,
    _on_clause: Optional[Callable[[Clause], None]] = None,
) -> PqeSolution:
    """Make the target clauses redundant, returning the clauses that do it.

    The returned solution clauses mention free variables only.  Appended
    to the input formula minus the targets, they preserve its projection
    onto the free variables.  ``_on_clause`` is ``decide_redundant``'s
    check of each solution clause as it is added.

    Raises StepLimitError once more than ``step_limit`` steps (see
    ``PqeSolution.steps``) are taken.  A cube probe may spend only what
    is left of the budget, and a literal that the latest closing clause
    already drops costs nothing.
    """
    engine = _Engine(pqe, step_limit, _on_clause)
    passes = []
    for t in pqe.targets:
        clause = engine.F.clauses[t]
        if not clause.variables() & engine.F.quantified:
            # Already free of quantified variables: it moves to the
            # solution verbatim and is trivially redundant afterwards.
            engine.emit(clause, t, "free_target")
        else:
            passes.append(t)
    # One pass per target, in order; each runs on the formula left by the
    # ones before it, with the clauses they took out retired.  The root
    # has no decisions, so its D-sequent has an empty subspace.
    for t in passes:
        engine.close(engine.node([], t))
    return PqeSolution(
        solution_clauses=list(engine.solution),
        final_dsequents=engine.final,
        derivation=engine.derivation,
        formula=engine.F,
        steps=engine.steps,
    )


def probe(
    problem: CnfProblem,
    h: Clause,
    learned: list[Clause],
    limit: int,
    what: str,
) -> SolveOutcome:
    """Solve ``problem`` under the assumptions that falsify ``h``.

    The answer is "unsat" exactly when ``problem`` entails ``h``, and then
    the closing clause is a subset of ``h`` that ``problem`` entails too.
    ``learned`` is the certificate list the probe shares with other probes
    (see ``solve``).  Raises StepLimitError naming ``what`` when ``limit``
    steps run out.
    """
    assumptions = [(abs(lit), lit < 0) for lit in h.literals]
    out = solve(problem, limit, assumptions, learned)
    if out.status == "unknown":
        raise StepLimitError(f"{what} hit the step limit")
    return out


class _NotRedundant(Exception):
    pass


def decide_redundant(pqe: PqeProblem, step_limit: int = STEP_LIMIT) -> bool:
    """Are the target clauses jointly redundant under the quantifier?

    Runs take_out while checking each produced solution clause against
    the formula minus the targets: a clause not already implied there
    witnesses that removing the targets loses models, so the answer is
    False the moment one appears.  If take_out finishes without such a
    clause, the targets were redundant to begin with.

    Each redundancy probe gets a budget of ``step_limit`` solver steps of
    its own; its steps are not charged to the take_out steps.
    """
    base = pqe.problem
    kept = [c for i, c in enumerate(base.clauses) if i not in pqe.targets]
    # One probe formula and certificate list serve every check: kept is fixed.
    kept_problem = CnfProblem(base.var_count, kept)
    learned: list[Clause] = []

    def check(h: Clause) -> None:
        out = probe(kept_problem, h, learned, step_limit, "redundancy probe")
        if out.status != "unsat":
            raise _NotRedundant

    try:
        take_out(pqe, step_limit, _on_clause=check)
    except _NotRedundant:
        return False
    return True


def sat_by_pqe(
    problem: CnfProblem, assignment: dict[int, bool]
) -> tuple[str, Optional[dict[int, bool]]]:
    """Decide satisfiability by taking out the clauses an assignment misses.

    All variables are treated as quantified, so the taken-out clauses can
    only be empty (unsatisfiable) or absent entirely (satisfiable: the
    formula minus the falsified clauses is satisfied by the given
    assignment, and equisatisfiability transfers the verdict).  With no
    free variable, the engine's cube probe runs at the empty cube, so a
    falsified target the detectors cannot settle is decided by one
    satisfiability call on the live formula.
    """
    for v in range(1, problem.var_count + 1):
        if v not in assignment:
            raise PqeError(f"assignment misses variable {v}")
    falsified = [
        i
        for i, c in enumerate(problem.clauses)
        if all(assignment[abs(l)] != (l > 0) for l in c)
    ]
    if not falsified:
        return "sat", dict(assignment)
    work = CnfProblem(
        problem.var_count,
        list(problem.clauses),
        frozenset(range(1, problem.var_count + 1)),
    )
    sol = take_out(PqeProblem(work, tuple(falsified)))
    if any(h.is_empty() for h in sol.solution_clauses):
        return "unsat", None
    for h in sol.solution_clauses:
        raise AssertionError(f"unexpected nonempty solution clause {h!r}")
    out = solve(problem)
    if out.status != "sat":
        raise AssertionError(
            "solution empty yet the direct solver disagrees: " + out.status
        )
    return "sat", out.model
