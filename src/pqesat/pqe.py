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

A failed detection is reused down the branch.  It depends only on the
trail values of the clauses it read, and a child adds one decision on a
free variable after propagation has found no live clause falsified.  So
when the formula has not grown since and the new variable occurs in none
of those clauses, the child takes the failure, charging the steps the
detection spent, without detecting again (see ``_Failure``).

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

from dataclasses import dataclass, replace
from functools import cached_property
from typing import AbstractSet, Callable, Iterable, Optional

from .bcp import PropagationResult, analyze_conflict, propagate
from .cnf import Assignment, Binding, Clause, CnfProblem, mentioned_variables
from .solver import SolveOutcome, SolverConfig, solve

MAX_CHAIN_DEPTH = 8


class PqeError(Exception):
    """Malformed instance or broken precondition in the PQE layer."""


class StepLimitError(Exception):
    """The configured step budget ran out before an answer was reached."""


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
class PqeConfig:
    # Work budget: StepLimitError once more steps than this are taken.
    # A step is one branching node, one chained _discharge attempt or one
    # solver step of a cube probe, so a change that only saves work spends
    # fewer.  A cube probe may spend only what is left of the budget, and
    # a literal that the latest closing clause already drops costs none.
    # A node that reuses its parent's failed detection is charged the
    # _discharge attempts that detection made, as if it had run again.  A
    # cube settled by an earlier probe's model costs its node's step only.
    step_limit: int = 10**6
    # Invoked with every clause over free variables only that the engine
    # adds (the future solution clauses), the moment it is added.
    on_solution_clause: Optional[Callable[[Clause], None]] = None


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
    attempts and the solver steps of cube probes.  A reused failed
    detection charges the ``_discharge`` attempts it would spend if run
    again; a cube settled by an earlier probe's model charges no solver
    step.  Cube probes share certificates within a pass, so a probe's
    steps depend on the probes before it.  It is a budget count, not an
    output; two engines that agree on every other field may spend
    different steps.
    """

    solution_clauses: list[Clause]
    final_dsequents: dict[int, DSequent]
    derivation: list[dict]
    formula: CnfProblem
    steps: int


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

    Three invariants keep failed detections cheap without changing any
    result.  A subsumption witness lies inside the clause plus the
    falsified literals, so it shares a literal with the clause or is
    falsified whole: only the clause's occurrence lists and the falsified
    clauses are candidates, walked in index order so the first witness is
    the one a scan of the whole formula finds.  And no discharge ever puts
    a ``stack`` member into ``removed``, while at ``MAX_CHAIN_DEPTH`` no
    discharge runs at all: so a blocked check whose literal has an open,
    non-clashing partner in ``stack``, or any such partner at the depth
    cap, fails before a single partner is discharged.  Only ``steps``
    tells the difference, one tick per ``_discharge`` not attempted.
    Finally, a check reads other clauses only through occurrence lists
    and ``falsified``, and ``read`` collects every index it walks.  The
    engine detects only after propagation has found no live clause
    falsified, so ``falsified`` then holds dead clauses alone, and a
    failed detection depends on nothing but the formula's length and the
    trail values of the ``read`` clauses: under a trail extended by a
    variable none of them holds, it fails again after the same ticks.
    """

    def __init__(
        self,
        problem: CnfProblem,
        trail: Assignment,
        dead: AbstractSet[int],
        tick: Optional[Callable[[], None]] = None,
    ):
        self.problem = problem
        self.trail = trail
        self.dead = dead
        self.tick = tick
        # Every clause index a check has looked at, a superset of the
        # clauses whose trail values decided the outcome.
        self.read: set[int] = set()

    @cached_property
    def falsified(self) -> frozenset[int]:
        """The clauses the trail falsifies whole, the empty clause among them.

        The trail never changes, so they are found once, and only for a
        detection that gets as far as a subsumption check.
        """
        false_lits = self.trail.false_lits
        return frozenset(
            j
            for j, c in enumerate(self.problem.clauses)
            if c.literal_set <= false_lits
        )

    def detect(self, index: int) -> Optional[tuple[dict[int, bool], str]]:
        clause = self.problem.clauses[index]
        stack = frozenset([index])
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
        # So a witness shares a literal with the clause or is falsified
        # whole; walking those candidates in index order finds the same
        # first witness as a scan of the whole formula.
        allowed = clause.literal_set | false_lits
        occurrences = self.problem.occurrences
        candidates = self.falsified.union(*(occurrences(lit) for lit in clause))
        self.read.update(candidates)
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
        for own in clause:
            if abs(own) not in quantified or self.trail.is_assigned(abs(own)):
                continue
            clash = neg_open - {-own}
            partners = self.problem.occurrences(-own)
            self.read.update(partners)
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

    def _discharge(
        self, index: int, stack: frozenset[int], removed: frozenset[int], depth: int
    ) -> Optional[tuple[dict[int, bool], frozenset[int]]]:
        if self.tick is not None:
            self.tick()
        # Only _blocked calls this, for a partner it found unsatisfied.
        got = self._subsumed(index, stack, removed)
        if got is not None:
            return got, removed
        return self._blocked(index, stack, removed, depth)


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


@dataclass(frozen=True)
class _Failure:
    """A failed detection, handed from a node to its children.

    ``read`` holds every clause the detection looked at, and ``ticks`` the
    steps it spent, when the formula had ``formula_size`` clauses.  A child
    adds one decision on a free variable, and its propagation has found no
    live clause falsified.  If the formula has not grown since and the new
    variable is in none of the ``read`` clauses, every check the detection
    made sees the same trail values and the same candidates, so a fresh
    detection would fail again after the same ticks.
    """

    formula_size: int
    read: AbstractSet[int]
    ticks: int

    def holds_after(self, problem: CnfProblem, v: int) -> bool:
        return (
            len(problem.clauses) == self.formula_size
            and self.read.isdisjoint(problem.occurrences(v))
            and self.read.isdisjoint(problem.occurrences(-v))
        )


class _Engine:
    def __init__(self, pqe: PqeProblem, config: PqeConfig):
        self.F = pqe.problem.copy()
        self.config = config
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

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.config.step_limit:
            raise StepLimitError(
                f"step limit {self.config.step_limit} exceeded"
            )

    def close(self, d: DSequent) -> None:
        """Record a target's final D-sequent, taking the target out."""
        self.final[d.target] = d
        self.derivation.append({"event": "retired", "index": d.target})
        self.probe_formula = None

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
        if self.config.on_solution_clause is not None:
            self.config.on_solution_clause(clause)

    def _add_clause(self, clause: Clause) -> int:
        idx = self.F.add_clause(clause)
        if self.probe_formula is not None:
            self.probe_formula.add_clause(clause)
        self.emit(clause, idx, "solution_clause")
        return idx

    def node(
        self,
        decisions: list[tuple[int, bool]],
        target: int,
        failed: Optional[_Failure] = None,
        up: Optional[PropagationResult] = None,
    ) -> DSequent:
        """Cover the target with a D-sequent over this subspace.

        The returned subspace is a subset of ``decisions``.  The call may
        add solution clauses; only the given target is covered here.
        ``failed`` is the parent's failed detection, reused when it still
        holds here (see ``_Failure``), and ``up`` the parent's conflict-free
        propagation, carried on from here.
        """
        self.tick()
        if self.unsat_closed:
            return self.dsequent((), target, "conflict")
        res = self._propagate(decisions, up)
        if res.is_conflict:
            return self._conflict_node(decisions, target, res)

        if failed is not None and failed.holds_after(self.F, decisions[-1][0]):
            self.tick(failed.ticks)
        else:
            trail = Assignment(
                [Binding(v, val, decision=True) for v, val in decisions]
            )
            detector = _Detector(self.F, trail, dead=self.dead, tick=self.tick)
            before = self.steps
            got = detector.detect(target)
            if got is not None:
                bindings, rationale = got
                return self.atomic(bindings.items(), target, rationale)
            failed = _Failure(len(self.F.clauses), detector.read, self.steps - before)
        if len(decisions) == len(self.order):
            return self.project_out_remaining(decisions, target)
        v = self.order[len(decisions)]
        left = self.node(decisions + [(v, False)], target, failed, res)
        # A left result that never mentions v covers the whole subspace
        # already; only otherwise is the other branch needed.
        if not left.binds(v):
            return left
        right = self.node(decisions + [(v, True)], target, failed, res)
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
                res = propagate(self.F, (), up.trail, new, self.dead, parent=up)
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

        A twin is on every literal's occurrence list, which is ascending,
        so the first hit is the lowest index; only the empty clause, with
        no literal, scans every index.

        It also names the conflict and reason clauses of a log, because
        propagation only ever reads the lowest live copy of a content: the
        first falsified clause in scan order is reported, units fire from
        a min-heap, and a later copy is satisfied by the time its turn
        comes.
        """
        lits = clause.literals
        candidates = self.F.occurrences(lits[0]) if lits else range(len(self.F.clauses))
        for j in candidates:
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
            limit = self.config.step_limit - self.steps
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


def take_out(pqe: PqeProblem, config: Optional[PqeConfig] = None) -> PqeSolution:
    """Make the target clauses redundant, returning the clauses that do it.

    The returned solution clauses mention free variables only.  Appended
    to the input formula minus the targets, they preserve its projection
    onto the free variables.
    """
    if config is None:
        config = PqeConfig()
    engine = _Engine(pqe, config)
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
    out = solve(problem, SolverConfig(step_limit=limit), assumptions, learned)
    if out.status == "unknown":
        raise StepLimitError(f"{what} hit the step limit")
    return out


class _NotRedundant(Exception):
    pass


def decide_redundant(pqe: PqeProblem, config: Optional[PqeConfig] = None) -> bool:
    """Are the target clauses jointly redundant under the quantifier?

    Runs take_out while checking each produced solution clause against
    the formula minus the targets: a clause not already implied there
    witnesses that removing the targets loses models, so the answer is
    False the moment one appears.  If take_out finishes without such a
    clause, the targets were redundant to begin with.  The caller's
    ``on_solution_clause`` sees each clause before it is checked.
    """
    if config is None:
        config = PqeConfig()
    base = pqe.problem
    kept = [c for i, c in enumerate(base.clauses) if i not in pqe.targets]
    # One probe formula and certificate list serve every check: kept is fixed.
    kept_problem = CnfProblem(base.var_count, kept)
    learned: list[Clause] = []

    def check(h: Clause) -> None:
        if config.on_solution_clause is not None:
            config.on_solution_clause(h)
        out = probe(kept_problem, h, learned, config.step_limit, "redundancy probe")
        if out.status != "unsat":
            raise _NotRedundant

    probing = replace(config, on_solution_clause=check)
    try:
        take_out(pqe, probing)
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
