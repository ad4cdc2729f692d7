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

Targets are taken out one at a time, oldest first.  Each pass works on
the current formula: clauses added by earlier passes participate, clauses
already taken out are retired and ignored.  That makes every pass a
statement about removing a single clause from the formula it actually ran
on, so passes compose by simple chaining.  Conflicts found by propagation
add derived clauses to the working formula; derived clauses descending
from a target are tainted, and a tainted clause over quantified variables
becomes a target itself, queued for a later pass, so the right-hand side
of the final equivalence never depends on the targets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import AbstractSet, Callable, Iterable, Optional

from .bcp import analyze_conflict, propagate
from .cnf import Assignment, Binding, Clause, CnfProblem
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
    # projection tick, so a change that only saves work spends fewer.
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
    D-sequent; every other target (original or grown along the way) maps
    to its final empty-subspace D-sequent in ``final_dsequents``.
    ``formula`` is the grown formula, so D-sequent clause indices stay
    meaningful.  ``steps`` is the work spent against ``step_limit``:
    branching nodes, chained ``_discharge`` attempts and projection ticks.
    It is a budget count, not an output; two engines that agree on every
    other field may spend different steps.
    """

    solution_clauses: list[Clause]
    final_dsequents: dict[int, DSequent]
    grown_targets: list[int]
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

    Two invariants keep failed detections cheap without changing any
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
        clause = self.problem.clauses[index]
        neg_cs = frozenset(-lit for lit in clause.literal_set)
        quantified = self.problem.quantified
        false_lits = self.trail.false_lits
        for own in clause:
            if abs(own) not in quantified or self.trail.is_assigned(abs(own)):
                continue
            # Satisfied partners bring their bindings, clashing ones drop
            # out, and open ones wait for a discharge.
            bindings: dict[int, bool] = {}
            pending: list[int] = []
            stuck = False
            for j in self.problem.occurrences(-own):
                if j == index or j in removed or j in self.dead:
                    continue
                w = self.problem.clauses[j]
                sat = self._satisfied(w)
                if sat is not None:
                    bindings.update(sat)
                    continue
                # w is not satisfied, so its open literals are the ones
                # the trail does not falsify.
                if any(
                    m != -own and m in neg_cs and m not in false_lits
                    for m in w.literal_set
                ):
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


def _strict_subset_test(
    family: Iterable[frozenset[int]],
) -> Callable[[frozenset[int]], bool]:
    """A test for "some member of ``family`` is a strict subset of s".

    Each member is filed under its smallest literal, and the empty set
    under 0, which is no literal.  A strict subset of s holds its own
    smallest literal, which is then in s, so only the buckets of s's
    literals need checking.  The empty set is a strict subset of every
    non-empty s.
    """
    buckets: dict[int, list[frozenset[int]]] = {}
    for t in family:
        buckets.setdefault(min(t, default=0), []).append(t)
    has_empty = 0 in buckets

    def test(s: frozenset[int]) -> bool:
        if s and has_empty:
            return True
        return any(t < s for lit in s for t in buckets.get(lit, ()))

    return test


class _Engine:
    def __init__(self, pqe: PqeProblem, config: PqeConfig):
        base = pqe.problem
        # Fresh clause objects so identity lookups are unambiguous even if
        # the caller reused objects between positions.
        self.F = CnfProblem(
            base.var_count,
            [Clause(c.literals) for c in base.clauses],
            base.quantified,
        )
        self.config = config
        self.index_of: dict[int, int] = {
            id(c): i for i, c in enumerate(self.F.clauses)
        }
        self.targets: list[int] = []
        self.tainted: set[int] = set()
        # Closed targets' final D-sequents, in closing order; dead views the keys.
        self.final: dict[int, DSequent] = {}
        self.dead = self.final.keys()
        self.solution: list[Clause] = []
        self.derivation: list[dict] = []
        self.steps = 0
        self.unsat_closed = False
        self.order = sorted(self.F.free_vars) + sorted(self.F.quantified)
        # How often each clause content has been added during solving;
        # a target content coming back a third time is eliminated by
        # resolution instead of another branching pass.
        self.births: Counter = Counter()

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.config.step_limit:
            raise StepLimitError(
                f"step limit {self.config.step_limit} exceeded"
            )

    def add_target(self, index: int) -> None:
        self.targets.append(index)
        self.tainted.add(index)

    def close(self, d: DSequent) -> None:
        """Record a target's final D-sequent, taking the target out."""
        self.final[d.target] = d
        self.derivation.append({"event": "retired", "index": d.target})

    def dsequent(self, subspace: Iterable, target: int, rationale: str) -> DSequent:
        """A D-sequent about the current formula minus the closed targets."""
        return DSequent(
            tuple(subspace), target, len(self.F.clauses), rationale, tuple(self.dead)
        )

    def emit(self, clause: Clause, index: int, event: str) -> None:
        """Add a clause over free variables only to the solution."""
        self.solution.append(clause)
        self.derivation.append(
            {"event": event, "index": index, "clause": list(clause.literals)}
        )
        if self.config.on_solution_clause is not None:
            self.config.on_solution_clause(clause)

    def _add_clause(self, clause: Clause, tainted: bool) -> int:
        idx = self.F.add_clause(clause)
        self.index_of[id(clause)] = idx
        self.births[clause.literal_set] += 1
        if tainted:
            self.tainted.add(idx)
        if not clause.variables() & self.F.quantified:
            self.emit(clause, idx, "solution_clause")
        return idx

    def node(self, decisions: list[tuple[int, bool]], target: int) -> DSequent:
        """Cover the target with a D-sequent over this subspace.

        The returned subspace is a subset of ``decisions``.  The call may
        add clauses and queue new targets for later passes; only the given
        target is covered here.
        """
        self.tick()
        if self.unsat_closed:
            return self.dsequent((), target, "conflict")
        res = propagate(self.F, (), Assignment(), decisions, self.dead)
        if res.is_conflict:
            return self._conflict_node(decisions, target, res)

        trail = Assignment(
            [Binding(v, val, decision=True) for v, val in decisions]
        )
        got = _Detector(self.F, trail, dead=self.dead, tick=self.tick).detect(target)
        if got is not None:
            bindings, rationale = got
            d = self.dsequent(bindings.items(), target, rationale)
            self.derivation.append(
                {
                    "event": "atomic",
                    "target": target,
                    "rationale": rationale,
                    "subspace": list(d.subspace),
                }
            )
            return d
        v = self._branch_var(decisions)
        left = self.node(decisions + [(v, False)], target)
        # A left result that never mentions v covers the whole subspace
        # already; only otherwise is the other branch needed.
        if not left.binds(v):
            return left
        right = self.node(decisions + [(v, True)], target)
        return self._combine(left, right, v, target)

    def _conflict_node(self, decisions, target, res) -> DSequent:
        steps_log: list[tuple[Clause, int]] = []
        derived = analyze_conflict(res, steps_log)
        start = self.index_of[id(res.conflict)]
        used = [start] + [self.index_of[id(r)] for r, _ in steps_log]
        tainted = any(i in self.tainted for i in used)
        twin = self._alive_twin(derived, target)
        if twin is not None:
            # The formula already holds an identical clause that is not
            # being taken out; it justifies the target here, and adding a
            # copy would change nothing.
            idx = twin
        else:
            idx = self._add_clause(derived, tainted)
        self.derivation.append(
            {
                "event": "conflict_clause",
                "index": idx,
                "reused": twin is not None,
                "clause": list(derived.literals),
                "start": start,
                "steps": [[self.index_of[id(r)], v] for r, v in steps_log],
                "tainted": tainted,
                "decisions": list(decisions),
            }
        )
        if derived.is_empty():
            # The whole formula is unsatisfiable: the empty clause joins
            # the solution side and every target is redundant everywhere.
            self.unsat_closed = True
            return self.dsequent((), target, "conflict")
        if twin is None and tainted and derived.variables() & self.F.quantified:
            # The derived clause leans on targets and still has quantified
            # variables, so it has to be taken out in a later pass.
            self.add_target(idx)
            self.derivation.append({"event": "new_target", "index": idx})
        sub = ((abs(l), l < 0) for l in derived.literals)
        return self.dsequent(sub, target, "conflict")

    def _alive_twin(self, derived: Clause, target: int) -> Optional[int]:
        """Index of a live clause with the derived clause's exact content.

        The target itself never counts: the clause justifying its removal
        must be one that stays behind.  A twin is on every literal's
        occurrence list, which is ascending, so the first hit is the lowest
        index; only the empty clause, with no literal, scans every index.
        """
        lits = derived.literals
        candidates = self.F.occurrences(lits[0]) if lits else range(len(self.F.clauses))
        for j in candidates:
            if j == target or j in self.dead:
                continue
            if self.F.clauses[j].literal_set == derived.literal_set:
                return j
        return None

    def project_out_remaining(self) -> list[int]:
        """Eliminate the quantified variables outright and emit the result.

        Runs variable elimination over the live formula, cheapest variable
        first (fewest positive-negative occurrence pairs): the variable's
        non-tautological resolvents replace the clauses mentioning it, and
        clauses subsumed by a subset clause are dropped.  The subset test
        looks only at the clauses filed under one of the clause's own
        literals (see ``_strict_subset_test``).  What survives
        mentions free variables only and is exactly the projection of the
        live formula, so adding it makes every remaining target redundant
        at once.  This is the last resort when branching keeps re-deriving
        a target's own content; unlike the branching passes it always
        terminates.  Every intermediate set here is canonical (subset
        minimality does not depend on visit order), so the output is
        deterministic.
        """
        work: set[frozenset] = {
            c.literal_set
            for i, c in enumerate(self.F.clauses)
            if i not in self.dead
        }
        remaining = set(self.F.quantified)
        while remaining:
            self.tick()
            counts = {v: [0, 0] for v in remaining}
            for s in work:
                for lit in s:
                    pair = counts.get(abs(lit))
                    if pair is not None:
                        pair[0 if lit > 0 else 1] += 1
            v = min(remaining, key=lambda w: (counts[w][0] * counts[w][1], w))
            remaining.discard(v)
            pos = [s for s in work if v in s]
            neg = [s for s in work if -v in s]
            merged = {s for s in work if v not in s and -v not in s}
            for a in pos:
                for b in neg:
                    self.tick()
                    res = (a - {v}) | (b - {-v})
                    if not any(-lit in res for lit in res):
                        merged.add(res)
            subsumed = _strict_subset_test(merged)
            work = set()
            for s in merged:
                self.tick()
                if not subsumed(s):
                    work.add(s)
        added = []
        order = sorted(
            work, key=lambda s: (len(s), sorted((abs(l), l < 0) for l in s))
        )
        for s in order:
            literals = sorted(s, key=lambda l: (abs(l), l < 0))
            clause = Clause(literals)
            if self._alive_twin(clause, -1) is not None:
                continue
            idx = self._add_clause(clause, tainted=True)
            added.append(idx)
            if clause.is_empty():
                self.unsat_closed = True
        self.derivation.append({"event": "projected", "clauses": added})
        return added

    def _branch_var(self, decisions: list[tuple[int, bool]]) -> int:
        decided = {v for v, _ in decisions}
        for v in self.order:
            if v not in decided:
                return v
        raise AssertionError(
            "no variable left to branch on with the target still undetected"
        )

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
    to the input formula minus the targets (original and grown), they
    preserve its projection onto the free variables.
    """
    if config is None:
        config = PqeConfig()
    engine = _Engine(pqe, config)
    for t in pqe.targets:
        clause = engine.F.clauses[t]
        if not clause.variables() & engine.F.quantified:
            # Already free of quantified variables: it moves to the
            # solution verbatim and is trivially redundant afterwards.
            engine.emit(clause, t, "free_target")
        else:
            engine.add_target(t)
    # One pass per target, oldest first.  A pass may queue new targets;
    # each later pass runs on the formula left by the ones before it,
    # with the clauses they took out retired.
    while True:
        pending = [t for t in engine.targets if t not in engine.final]
        if not pending:
            break
        t = pending[0]
        content = engine.F.clauses[t].literal_set
        if engine.births[content] >= 2 and not engine.unsat_closed:
            # Branching keeps re-deriving this content, so stop chasing
            # it: eliminate the quantified block outright, which makes
            # every pending target redundant in one stroke.
            engine.project_out_remaining()
            for p in pending:
                engine.close(engine.dsequent((), p, "projected"))
            continue
        d = engine.node([], t)
        if d.subspace != ():
            raise AssertionError(f"target {t} left with nonempty subspace {d}")
        engine.close(d)
    return PqeSolution(
        solution_clauses=list(engine.solution),
        final_dsequents=engine.final,
        grown_targets=[t for t in engine.targets if t not in pqe.targets],
        derivation=engine.derivation,
        formula=engine.F,
        steps=engine.steps,
    )


def bounded_solve(
    var_count: int, clauses: list[Clause], limit: int, what: str
) -> SolveOutcome:
    """Solve ``clauses`` in ``limit`` steps, or raise StepLimitError naming ``what``."""
    out = solve(CnfProblem(var_count, clauses), SolverConfig(step_limit=limit))
    if out.status == "unknown":
        raise StepLimitError(f"{what} hit the step limit")
    return out


def entails(
    var_count: int, clauses: list[Clause], h: Clause, limit: int, what: str
) -> bool:
    """Does every model of ``clauses`` satisfy ``h``?

    Asks the solver, within ``limit`` steps, whether ``clauses`` plus one
    unit per negated literal of ``h`` (in ``h``'s order) is unsatisfiable.
    Raises StepLimitError naming ``what`` when the budget runs out.
    """
    units = [Clause([-lit]) for lit in h.literals]
    return bounded_solve(var_count, [*clauses, *units], limit, what).status == "unsat"


class _NotRedundant(Exception):
    pass


def decide_redundant(pqe: PqeProblem, config: Optional[PqeConfig] = None) -> bool:
    """Are the target clauses jointly redundant under the quantifier?

    Runs take_out while checking each produced solution clause against
    the formula minus the targets: a clause not already implied there
    witnesses that removing the targets loses models, so the answer is
    False the moment one appears.  If take_out finishes without such a
    clause, the targets were redundant to begin with.
    """
    if config is None:
        config = PqeConfig()
    base = pqe.problem
    kept = [c for i, c in enumerate(base.clauses) if i not in pqe.targets]

    def check(h: Clause) -> None:
        if not entails(base.var_count, kept, h, config.step_limit, "redundancy probe"):
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
    assignment, and equisatisfiability transfers the verdict).
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
