"""SAT solving driven by clause-cluster induction.

Instead of branching on variables, the solver repeatedly picks an
unsatisfied clause C and one of its unassigned literals l, builds the
small assignment that satisfies l while falsifying the rest of C (the
vicinity of (C, l)), and recurses into it.  Each failed vicinity yields a
certificate clause.  Once every (clause, shared literal) pair of some
clause's cluster is covered by a certificate falsified in the matching
vicinity, an induction step produces a clause refuting the whole current
subspace without visiting the remaining branches.

Certificates are collected in a side set P by default; a config switch
appends them to the formula instead.  Certificate lookups always consult
the learned clauses only — original formula clauses never serve as
stored certificates, though an exploration may well return a copy of one.

Coverage checks rest on three invariants.  Within one exploration frame
the trail does not change after propagation, and the learned clauses are
only ever appended to.  So a cluster's required pairs are fixed for the
frame, and a covered pair stays covered by the same first certificate.
Each frame keeps a ``CoverageTable`` that tests a pair only against the
certificates learned since it last tested it.  The same invariants let a
frame's propagation start from its parent frame's counters (see
``bcp.propagate``), counting only the clauses learned since the parent ran.
Third, at a frame's fixpoint the trail falsifies no learned clause that
propagation reads: such a clause would have been a conflict, and a clause
learned below the frame is passed up rather than learned when the trail
falsifies it.  So a certificate keeps a literal its pair's vicinity
falsifies, and the frame's table reaches it through the vicinity's
literals alone (see ``CoverageTable``).  Clusters come from the formula
(``cnf.cluster_of``), which keeps each one until it gains a clause, so
every solve on one formula shares them; under ``learn_to="F"`` the
formula drops them as a certificate is appended.

``solve`` takes assumptions, in the style of MiniSat's assumption
interface (Een and Soerensson, An Extensible SAT-solver, SAT 2003): they
are the root exploration's decisions rather than unit clauses.  Under
assumptions the closing clause of an "unsat" answer is the root
certificate, a clause the formula implies whose literals the assumptions
all falsify.  Every certificate is implied by the formula alone, never by
the assumptions, so a caller may hand several calls one certificate list
while their formula only gains clauses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import AbstractSet, NamedTuple, Optional, Sequence

from .bcp import analyze_conflict, propagate, resolve_to_base
from .cnf import Assignment, Clause, CnfError, CnfProblem, cluster_of


class VicinitySpec(NamedTuple):
    """The branching assignment for one (clause, literal) pair.

    ``bindings`` satisfies the chosen literal first, then falsifies the
    clause's other unassigned literals in clause order.  ``falsified``
    holds the literals the bindings falsify.
    """

    clause_index: int
    literal: int
    bindings: tuple[tuple[int, bool], ...]
    falsified: frozenset[int]


def specify_vicinity(
    problem: CnfProblem, index: int, literal: int, trail: Assignment
) -> VicinitySpec:
    clause = problem.clauses[index]
    if not clause.contains(literal):
        raise CnfError(f"clause {index} does not contain literal {literal}")
    if trail.is_assigned(abs(literal)):
        raise CnfError(f"literal {literal} is already assigned")
    if trail.satisfies_clause(clause):
        raise CnfError(f"clause {index} is already satisfied")
    bindings = [(abs(literal), literal > 0)]
    falsified = [-literal]
    for lit in clause.literals:
        if lit == literal or trail.is_assigned(abs(lit)):
            continue
        bindings.append((abs(lit), lit < 0))
        falsified.append(lit)
    return VicinitySpec(index, literal, tuple(bindings), frozenset(falsified))


def _walk_pairs(problem: CnfProblem, members: list[int], trail: Assignment):
    """Yield the required pairs of ``required_pairs``, one at a time.

    ``members`` is the cluster, seed first, as ``cluster_of`` gives it.
    """
    seed = problem.clauses[members[0]].literal_set
    true_lits = trail.true_lits
    false_lits = trail.false_lits
    for ci in members:
        c = problem.clauses[ci]
        if not true_lits.isdisjoint(c.literal_set):
            continue
        # In an unsatisfied clause a literal is unassigned unless false.
        for lit in c.literals:
            if lit in seed and lit not in false_lits:
                yield ci, lit


def required_pairs(
    problem: CnfProblem, index: int, trail: Assignment
) -> list[tuple[int, int]]:
    """All (cluster clause index, shared literal) pairs demanding coverage.

    A pair is required when the cluster clause is not satisfied by the
    trail and the shared literal is unassigned.  The seed clause pairs
    with each of its own unassigned literals.
    """
    return list(_walk_pairs(problem, cluster_of(problem, index), trail))


def certificate_for(
    spec: VicinitySpec, table: CoverageTable, start: int = 0
) -> Optional[Clause]:
    """First learned clause of ``table`` from ``start`` on falsified in the vicinity.

    Returns None when no such clause exists.  A function rather than a
    method, so that the benchmark's tracer (``bench/spans.py``) counts
    lookups by this name.
    """
    p = table.first(spec.falsified, start)
    return None if p is None else table.learned[p]


class _Coverage:
    """How far a seed's required pairs are known to be covered."""

    __slots__ = ("pairs", "certs", "spec", "tested")

    def __init__(self, pairs):
        self.pairs = pairs  # the pairs not yet reached, walked lazily
        self.certs: dict[tuple[int, int], Clause] = {}  # covered pairs, in order
        self.spec: Optional[VicinitySpec] = None  # first pair not known covered
        self.tested = 0  # learned clauses already tested against ``spec``


class CoverageTable:
    """A frame's induction state: which required pairs the learned clauses cover.

    Coverage only grows while the trail stays fixed and ``learned`` only
    grows: a pair's required status depends on the trail and the formula
    alone, and its first certificate stays first when clauses are
    appended.  So each seed keeps the first pair not yet known to be
    covered and how many learned clauses were tested against it, and a
    later query tests that pair only against the clauses learned since.
    Pairs and their vicinities are built only when reached, as most seeds
    fail at their first pair.  Clusters come from the formula, which keeps
    them for every solve on it.  A grown formula (``learn_to="F"``) can
    grow clusters, and the entries also depend on the trail and the
    learned list, so the table drops every entry when the clause count
    moves.

    Lookups file each learned clause under its least open literal.  Under
    the fixed trail a learned clause is either satisfied, and never a
    certificate, or the trail falsifies all its literals but a set ``u``
    of open ones.  It is then falsified in a pair's vicinity exactly when
    ``u`` is a subset of the literals the vicinity falsifies.  Filed under
    ``min(u)``, a clause is reached by reading only the lists of those
    literals, at most as many as the pair's clause is wide.  A clause the
    trail already falsifies (``u`` empty: off a fixpoint, or from a
    caller's list, which ``learn_to="F"`` does not propagate) is filed
    under 0 and covers every pair.  Clauses are classified in list order,
    only as far as a lookup needs, and every list ascends.  So the lowest
    hit at or after a start position, over the lists a lookup reads, is
    the first certificate a linear scan would find.
    """

    def __init__(
        self, problem: CnfProblem, learned: Sequence[Clause], trail: Assignment
    ):
        self.problem = problem
        self.learned = learned
        self.trail = trail
        # Per classified learned clause, its open literals, or None when satisfied.
        self.opens: list[Optional[frozenset[int]]] = []
        self.lists: dict[int, list[int]] = {}  # least open literal -> positions
        self._size = len(problem.clauses)
        self._entries: dict[int, _Coverage] = {}

    def first(self, falsified: AbstractSet[int], start: int) -> Optional[int]:
        """First position from ``start`` on whose open literals lie in ``falsified``."""
        opens = self.opens
        lists = self.lists
        best = len(opens)  # every filed position is below it
        # Clauses the trail falsifies cover every pair.
        positions = lists.get(0)
        if positions is not None and positions[-1] >= start:
            best = positions[bisect_left(positions, start)]
        for key in falsified:
            positions = lists.get(key)
            if positions is None or positions[-1] < start:
                continue
            i = bisect_left(positions, start) if positions[0] < start else 0
            for i in range(i, len(positions)):
                p = positions[i]
                if p >= best:
                    break
                if opens[p] <= falsified:
                    best = p
                    break
        if best < len(opens):
            return best
        # Every clause classified so far has been looked at, and ``best``
        # is their count; classify on.
        learned = self.learned
        true_lits = self.trail.true_lits
        false_lits = self.trail.false_lits
        for p in range(best, len(learned)):
            lits = learned[p].literal_set
            if not true_lits.isdisjoint(lits):
                opens.append(None)
                continue
            u = lits if lits.isdisjoint(false_lits) else lits - false_lits
            opens.append(u)
            lists.setdefault(min(u) if u else 0, []).append(p)
            if p >= start and u <= falsified:
                return p
        return None

    def _entry(self, seed: int) -> _Coverage:
        if len(self.problem.clauses) != self._size:
            self._size = len(self.problem.clauses)
            self._entries.clear()
        entry = self._entries.get(seed)
        if entry is None:
            members = cluster_of(self.problem, seed)
            entry = _Coverage(_walk_pairs(self.problem, members, self.trail))
            self._entries[seed] = entry
        return entry

    def uncovered(self, seed: int) -> Optional[VicinitySpec]:
        """The vicinity of the seed's first required pair without a certificate."""
        entry = self._entry(seed)
        learned = self.learned
        while True:
            spec = entry.spec
            if spec is None:
                pair = next(entry.pairs, None)
                if pair is None:
                    return None
                spec = entry.spec = specify_vicinity(self.problem, *pair, self.trail)
                entry.tested = 0
            tested = entry.tested
            if tested == len(learned):
                return spec
            entry.tested = len(learned)
            cert = certificate_for(spec, self, tested)
            if cert is None:
                return spec
            entry.certs[spec.clause_index, spec.literal] = cert
            entry.spec = None

    def certificates(self, seed: int) -> dict[tuple[int, int], Clause]:
        """Each covered pair of the seed's walked prefix, with its first certificate."""
        return self._entry(seed).certs


def check_induction(
    table: CoverageTable, candidates: Optional[Sequence[int]] = None
) -> Optional[int]:
    """Lowest clause index whose cluster is fully certified, or None.

    When every required pair of some clause's cluster has a learned
    certificate falsified in its vicinity, the formula has no model in
    the trail's subspace.  ``candidates`` restricts the scan.
    """
    clauses = table.problem.clauses
    indices = candidates if candidates is not None else range(len(clauses))
    true_lits = table.trail.true_lits
    for i in indices:
        # A satisfied clause has no required pairs of its own.
        if true_lits.isdisjoint(clauses[i].literal_set) and table.uncovered(i) is None:
            return i
    return None


def build_induction_clause(table: CoverageTable, index: int) -> Clause:
    """Assemble the clause an induction step is entitled to.

    Three ingredients: the seed clause's falsified literals; for each
    satisfied cluster clause, the negation of its earliest satisfying
    trail literal; and for each required pair, the certificate literals
    over variables foreign to that pair's clause.
    """
    missing = table.uncovered(index)
    if missing is not None:
        raise CnfError(
            f"pair ({missing.clause_index}, {missing.literal}) has no "
            "certificate; induction clause is not available"
        )
    problem = table.problem
    trail = table.trail
    certs = table.certificates(index)
    required = set(required_pairs(problem, index, trail))
    seed = problem.clauses[index]
    lits: list[int] = []

    def take(lit: int) -> None:
        if lit not in lits:
            lits.append(lit)

    for lit in seed:
        if trail.falsifies_literal(lit):
            take(lit)
    for ci in cluster_of(problem, index):
        c = problem.clauses[ci]
        earliest = trail.first_true_literal(c)
        if earliest is not None:
            take(-earliest)
        own = c.variables()
        for lit in c:
            if (ci, lit) in required:
                for b in certs[ci, lit]:
                    if abs(b) not in own:
                        take(b)
    return Clause(lits)


class CertRecord(NamedTuple):
    """A certificate clause with the context it was learned in."""

    clause: Clause
    clause_index: int
    literal: int
    subspace: tuple[tuple[int, bool], ...]


@dataclass
class SolverConfig:
    learn_to: str = "P"  # "P": side set; "F": append to the formula
    step_limit: int = 10**6

    def __post_init__(self):
        if self.learn_to not in ("P", "F"):
            raise ValueError(f"learn_to must be 'P' or 'F', not {self.learn_to!r}")


@dataclass
class SolveOutcome:
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[dict[int, bool]]
    certificates: list[CertRecord]  # in the order they were learned
    trace: list[dict] = field(default_factory=list)
    closing_clause: Optional[Clause] = None
    steps: int = 0
    problem: Optional[CnfProblem] = None  # final formula (grown under learn_to="F")


class _StepLimit(Exception):
    pass


class _Solver:
    def __init__(
        self,
        problem: CnfProblem,
        config: SolverConfig,
        learned: Optional[list[Clause]] = None,
    ):
        # Only learn_to="F" grows the formula, so only it needs a copy.
        self.F = problem.copy() if config.learn_to == "F" else problem
        self.config = config
        self.learned: list[Clause] = [] if learned is None else learned
        self.certs: list[CertRecord] = []
        self.trace: list[dict] = []
        self.steps = 0

    def run(self, assumptions: Sequence[tuple[int, bool]]) -> SolveOutcome:
        try:
            kind, payload = self._explore(Assignment(), list(assumptions), None)
        except _StepLimit:
            return SolveOutcome(
                "unknown", None, self.certs, self.trace, None, self.steps, self.F
            )
        if kind == "sat":
            model = {
                v: v in payload.true_lits for v in range(1, self.F.var_count + 1)
            }
            return SolveOutcome(
                "sat", model, self.certs, self.trace, None, self.steps, self.F
            )
        # The root certificate is falsified by the assumptions alone.
        if not payload.literal_set <= {-v if val else v for v, val in assumptions}:
            raise AssertionError(
                f"root exploration returned {payload!r}, which the "
                "assumptions do not falsify"
            )
        return SolveOutcome(
            "unsat", None, self.certs, self.trace, payload, self.steps, self.F
        )

    def _record(self, spec, certificate, induction, action):
        self.trace.append(
            {
                "iter": len(self.trace) + 1,
                "clause": spec.clause_index + 1,
                "literal": spec.literal,
                "certificate": (
                    sorted(certificate.literals, key=abs)
                    if certificate is not None
                    else None
                ),
                "induction": induction + 1 if induction is not None else None,
                "action": action,
            }
        )

    def _explore(self, base: Assignment, decisions: list[tuple[int, bool]], parent):
        self.steps += 1
        if self.steps > self.config.step_limit:
            raise _StepLimit
        side = self.learned if self.config.learn_to == "P" else ()
        res = propagate(self.F, side, base, decisions, parent=parent)
        if res.is_conflict:
            return ("cert", analyze_conflict(res))
        trail = res.trail
        # The first unsatisfied clause anchors every pick in this subspace;
        # the trail no longer changes here, so it stays the first one.  The
        # counted positions ascend and cover every unsatisfied clause, so
        # it is the first of them, unless that is a learned clause.
        primary = next(iter(res.open_count), None)
        if primary is None or primary >= len(self.F.clauses):
            return ("sat", trail)
        table = CoverageTable(self.F, self.learned, trail)
        while True:
            spec = table.uncovered(primary)
            if spec is None:
                # Certificates learned in other branches may already cover
                # every pair of the primary cluster before anything is
                # learned here, so the induction step applies now.
                b_ind = build_induction_clause(table, primary)
                return ("cert", resolve_to_base(b_ind, res))
            kind, payload = self._explore(trail, list(spec.bindings), res)
            if kind == "sat":
                self._record(spec, None, None, "sat")
                return ("sat", payload)
            cert = payload
            if trail.falsifies_clause(cert):
                # The certificate already refutes this whole subspace; pass
                # it up after clearing out locally propagated literals.
                cleaned = resolve_to_base(cert, res)
                self._record(spec, cleaned, None, "return")
                return ("cert", cleaned)
            self.learned.append(cert)
            if self.config.learn_to == "F":
                self.F.add_clause(cert)
            self.certs.append(
                CertRecord(cert, spec.clause_index, spec.literal, spec.bindings)
            )
            fired = check_induction(
                table, sorted(cluster_of(self.F, spec.clause_index))
            )
            if fired is not None:
                b_ind = build_induction_clause(table, fired)
                cleaned = resolve_to_base(b_ind, res)
                self._record(spec, cert, fired, "induct")
                return ("cert", cleaned)
            self._record(spec, cert, None, "learn")


def solve(
    problem: CnfProblem,
    config: Optional[SolverConfig] = None,
    assumptions: Sequence[tuple[int, bool]] = (),
    learned: Optional[list[Clause]] = None,
) -> SolveOutcome:
    """Decide satisfiability of a CNF formula, under optional assumptions.

    ``assumptions`` are (variable, value) pairs that the root exploration
    takes as its decisions.  Returns a SolveOutcome whose status is "sat"
    with a total model that agrees with the assumptions, "unsat" with the
    closing clause and the certificates learned in this call, or
    "unknown" when the step limit ran out.  The closing clause is the root
    certificate: the formula implies it, and the assumptions falsify every
    literal of it, so without assumptions it is the empty clause.

    ``learned``, when given, is the caller's certificate list.  The call
    consults it and appends to it, so several calls can share what they
    learn.  That is sound while every call's formula implies every clause
    already in the list, for instance when the formula only gains clauses
    between calls: each certificate is implied by the formula it was
    learned on, never by the assumptions.

    A repeated assumption is dropped; two that give one variable both
    values raise CnfError.
    """
    if config is None:
        config = SolverConfig()
    chosen: dict[int, bool] = {}
    for v, val in assumptions:
        if not 1 <= v <= problem.var_count:
            raise CnfError(f"assumption on variable {v} out of range")
        if chosen.setdefault(v, val) != val:
            raise CnfError(f"contradictory assumptions on variable {v}")
    return _Solver(problem, config, learned).run(list(chosen.items()))
