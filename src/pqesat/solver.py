"""SAT solving driven by clause-cluster induction.

Instead of branching on variables, the solver repeatedly picks an
unsatisfied clause C and one of its unassigned literals l, builds the
small assignment that satisfies l while falsifying the rest of C (the
vicinity of (C, l)), and recurses into it.  Each failed vicinity yields a
certificate clause.  Once every (clause, shared literal) pair of some
clause's cluster is covered by a certificate falsified in the matching
vicinity, an induction step produces a clause refuting the whole current
subspace without visiting the remaining branches.

Each exploration frame anchors its picks on one primary clause C: the
unsatisfied formula clause with the fewest open literals under the
frame's trail, the lowest index on ties.  Shortest clause first is the
cheapest structural rule (Jeroslow and Wang, Solving propositional
satisfiability problems, Annals of Mathematics and AI, 1990), and
propagation already counts every clause's open literals.

Certificates are collected in a side set P, and a solve never adds a
clause to its formula.  Certificate lookups consult the learned clauses
only — original formula clauses never serve as stored certificates,
though an exploration may well return a copy of one.

Coverage checks rest on three invariants.  Within one exploration frame
the trail does not change after propagation, and the learned clauses are
only ever appended to.  So a cluster's required pairs are fixed for the
frame, and a covered pair stays covered by the same first certificate;
the same invariants let a frame's propagation carry on from its parent
frame's (see ``bcp.propagate``).  Third, a frame's trail falsifies no
learned clause: at its fixpoint that would have been a conflict, and a
frame passes up, rather than learns, a certificate its trail falsifies.
Each frame keeps a ``CoverageTable`` built on these: one record per
(clause, literal) pair, with the pair's vicinity and first certificate,
shared by every seed that requires the pair.  A seed's required pairs
(``required_pairs``) pair each of its open literals with the unsatisfied
clauses holding it, so ``check_induction`` asks literals, once per call,
rather than seeds, and ``build_induction_clause`` reads the records.
Clusters come from the formula (``cnf.cluster_of``), which keeps each one
until it gains a clause, so every solve on one formula shares them.

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
from typing import AbstractSet, Iterator, NamedTuple, Optional, Sequence

from .bcp import analyze_conflict, propagate, resolve_to_base
from .cnf import Assignment, Clause, CnfError, CnfProblem, cluster_of

# The default work budget of every entry point, in steps.
STEP_LIMIT = 10**6


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


def required_pairs(
    problem: CnfProblem, index: int, trail: Assignment
) -> Iterator[tuple[int, int]]:
    """Yield the (cluster clause index, shared literal) pairs demanding coverage.

    A pair is required when the cluster clause is not satisfied by the
    trail and the shared literal is unassigned.  The seed clause pairs
    with each of its own unassigned literals.  Pairs come lazily, in
    cluster order and then clause order.
    """
    seed = problem.clauses[index].literal_set
    true_lits = trail.true_lits
    false_lits = trail.false_lits
    for ci in cluster_of(problem, index):
        c = problem.clauses[ci]
        if not true_lits.isdisjoint(c.literal_set):
            continue
        # In an unsatisfied clause a literal is unassigned unless false.
        for lit in c.literals:
            if lit in seed and lit not in false_lits:
                yield ci, lit


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


class _Pair:
    """One (clause, literal) pair's coverage, shared by every seed requiring it."""

    __slots__ = ("spec", "tested", "cert")

    def __init__(self, spec: VicinitySpec):
        self.spec = spec
        self.tested = 0  # learned clauses already tested against ``spec``
        self.cert: Optional[Clause] = None  # the first certificate, once found


class CoverageTable:
    """A frame's induction state: one coverage record per (clause, literal) pair.

    Coverage only grows while the trail stays fixed and ``learned`` only
    grows: a solve never grows its formula, so the clusters and their
    required pairs are fixed for a frame, and a pair's first certificate
    stays first when clauses are learned: the lowest learned position
    falsified in the pair's vicinity, whichever seed asks.  So the table
    keeps one record per pair asked for, with its vicinity, how many
    learned clauses were tested against it, and its first certificate
    once found; ``record`` tests only the clauses learned since.

    A seed's required pairs are the ``(c, l)`` with ``l`` an open literal
    of the seed and ``c`` an unsatisfied clause holding ``l`` (so ``c`` is
    in the cluster).  Seeds therefore share the records, and a seed is
    covered exactly when each of its open literals is: ``covers`` reads
    a literal's records in occurrence order and stops at the first
    without a certificate.

    Lookups file each learned clause under its least open literal.  Under
    the fixed trail a learned clause is either satisfied, and never a
    certificate, or it keeps a nonempty set ``u`` of open literals; one
    with none raises ``ValueError``.  It is falsified in a pair's vicinity
    exactly when ``u`` is a subset of the literals the vicinity falsifies,
    so, filed under ``min(u)``, it is reached by reading only the lists of
    those literals.  Clauses are classified in list order, only as far as
    a lookup needs, and every list ascends.  So the lowest hit at or after
    a start position, over the lists a lookup reads, is the first
    certificate a linear scan would find.
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
        self._pairs: dict[tuple[int, int], _Pair] = {}

    def first(self, falsified: AbstractSet[int], start: int) -> Optional[int]:
        """First position from ``start`` on whose open literals lie in ``falsified``."""
        opens = self.opens
        lists = self.lists
        best = len(opens)  # every filed position is below it
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
            if not u:
                raise ValueError(f"the trail falsifies learned clause {p}")
            opens.append(u)
            lists.setdefault(min(u), []).append(p)
            if p >= start and u <= falsified:
                return p
        return None

    def record(self, pair: tuple[int, int]) -> _Pair:
        """The pair's record, tested against every clause learned so far."""
        record = self._pairs.get(pair)
        if record is None:
            spec = specify_vicinity(self.problem, *pair, self.trail)
            record = self._pairs[pair] = _Pair(spec)
        tested = record.tested
        if record.cert is None and tested < len(self.learned):
            record.tested = len(self.learned)
            record.cert = certificate_for(record.spec, self, tested)
        return record

    def covers(self, lit: int) -> bool:
        """Whether every required pair ``(c, lit)`` of the open literal is certified."""
        clauses = self.problem.clauses
        true_lits = self.trail.true_lits
        for ci in self.problem.occurrences(lit):
            if true_lits.isdisjoint(clauses[ci].literal_set):
                if self.record((ci, lit)).cert is None:
                    return False
        return True


def check_induction(table: CoverageTable, candidates: Sequence[int]) -> Optional[int]:
    """First candidate clause whose cluster is fully certified, or None.

    When every required pair of some clause's cluster has a learned
    certificate falsified in its vicinity, the formula has no model in
    the trail's subspace.  ``candidates`` gives the clauses to scan and
    their order.  A cluster is fully certified exactly when the table
    covers each open literal of its seed.
    """
    clauses = table.problem.clauses
    true_lits = table.trail.true_lits
    false_lits = table.trail.false_lits
    covered: dict[int, bool] = {}
    for i in candidates:
        c = clauses[i]
        # A satisfied clause has no required pairs of its own.
        if not true_lits.isdisjoint(c.literal_set):
            continue
        for lit in c.literals:
            if lit in false_lits:
                continue
            ok = covered.get(lit)
            if ok is None:
                ok = covered[lit] = table.covers(lit)
            if not ok:
                break
        else:
            return i
    return None


def build_induction_clause(table: CoverageTable, index: int) -> Clause:
    """Assemble the clause an induction step is entitled to.

    Three ingredients: the seed clause's falsified literals; for each
    satisfied cluster clause, the negation of its earliest satisfying
    trail literal; and for each required pair, the certificate literals
    over variables foreign to that pair's clause.  The required pairs are
    read in ``required_pairs`` order, and the first one without a
    certificate raises ``CnfError``.
    """
    problem = table.problem
    trail = table.trail
    false_lits = trail.false_lits
    seed = problem.clauses[index].literal_set
    lits = [lit for lit in problem.clauses[index] if lit in false_lits]
    for ci in cluster_of(problem, index):
        c = problem.clauses[ci]
        earliest = trail.first_true_literal(c)
        if earliest is not None:
            lits.append(-earliest)
            continue
        own = c.variables()
        for lit in c:
            if lit not in seed or lit in false_lits:
                continue
            cert = table.record((ci, lit)).cert
            if cert is None:
                raise CnfError(
                    f"pair ({ci}, {lit}) has no certificate; "
                    "induction clause is not available"
                )
            lits.extend(b for b in cert if abs(b) not in own)
    # ``Clause`` keeps each literal's first occurrence.
    return Clause(lits)


class CertRecord(NamedTuple):
    """A certificate clause with the context it was learned in."""

    clause: Clause
    clause_index: int
    literal: int
    subspace: tuple[tuple[int, bool], ...]


@dataclass
class SolveOutcome:
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[dict[int, bool]]
    certificates: list[CertRecord]  # in the order they were learned
    trace: list[dict] = field(default_factory=list)
    closing_clause: Optional[Clause] = None
    steps: int = 0


class _StepLimit(Exception):
    pass


class _Solver:
    def __init__(self, problem: CnfProblem, step_limit: int, learned: list[Clause]):
        self.F = problem
        self.step_limit = step_limit
        self.learned = learned
        self.certs: list[CertRecord] = []
        self.trace: list[dict] = []
        self.steps = 0

    def run(self, assumptions: Sequence[tuple[int, bool]]) -> SolveOutcome:
        model = closing = None
        try:
            kind, payload = self._explore(Assignment(), list(assumptions))
        except _StepLimit:
            kind = "unknown"
        if kind == "sat":
            model = {
                v: v in payload.true_lits for v in range(1, self.F.var_count + 1)
            }
        elif kind == "cert":
            kind, closing = "unsat", payload
            # The root certificate is falsified by the assumptions alone.
            if not closing.literal_set <= {-v if val else v for v, val in assumptions}:
                raise AssertionError(
                    f"root exploration returned {closing!r}, which the "
                    "assumptions do not falsify"
                )
        return SolveOutcome(kind, model, self.certs, self.trace, closing, self.steps)

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

    def _explore(self, start, decisions: list[tuple[int, bool]]):
        self.steps += 1
        if self.steps > self.step_limit:
            raise _StepLimit
        res = propagate(self.F, self.learned, start, decisions)
        if res.is_conflict:
            return ("cert", analyze_conflict(res))
        trail = res.trail
        # The unsatisfied formula clause with the fewest open literals, the
        # lowest position on ties, anchors every pick in this subspace; the
        # trail no longer changes here, so it stays that clause.  The
        # counted positions ascend, formula before learned, and cover every
        # unsatisfied clause.  At a conflict-free fixpoint none has fewer
        # than 2 open literals, so the scan stops at the first 2.
        primary = None
        fewest = 0
        formula_len = len(self.F.clauses)
        for pos, k in res.open_count.items():
            if pos >= formula_len:
                break
            if primary is None or k < fewest:
                primary, fewest = pos, k
                if k == 2:
                    break
        if primary is None:
            return ("sat", trail)
        table = CoverageTable(self.F, self.learned, trail)
        # One walk suffices: a covered pair stays covered, and exploring a
        # pair's vicinity either returns or learns a certificate covering it.
        for pair in required_pairs(self.F, primary, trail):
            record = table.record(pair)
            if record.cert is not None:
                continue
            spec = record.spec
            kind, payload = self._explore(res, list(spec.bindings))
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
        # Every pair of the primary cluster is covered, perhaps by
        # certificates learned in other branches before anything was
        # learned here, so the induction step applies now.
        b_ind = build_induction_clause(table, primary)
        return ("cert", resolve_to_base(b_ind, res))


def solve(
    problem: CnfProblem,
    step_limit: int = STEP_LIMIT,
    assumptions: Sequence[tuple[int, bool]] = (),
    learned: Optional[list[Clause]] = None,
) -> SolveOutcome:
    """Decide satisfiability of a CNF formula, under optional assumptions.

    ``assumptions`` are (variable, value) pairs that the root exploration
    takes as its decisions.  Returns a SolveOutcome whose status is "sat"
    with a total model that agrees with the assumptions, "unsat" with the
    closing clause and the certificates learned in this call, or
    "unknown" when the call would take more than ``step_limit`` steps (one
    step is one exploration).  The closing clause is the root certificate:
    the formula implies it, and the assumptions falsify every literal of
    it, so without assumptions it is the empty clause.

    Certificates go to a learned list, never to ``problem``, which the
    call leaves as it found it.  ``learned``, when given, is the caller's
    certificate list.  The call consults it and appends to it, so several
    calls can share what they learn.  That is sound while every call's
    formula implies every clause already in the list, for instance when
    the formula only gains clauses between calls: each certificate is
    implied by the formula it was learned on, never by the assumptions.

    A repeated assumption is dropped; two that give one variable both
    values raise CnfError.  Each nested exploration is one level of
    Python recursion, so an instance that needs more nested explorations
    than ``sys.getrecursionlimit()`` allows raises RecursionError.
    """
    chosen: dict[int, bool] = {}
    for v, val in assumptions:
        if type(v) is not int or not 1 <= v <= problem.var_count:
            raise CnfError(f"assumption on variable {v!r} out of range")
        if chosen.setdefault(v, val) != val:
            raise CnfError(f"contradictory assumptions on variable {v}")
    if learned is None:
        learned = []
    return _Solver(problem, step_limit, learned).run(list(chosen.items()))
