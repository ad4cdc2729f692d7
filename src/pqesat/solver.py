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

Coverage checks rest on two invariants.  Within one exploration frame the
trail does not change after propagation, and the learned clauses are only
ever appended to.  So a cluster's required pairs are fixed for the frame,
and a covered pair stays covered by the same first certificate.  Each
frame keeps a ``CoverageTable`` that tests a pair only against the
certificates learned since it last tested it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .bcp import analyze_conflict, propagate, resolve_to_base
from .cnf import Assignment, Clause, CnfError, CnfProblem, cluster_of


@dataclass(frozen=True)
class VicinitySpec:
    """The branching assignment for one (clause, literal) pair.

    ``bindings`` satisfies the chosen literal first, then falsifies the
    clause's other unassigned literals in clause order.
    """

    clause_index: int
    literal: int
    bindings: tuple[tuple[int, bool], ...]


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
    for lit in clause:
        if lit == literal or trail.is_assigned(abs(lit)):
            continue
        bindings.append((abs(lit), lit < 0))
    return VicinitySpec(index, literal, tuple(bindings))


def _walk_pairs(problem: CnfProblem, index: int, trail: Assignment):
    """Yield the required pairs of ``required_pairs``, one at a time."""
    seed = problem.clauses[index].literal_set
    false_lits = trail.false_lits
    for ci in cluster_of(problem, index):
        c = problem.clauses[ci]
        if trail.satisfies_clause(c):
            continue
        # In an unsatisfied clause a literal is unassigned unless false.
        for lit in c:
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
    return list(_walk_pairs(problem, index, trail))


def certificate_for(
    spec: VicinitySpec, learned: Sequence[Clause], trail: Assignment
) -> Optional[Clause]:
    """First learned clause falsified in the given vicinity, if any."""
    falsified = trail.false_lits | {-v if val else v for v, val in spec.bindings}
    for b in learned:
        if b.literal_set <= falsified:
            return b
    return None


class _Coverage:
    """How far a seed's required pairs are known to be covered."""

    __slots__ = ("pairs", "certs", "spec", "tested")

    def __init__(self, pairs):
        self.pairs = pairs  # the pairs not yet reached, walked lazily
        self.certs: dict[tuple[int, int], Clause] = {}  # covered pairs, in order
        self.spec: Optional[VicinitySpec] = None  # first pair not known covered
        self.tested = 0  # learned clauses already tested against ``spec``


class CoverageTable:
    """Which required pairs of each cluster the learned clauses cover.

    Coverage only grows while the trail stays fixed and ``learned`` only
    grows: a pair's required status depends on the trail and the formula
    alone, and its first certificate stays first when clauses are
    appended.  So each seed keeps the first pair not yet known to be
    covered and how many learned clauses were tested against it, and a
    later query tests that pair only against the clauses learned since.
    Pairs and their vicinities are built only when reached, as most seeds
    fail at their first pair.  A grown formula (``learn_to="F"``) can
    grow clusters, so every entry is dropped when the clause count moves.
    """

    def __init__(
        self, problem: CnfProblem, learned: Sequence[Clause], trail: Assignment
    ):
        self.problem = problem
        self.learned = learned
        self.trail = trail
        self._size = len(problem.clauses)
        self._entries: dict[int, _Coverage] = {}

    def _entry(self, seed: int) -> _Coverage:
        if len(self.problem.clauses) != self._size:
            self._size = len(self.problem.clauses)
            self._entries.clear()
        entry = self._entries.get(seed)
        if entry is None:
            entry = _Coverage(_walk_pairs(self.problem, seed, self.trail))
            self._entries[seed] = entry
        return entry

    def uncovered(self, seed: int) -> Optional[VicinitySpec]:
        """The vicinity of the seed's first required pair without a certificate."""
        entry = self._entry(seed)
        learned = self.learned
        while True:
            if entry.spec is None:
                pair = next(entry.pairs, None)
                if pair is None:
                    return None
                entry.spec = specify_vicinity(self.problem, *pair, self.trail)
                entry.tested = 0
            cert = None
            if entry.tested < len(learned):
                cert = certificate_for(entry.spec, learned[entry.tested :], self.trail)
                entry.tested = len(learned)
            if cert is None:
                return entry.spec
            entry.certs[entry.spec.clause_index, entry.spec.literal] = cert
            entry.spec = None

    def certificates(self, seed: int) -> dict[tuple[int, int], Clause]:
        """Each covered pair of the seed's walked prefix, with its first certificate."""
        return self._entry(seed).certs


def check_induction(
    problem: CnfProblem,
    learned: Sequence[Clause],
    trail: Assignment,
    candidates: Optional[Sequence[int]] = None,
    table: Optional[CoverageTable] = None,
) -> Optional[int]:
    """Lowest clause index whose cluster is fully certified, or None.

    When every required pair of some clause's cluster has a learned
    certificate falsified in its vicinity, the formula has no model in
    the trail's subspace.  ``candidates`` restricts the scan.  ``table``
    carries coverage between calls; it must hold this problem, learned
    list and trail, and is valid only while the trail stays fixed and
    ``learned`` only grows.  Without one, a throwaway table is used.
    """
    if table is None:
        table = CoverageTable(problem, learned, trail)
    indices = candidates if candidates is not None else range(len(problem.clauses))
    for i in indices:
        if trail.satisfies_clause(problem.clauses[i]):
            continue
        if table.uncovered(i) is None:
            return i
    return None


def build_induction_clause(
    problem: CnfProblem,
    learned: Sequence[Clause],
    trail: Assignment,
    index: int,
    table: Optional[CoverageTable] = None,
) -> Clause:
    """Assemble the clause an induction step is entitled to.

    Three ingredients: the seed clause's falsified literals; for each
    satisfied cluster clause, the negation of its earliest satisfying
    trail literal; and for each required pair, the certificate literals
    over variables foreign to that pair's clause.  Certificates come from
    ``table`` when given (see ``check_induction``).
    """
    if table is None:
        table = CoverageTable(problem, learned, trail)
    missing = table.uncovered(index)
    if missing is not None:
        raise CnfError(
            f"pair ({missing.clause_index}, {missing.literal}) has no "
            "certificate; induction clause is not available"
        )
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
        for lit in c:
            if (ci, lit) in required:
                for b in certs[ci, lit]:
                    if abs(b) not in c.variables():
                        take(b)
    return Clause(lits)


@dataclass(frozen=True)
class CertRecord:
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
    def __init__(self, problem: CnfProblem, config: SolverConfig):
        # Only learn_to="F" grows the formula, so only it needs a copy.
        self.F = problem.copy() if config.learn_to == "F" else problem
        self.config = config
        self.learned: list[Clause] = []
        self.certs: list[CertRecord] = []
        self.trace: list[dict] = []
        self.steps = 0

    def run(self) -> SolveOutcome:
        try:
            kind, payload = self._explore(Assignment(), [])
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
        if not payload.is_empty():
            raise AssertionError(
                f"root exploration returned nonempty clause {payload!r}"
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

    def _explore(self, base: Assignment, decisions: list[tuple[int, bool]]):
        self.steps += 1
        if self.steps > self.config.step_limit:
            raise _StepLimit
        side = self.learned if self.config.learn_to == "P" else ()
        res = propagate(self.F, side, base, decisions)
        if res.is_conflict:
            return ("cert", analyze_conflict(res))
        trail = res.trail
        # The first unsatisfied clause anchors every pick in this subspace;
        # the trail no longer changes here, so it stays the first one.
        primary = next(
            (i for i, c in enumerate(self.F.clauses) if not trail.satisfies_clause(c)),
            None,
        )
        if primary is None:
            return ("sat", trail)
        table = CoverageTable(self.F, self.learned, trail)
        while True:
            spec = table.uncovered(primary)
            if spec is None:
                # Certificates learned in other branches may already cover
                # every pair of the primary cluster before anything is
                # learned here, so the induction step applies now.
                b_ind = build_induction_clause(
                    self.F, self.learned, trail, primary, table
                )
                return ("cert", resolve_to_base(b_ind, res))
            kind, payload = self._explore(trail, list(spec.bindings))
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
                self.F,
                self.learned,
                trail,
                candidates=sorted(cluster_of(self.F, spec.clause_index)),
                table=table,
            )
            if fired is not None:
                b_ind = build_induction_clause(
                    self.F, self.learned, trail, fired, table
                )
                cleaned = resolve_to_base(b_ind, res)
                self._record(spec, cert, fired, "induct")
                return ("cert", cleaned)
            self._record(spec, cert, None, "learn")


def solve(problem: CnfProblem, config: Optional[SolverConfig] = None) -> SolveOutcome:
    """Decide satisfiability of a CNF formula.

    Returns a SolveOutcome whose status is "sat" with a total model,
    "unsat" with the closing empty clause and the learned certificates,
    or "unknown" when the step limit ran out.
    """
    if config is None:
        config = SolverConfig()
    return _Solver(problem, config).run()
