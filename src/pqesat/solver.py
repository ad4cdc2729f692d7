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


def required_pairs(
    problem: CnfProblem, index: int, trail: Assignment
) -> list[tuple[int, int]]:
    """All (cluster clause index, shared literal) pairs demanding coverage.

    A pair is required when the cluster clause is not satisfied by the
    trail and the shared literal is unassigned.  The seed clause pairs
    with each of its own unassigned literals.
    """
    seed = problem.clauses[index]
    pairs = []
    for ci in cluster_of(problem, index):
        c = problem.clauses[ci]
        if trail.satisfies_clause(c):
            continue
        for lit in c:
            if lit in seed.literal_set and not trail.is_assigned(abs(lit)):
                pairs.append((ci, lit))
    return pairs


def certificate_for(
    spec: VicinitySpec, learned: Sequence[Clause], trail: Assignment
) -> Optional[Clause]:
    """First learned clause falsified in the given vicinity, if any."""
    falsified = trail.false_lits | {-v if val else v for v, val in spec.bindings}
    for b in learned:
        if b.literal_set <= falsified:
            return b
    return None


def _uncovered_pair(
    problem: CnfProblem, learned: Sequence[Clause], trail: Assignment, index: int
) -> Optional[VicinitySpec]:
    """The vicinity of the first required pair without a certificate."""
    for ci, lit in required_pairs(problem, index, trail):
        spec = specify_vicinity(problem, ci, lit, trail)
        if certificate_for(spec, learned, trail) is None:
            return spec
    return None


def check_induction(
    problem: CnfProblem,
    learned: Sequence[Clause],
    trail: Assignment,
    candidates: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Lowest clause index whose cluster is fully certified, or None.

    When every required pair of some clause's cluster has a learned
    certificate falsified in its vicinity, the formula has no model in
    the trail's subspace.  ``candidates`` restricts the scan.
    """
    indices = candidates if candidates is not None else range(len(problem.clauses))
    for i in indices:
        if trail.satisfies_clause(problem.clauses[i]):
            continue
        if _uncovered_pair(problem, learned, trail, i) is None:
            return i
    return None


def build_induction_clause(
    problem: CnfProblem,
    learned: Sequence[Clause],
    trail: Assignment,
    index: int,
) -> Clause:
    """Assemble the clause an induction step is entitled to.

    Three ingredients: the seed clause's falsified literals; for each
    satisfied cluster clause, the negation of its earliest satisfying
    trail literal; and for each required pair, the certificate literals
    over variables foreign to that pair's clause.
    """
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
        else:
            for lit in c:
                if lit in seed.literal_set and not trail.is_assigned(abs(lit)):
                    spec = specify_vicinity(problem, ci, lit, trail)
                    cert = certificate_for(spec, learned, trail)
                    if cert is None:
                        raise CnfError(
                            f"pair ({ci}, {lit}) has no certificate; "
                            "induction clause is not available"
                        )
                    for b in cert:
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
        while True:
            spec = _uncovered_pair(self.F, self.learned, trail, primary)
            if spec is None:
                # Certificates learned in other branches may already cover
                # every pair of the primary cluster before anything is
                # learned here, so the induction step applies now.
                b_ind = build_induction_clause(self.F, self.learned, trail, primary)
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
            )
            if fired is not None:
                b_ind = build_induction_clause(self.F, self.learned, trail, fired)
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
