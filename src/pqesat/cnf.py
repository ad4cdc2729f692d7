"""Core CNF types: literals, clauses, formulas, partial assignments.

Literals use the DIMACS convention: a positive integer v is the positive
literal of variable v, and -v is its negation.  Variable numbering starts
at 1.  A formula may declare a subset of its variables as existentially
quantified; the remaining variables are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional


Literal = int
Variable = int


class CnfError(Exception):
    """Raised for malformed clauses, formulas, or DIMACS input."""


class ResolutionError(CnfError):
    """Raised when two clauses cannot be resolved as requested."""


class Clause:
    """A disjunction of literals.

    Literal order follows first occurrence (duplicates are dropped), which
    keeps clauses readable when they are printed back out.  Equality and
    hashing ignore order: two clauses are equal iff they hold the same set
    of literals.  Tautologies (v and -v together) are rejected outright
    since no algorithm here has a use for them.
    """

    __slots__ = ("literals", "literal_set")

    def __init__(self, literals: Iterable[Literal]):
        seen = []
        seen_set = set()
        for lit in literals:
            if type(lit) is not int or lit == 0:
                raise CnfError(f"bad literal {lit!r}: literals are nonzero ints")
            if -lit in seen_set:
                raise CnfError(
                    f"tautological clause: contains both {lit} and {-lit}"
                )
            if lit not in seen_set:
                seen.append(lit)
                seen_set.add(lit)
        self.literals: tuple[Literal, ...] = tuple(seen)
        self.literal_set: frozenset[Literal] = frozenset(seen_set)

    def variables(self) -> frozenset[Variable]:
        return frozenset(abs(lit) for lit in self.literals)

    def contains(self, lit: Literal) -> bool:
        return lit in self.literal_set

    def is_empty(self) -> bool:
        return not self.literals

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self.literal_set == other.literal_set

    def __hash__(self) -> int:
        return hash(self.literal_set)

    def __repr__(self) -> str:
        body = " ".join(str(lit) for lit in self.literals)
        return f"Clause({body})" if body else "Clause(<empty>)"


@dataclass
class CnfProblem:
    """A CNF formula with an optional set of existentially quantified variables.

    ``clauses`` is an ordered list; duplicate clauses are allowed and are
    distinct members (their positions matter to the algorithms built on
    top).  Clause indices used throughout the package are 0-based positions
    into this list.

    The formula owns the structure derived from its clauses.  It keeps an
    occurrence index, literal to the indices of the clauses holding it,
    which ``occurrences`` reads, and a memo of the clusters ``cluster_of``
    has computed.  The index is built here and extended by ``add_clause``,
    which also drops the clusters, since a new clause can join any of
    them.  A second index, ``least_literal_index``, files each clause
    once, under its least literal; it is built at its first read, so a
    formula that only the solver reads never pays for it, and then
    extended by ``add_clause`` too.  So clauses must be added through
    ``add_clause`` and never assigned into ``clauses``.  A ``copy`` builds
    its own occurrence index and memo, and its own least-literal index
    when that is first read.
    """

    var_count: int
    clauses: list[Clause] = field(default_factory=list)
    quantified: frozenset[Variable] = frozenset()

    def __post_init__(self):
        self.quantified = frozenset(self.quantified)
        if type(self.var_count) is not int or self.var_count < 0:
            raise CnfError(f"var_count {self.var_count!r} is not a nonnegative int")
        for v in self.quantified:
            if type(v) is not int or not 1 <= v <= self.var_count:
                raise CnfError(f"quantified variable {v!r} out of range")
        self._occ: dict[Literal, list[int]] = {}
        for i, c in enumerate(self.clauses):
            for lit in c:
                if abs(lit) > self.var_count:
                    raise CnfError(
                        f"clause {i} mentions variable {abs(lit)} "
                        f"but var_count is {self.var_count}"
                    )
                self._occ.setdefault(lit, []).append(i)
        self._clusters: dict[int, list[int]] = {}
        self._least: Optional[dict[Literal, list[int]]] = None

    @property
    def free_vars(self) -> frozenset[Variable]:
        return frozenset(range(1, self.var_count + 1)) - self.quantified

    def add_clause(self, clause: Clause) -> int:
        """Append a clause and return its index."""
        for lit in clause:
            if abs(lit) > self.var_count:
                raise CnfError(
                    f"clause mentions variable {abs(lit)} "
                    f"but var_count is {self.var_count}"
                )
        index = len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self._occ.setdefault(lit, []).append(index)
        if self._least is not None:
            self._least.setdefault(min(clause.literals, default=0), []).append(index)
        self._clusters.clear()
        return index

    def occurrences(self, lit: Literal) -> list[int]:
        """Indices of the clauses holding the literal, in index order."""
        return self._occ.get(lit, [])

    def least_literal_index(self) -> dict[Literal, list[int]]:
        """Each clause's index filed under its least literal, in index order.

        Every clause is filed once, the empty clause under 0, so a clause
        made only of literals from a set is filed under one of them or
        under 0.  Callers must not modify the lists.
        """
        if self._least is None:
            self._least = {}
            for i, c in enumerate(self.clauses):
                self._least.setdefault(min(c.literals, default=0), []).append(i)
        return self._least

    def copy(self) -> "CnfProblem":
        return CnfProblem(self.var_count, list(self.clauses), self.quantified)


class Binding(NamedTuple):
    """One entry of a partial assignment.

    A propagated binding's ``reason`` is the clause that became unit; a
    binding without a reason is a decision.
    """

    var: Variable
    value: bool
    reason: Optional[Clause] = None


class Assignment:
    """An ordered partial assignment (a trail).

    Bindings are kept in the order they were made, which the conflict
    analysis relies on.  ``true_lits`` and ``false_lits`` hold the
    literals the trail satisfies and falsifies, so every literal and
    clause test is a set operation.
    """

    def __init__(self, bindings: Iterable[Binding] = ()):
        self.bindings: list[Binding] = []
        self.true_lits: set[Literal] = set()
        self.false_lits: set[Literal] = set()
        for b in bindings:
            self.push(b)

    def push(self, binding: Binding) -> None:
        if self.is_assigned(binding.var):
            raise CnfError(f"variable {binding.var} is already assigned")
        lit = binding.var if binding.value else -binding.var
        self.bindings.append(binding)
        self.true_lits.add(lit)
        self.false_lits.add(-lit)

    def value(self, v: Variable) -> Optional[bool]:
        return v in self.true_lits if self.is_assigned(v) else None

    def is_assigned(self, v: Variable) -> bool:
        return v in self.true_lits or v in self.false_lits

    def satisfies_clause(self, clause: Clause) -> bool:
        return not self.true_lits.isdisjoint(clause.literal_set)

    def falsifies_clause(self, clause: Clause) -> bool:
        return clause.literal_set <= self.false_lits

    def first_true_literal(self, clause: Clause) -> Optional[Literal]:
        """The clause's literal that the earliest binding satisfies, or None."""
        if self.true_lits.isdisjoint(clause.literal_set):
            return None
        for b in self.bindings:
            lit = b.var if b.value else -b.var
            if lit in clause.literal_set:
                return lit

    def copy(self) -> "Assignment":
        fresh = Assignment()
        fresh.bindings = list(self.bindings)
        fresh.true_lits = set(self.true_lits)
        fresh.false_lits = set(self.false_lits)
        return fresh

    def items(self) -> list[tuple[Variable, bool]]:
        return [(b.var, b.value) for b in self.bindings]

    def __len__(self) -> int:
        return len(self.bindings)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{b.var}={'1' if b.value else '0'}" for b in self.bindings
        )
        return f"Assignment({parts})"


# ---------------------------------------------------------------------------
# DIMACS parsing and printing.
#
# The accepted format is standard DIMACS CNF plus at most one "e" line
# declaring the existentially quantified variables, e.g.
#
#     p cnf 4 2
#     e 3 4 0
#     -3 4 0
#     1 3 0
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> CnfProblem:
    """Parse DIMACS CNF text with an optional single "e" quantifier line."""
    var_count = None
    clause_count = None
    quantified: list[Variable] = []
    saw_e = False
    clauses: list[Clause] = []
    pending: list[Literal] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if var_count is not None:
                raise CnfError(f"line {lineno}: duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed problem line {line!r}")
            try:
                var_count = int(fields[2])
                clause_count = int(fields[3])
            except ValueError:
                raise CnfError(f"line {lineno}: malformed problem line {line!r}")
            continue
        if var_count is None:
            raise CnfError(f"line {lineno}: clause data before problem line")
        if line.startswith("e"):
            if saw_e:
                raise CnfError(f"line {lineno}: duplicate quantifier line")
            if pending or clauses:
                raise CnfError(f"line {lineno}: quantifier line after clauses")
            saw_e = True
            toks = line.split()[1:]
            if not toks or toks[-1] != "0":
                raise CnfError(f"line {lineno}: quantifier line must end with 0")
            for tok in toks[:-1]:
                try:
                    v = int(tok)
                except ValueError:
                    raise CnfError(f"line {lineno}: bad token {tok!r}")
                if not 1 <= v <= var_count:
                    raise CnfError(
                        f"line {lineno}: quantified variable {v} out of range"
                    )
                quantified.append(v)
            continue
        # Clause data: integers, clauses terminated by 0, may span lines.
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfError(f"line {lineno}: bad token {tok!r}")
            if lit == 0:
                try:
                    clauses.append(Clause(pending))
                except CnfError as exc:
                    raise CnfError(f"line {lineno}: {exc}")
                pending = []
            else:
                if abs(lit) > var_count:
                    raise CnfError(
                        f"line {lineno}: literal {lit} exceeds "
                        f"declared variable count {var_count}"
                    )
                pending.append(lit)

    if var_count is None:
        raise CnfError("missing problem line")
    if pending:
        raise CnfError("unterminated clause at end of input")
    if clause_count is not None and clause_count != len(clauses):
        raise CnfError(
            f"problem line declares {clause_count} clauses "
            f"but {len(clauses)} were given"
        )
    return CnfProblem(var_count, clauses, frozenset(quantified))


def parse_dimacs_file(path: str) -> CnfProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimacs(fh.read())


def format_dimacs(problem: CnfProblem) -> str:
    """Render a problem back to DIMACS text (round-trips with parse_dimacs)."""
    lines = [f"p cnf {problem.var_count} {len(problem.clauses)}"]
    if problem.quantified:
        qs = " ".join(str(v) for v in sorted(problem.quantified))
        lines.append(f"e {qs} 0")
    for c in problem.clauses:
        body = " ".join(str(lit) for lit in c.literals)
        lines.append(f"{body} 0".strip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural operations used by the solving algorithms.
# ---------------------------------------------------------------------------


def mentioned_variables(problem: CnfProblem) -> frozenset[Variable]:
    """The variables that occur in at least one clause of the formula."""
    return frozenset(abs(lit) for c in problem.clauses for lit in c)


def resolve(c1: Clause, c2: Clause, v: Variable) -> Clause:
    """Resolve two clauses on variable v.

    Requires that v is the only clashing variable between the two clauses;
    anything else raises ResolutionError.  This is the plain reference
    that the tests, and a future proof checker, resolve with;
    ``bcp.resolve_to_base`` makes the same resolutions and the same check
    in one walk without building the intermediate clauses.
    """
    clashes = [
        abs(lit) for lit in c1 if -lit in c2.literal_set
    ]
    clash_vars = sorted(set(clashes))
    if clash_vars != [v]:
        raise ResolutionError(
            f"cannot resolve on {v}: clashing variables are {clash_vars}"
        )
    merged = [lit for lit in c1 if abs(lit) != v]
    merged += [lit for lit in c2 if abs(lit) != v and lit not in merged]
    return Clause(merged)


def is_blocked(
    problem: CnfProblem,
    clause: Clause,
    v: Variable,
    skip_indices: frozenset[int] = frozenset(),
) -> bool:
    """Check whether a clause is blocked at variable v.

    The clause must contain a literal of v.  It is blocked when every
    clause of the formula holding the opposite literal of v also clashes
    with it on some second variable, which makes all those resolvents
    tautological.  ``skip_indices`` removes formula clauses from
    consideration (used when a clause should be compared against the
    formula minus some members).
    """
    if v not in clause.variables():
        raise CnfError(f"clause {clause!r} has no literal of variable {v}")
    own = v if clause.contains(v) else -v
    for i, other in enumerate(problem.clauses):
        if i in skip_indices:
            continue
        if other is clause:
            continue
        if not other.contains(-own):
            continue
        double = any(
            -lit in other.literal_set for lit in clause if abs(lit) != v
        )
        if not double:
            return False
    return True


def cluster_of(problem: CnfProblem, index: int) -> list[int]:
    """Indices of the clause cluster seeded at ``index``.

    The cluster holds the seed clause plus every formula clause sharing at
    least one identical literal (same variable, same polarity) with it.
    The seed comes first, remaining members follow in index order.  The
    list is the formula's memo, kept until it gains a clause, so callers
    must not modify it.
    """
    members = problem._clusters.get(index)
    if members is None:
        shared: set[int] = set()
        for lit in problem.clauses[index].literals:
            shared.update(problem.occurrences(lit))
        shared.discard(index)
        members = problem._clusters[index] = [index, *sorted(shared)]
    return members
