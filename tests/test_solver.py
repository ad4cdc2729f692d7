"""The induction-based satisfiability solver and its building blocks."""

import json
import pathlib
import random

import pytest

from pqesat import solver
from pqesat.cnf import (
    Assignment,
    Binding,
    Clause,
    CnfError,
    CnfProblem,
    cluster_of,
    parse_dimacs,
    parse_dimacs_file,
)
from pqesat.fuzzing import random_cnf
from pqesat.oracle import enum_sat, implies
from pqesat.solver import (
    CoverageTable,
    build_induction_clause,
    certificate_for,
    check_induction,
    required_pairs,
    solve,
    specify_vicinity,
)

DATA = pathlib.Path(__file__).parent / "data"
EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


# ---------------------------------------------------------------------------
# Branching vicinities and required pairs.
# ---------------------------------------------------------------------------


def _coverage_fixture():
    """A formula, trail, and learned set exercising every coverage rule.

    Under the trail (1=1, 4=0, 9=1, 10=0, 11=0) the first clause is the
    seed: clause 4 is satisfied, clause 2 shares only an assigned
    literal, and clauses 1 and 3 contribute the three required pairs.
    """
    problem = CnfProblem(
        11,
        [
            Clause([-1, 2, 3]),
            Clause([-1, 5, 7]),
            Clause([2, -6, 8]),
            Clause([3, 9]),
            Clause([1, -5]),
            Clause([-10, 11]),
        ],
    )
    trail = Assignment(
        [
            Binding(1, True),
            Binding(4, False),
            Binding(9, True),
            Binding(10, False),
            Binding(11, False),
        ]
    )
    learned = [
        Clause([3, 10]),
        Clause([2, 4]),
        Clause([4, -6, 8]),
    ]
    return problem, trail, learned


def test_specify_vicinity_binds_literal_then_falsifies_the_rest():
    problem, trail, _ = _coverage_fixture()
    spec = specify_vicinity(problem, 0, 2, trail)
    assert spec.clause_index == 0
    assert spec.literal == 2
    assert spec.bindings == ((2, True), (3, False))


def test_specify_vicinity_rejects_bad_requests():
    problem, trail, _ = _coverage_fixture()
    with pytest.raises(CnfError):
        specify_vicinity(problem, 0, 5, trail)  # literal not in the clause
    with pytest.raises(CnfError):
        specify_vicinity(problem, 0, -1, trail)  # variable already assigned
    with pytest.raises(CnfError):
        specify_vicinity(problem, 3, 3, trail)  # clause already satisfied


def test_required_pairs():
    problem, trail, _ = _coverage_fixture()
    assert list(required_pairs(problem, 0, trail)) == [(0, 2), (0, 3), (2, 2)]


def test_certificate_for_each_required_pair():
    problem, trail, learned = _coverage_fixture()
    table = CoverageTable(problem, learned, trail)
    found = {}
    for ci, lit in required_pairs(problem, 0, trail):
        spec = specify_vicinity(problem, ci, lit, trail)
        found[(ci, lit)] = certificate_for(spec, table)
    assert found[(0, 2)] is learned[0]
    assert found[(0, 3)] is learned[1]
    assert found[(2, 2)] is learned[2]


def test_certificate_for_returns_none_when_nothing_is_falsified():
    problem, trail, _ = _coverage_fixture()
    spec = specify_vicinity(problem, 0, 2, trail)
    table = CoverageTable(problem, [Clause([2, 3])], trail)
    assert certificate_for(spec, table) is None


def test_check_induction_fires_only_with_full_coverage():
    problem, trail, learned = _coverage_fixture()
    every = range(len(problem.clauses))
    assert check_induction(CoverageTable(problem, learned, trail), every) == 0
    assert check_induction(CoverageTable(problem, learned[:2], trail), every) is None
    table = CoverageTable(problem, learned, trail)
    assert check_induction(table, candidates=[1]) is None


def test_build_induction_clause():
    # Seed's falsified literal, the certificates' foreign variables, and
    # the negated earliest satisfier of the satisfied cluster clause.
    problem, trail, learned = _coverage_fixture()
    got = build_induction_clause(CoverageTable(problem, learned, trail), 0)
    assert got.literals == (-1, 10, 4, -9)


def test_build_induction_clause_names_the_first_uncovered_pair():
    # The required pairs are (0, 2), (0, 3) and (2, 2), certified by the
    # fixture's learned clauses in that order.
    problem, trail, learned = _coverage_fixture()
    for kept, (ci, lit) in (([2], (0, 2)), ([0, 2], (0, 3)), ([0, 1], (2, 2))):
        table = CoverageTable(problem, [learned[i] for i in kept], trail)
        with pytest.raises(CnfError, match=rf"^pair \({ci}, {lit}\) has no"):
            build_induction_clause(table, 0)


def _linear_certificate(spec, learned, trail, start=0):
    """The plain scan the open-literal index replaced, kept as the reference."""
    falsified = trail.false_lits | {-v if val else v for v, val in spec.bindings}
    for b in learned[start:]:
        if b.literal_set <= falsified:
            return b
    return None


def _scan_uncovered(problem, learned, trail, index):
    """The plain rescan the coverage table replaced, kept as the reference.

    Every call walks all required pairs in order and tests each against
    every learned clause.
    """
    for ci, lit in required_pairs(problem, index, trail):
        spec = specify_vicinity(problem, ci, lit, trail)
        if _linear_certificate(spec, learned, trail) is None:
            return spec
    return None


def _coverage(table, index):
    """The seed's covered prefix of required pairs, and the vicinity after it.

    Walks ``required_pairs`` through ``table.record``: each covered pair
    maps to its first certificate, and the vicinity is the first required
    pair without one, or None when the seed is covered.
    """
    certs = {}
    for pair in required_pairs(table.problem, index, table.trail):
        record = table.record(pair)
        if record.cert is None:
            return certs, record.spec
        certs[pair] = record.cert
    return certs, None


def _reference_induction_clause(table, index):
    """The assembly ``build_induction_clause`` replaced, kept as the reference.

    It recomputes the required pairs and adds each literal only when it
    is not yet in the list.
    """
    certs, missing = _coverage(table, index)
    if missing is not None:
        raise CnfError(f"pair ({missing.clause_index}, {missing.literal}) is open")
    problem = table.problem
    trail = table.trail
    required = set(required_pairs(problem, index, trail))
    lits = []

    def take(lit):
        if lit not in lits:
            lits.append(lit)

    for lit in problem.clauses[index]:
        if lit in trail.false_lits:
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


def _assert_induction_clause_matches_the_reference(table, index):
    """Compare literal order too: ``Clause ==`` ignores it, traces do not.

    A fresh table is built from first, so its certificates are complete
    only if ``build_induction_clause`` completes them itself.
    """
    problem, learned, trail = table.problem, table.learned, table.trail
    fresh = build_induction_clause(CoverageTable(problem, learned, trail), index)
    want = _reference_induction_clause(CoverageTable(problem, learned, trail), index)
    got = build_induction_clause(table, index)
    assert fresh.literals == want.literals
    assert got.literals == want.literals
    return got


def test_table_covers_a_pair_first_tested_uncovered():
    problem, trail, learned = _coverage_fixture()
    grown = learned[:1]
    table = CoverageTable(problem, grown, trail)
    # (0, 2) is covered; (0, 3) is tested against the one clause and fails.
    assert _coverage(table, 0)[1] == specify_vicinity(problem, 0, 3, trail)
    grown.append(learned[1])
    assert _coverage(table, 0)[1] == specify_vicinity(problem, 2, 2, trail)
    grown.append(learned[2])
    assert _coverage(table, 0)[1] is None
    assert check_induction(table, range(len(problem.clauses))) == 0
    got = build_induction_clause(table, 0)
    assert got.literals == (-1, 10, 4, -9)


@pytest.mark.parametrize("seed", range(60))
def test_table_matches_the_rescan(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    problem = random_cnf(rng, max_vars=n, max_clauses=3 * n)
    n = problem.var_count
    order = rng.sample(range(1, n + 1), n)
    trail = Assignment(
        [Binding(v, rng.random() < 0.5) for v in order[: rng.randint(0, n // 3)]]
    )
    rng.random()  # a spare draw; it keeps each seed's learned clauses
    learned = []
    table = CoverageTable(problem, learned, trail)
    for _ in range(3 * n):
        learned.append(_open_clause(rng, n, 3, [trail]))
        fired = None
        for i, clause in enumerate(problem.clauses):
            if trail.satisfies_clause(clause):
                continue
            want = _scan_uncovered(problem, learned, trail, i)
            assert _coverage(table, i)[1] == want
            if want is None:
                fired = i if fired is None else fired
                _assert_induction_clause_matches_the_reference(table, i)
            else:
                pair = rf"^pair \({want.clause_index}, {want.literal}\) has no"
                with pytest.raises(CnfError, match=pair):
                    build_induction_clause(table, i)
        assert check_induction(table, range(len(problem.clauses))) == fired


@pytest.mark.parametrize("seed", range(40))
def test_required_pairs_depend_on_the_open_literals_only(seed):
    # The table shares pair records between seeds on this: a seed's
    # required pairs pair each of its open literals with the unsatisfied
    # clauses holding it.  Duplicate clauses included.
    rng = random.Random(seed)
    problem = random_cnf(rng, max_vars=9, max_clauses=25)
    clauses = problem.clauses + rng.choices(problem.clauses, k=rng.randint(1, 4))
    problem = CnfProblem(problem.var_count, rng.sample(clauses, len(clauses)))
    n = problem.var_count
    for _ in range(5):
        trail = _random_trail(rng, n, n // 2)
        for s, clause in enumerate(problem.clauses):
            want = {
                (c, lit)
                for lit in clause
                if not trail.is_assigned(abs(lit))
                for c in problem.occurrences(lit)
                if not trail.satisfies_clause(problem.clauses[c])
            }
            assert set(required_pairs(problem, s, trail)) == want


def _first_certified(problem, learned, trail, candidates):
    for i in candidates:
        if not trail.satisfies_clause(problem.clauses[i]):
            if _scan_uncovered(problem, learned, trail, i) is None:
                return i
    return None


def test_check_induction_on_cold_tables_matches_the_rescan():
    # Tables asked only through check_induction fill pair records that no
    # seed has asked for; candidates come in random subsets and orders.
    fired = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(5, 10)
        problem = random_cnf(rng, max_vars=n, max_clauses=3 * n)
        n, m = problem.var_count, len(problem.clauses)
        trail = _random_trail(rng, n, n // 3)
        learned = []
        table = CoverageTable(problem, learned, trail)
        for _ in range(3 * n):
            learned.append(_open_clause(rng, n, 3, [trail]))
            candidates = rng.sample(range(m), rng.randint(1, m))
            want = _first_certified(problem, learned, trail, candidates)
            fresh = CoverageTable(problem, learned, trail)
            assert check_induction(fresh, candidates) == want
            assert check_induction(table, candidates) == want
            if want is not None:
                fired += 1
                _assert_induction_clause_matches_the_reference(fresh, want)
    assert fired > 100


def _certs(table, seed):
    return [(pair, id(cert)) for pair, cert in _coverage(table, seed)[0].items()]


@pytest.mark.parametrize("seed", range(40))
def test_seed_order_does_not_change_coverage(seed):
    # Seeds asked in random order, between check_induction calls, on one
    # table: each answer and each seed's certificates are a fresh table's.
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    problem = random_cnf(rng, max_vars=n, max_clauses=3 * n)
    n = problem.var_count
    trail = _random_trail(rng, n, n // 3)
    seeds = [i for i, c in enumerate(problem.clauses) if not trail.satisfies_clause(c)]
    learned = []
    table = CoverageTable(problem, learned, trail)
    for _ in range(3 * n):
        learned.append(_open_clause(rng, n, 3, [trail]))
        if rng.random() < 0.5:
            check_induction(table, rng.sample(seeds, len(seeds)))
        for i in rng.sample(seeds, rng.randint(0, len(seeds))):
            want = _scan_uncovered(problem, learned, trail, i)
            assert _coverage(table, i)[1] == want
            fresh = CoverageTable(problem, learned, trail)
            assert _certs(table, i) == _certs(fresh, i)


def test_a_pair_another_seed_walked_gives_the_seed_no_literal():
    # Clause 1 = [1, 3] is in the cluster of clause 0 = [1, 2] through 1.
    # Seed 2 = [3, 4] walks the pair (1, 3), certified by [-3, 1, 5],
    # whose foreign literal 5 must stay out of seed 0's clause.
    problem = CnfProblem(
        6, [Clause([1, 2]), Clause([1, 3]), Clause([3, 4])]
    )
    trail = Assignment([Binding(5, False), Binding(6, False)])
    learned = [
        Clause([-3, 1, 5]),  # (1, 3)
        Clause([-1, 2, 6]),  # (0, 1)
        Clause([-2, 1]),  # (0, 2)
        Clause([-1, 3]),  # (1, 1)
        Clause([-3, 4]),  # (2, 3)
        Clause([-4, 3]),  # (2, 4)
    ]
    table = CoverageTable(problem, learned, trail)
    certs, missing = _coverage(table, 2)
    assert missing is None
    assert certs[1, 3] is learned[0]
    got = _assert_induction_clause_matches_the_reference(table, 0)
    assert got.literals == (6,)
    assert (1, 3) not in _coverage(table, 0)[0]


def test_induction_clause_matches_the_reference_inside_solve(monkeypatch):
    # Every induction step of random 3-SAT near ratio 4.26 and of the
    # nine-clause example.
    built = []

    def checked(table, index):
        built.append(index)
        return _assert_induction_clause_matches_the_reference(table, index)

    monkeypatch.setattr(solver, "build_induction_clause", checked)
    assert solve(parse_dimacs_file(str(EXAMPLES / "appendix_e.cnf"))).status == "unsat"
    assert built
    rng = random.Random(426)
    for _ in range(40):
        solve(_random_3sat(rng, 20, 4.26))
    assert len(built) > 40


def _open_clause(rng, n, width, trails):
    """A random clause of 1 to ``width`` literals that no trail falsifies.

    The solver learns only such clauses: at a frame's fixpoint a falsified
    learned clause would have been a conflict.
    """
    while True:
        vs = rng.sample(range(1, n + 1), rng.randint(1, width))
        c = Clause([v if rng.random() < 0.5 else -v for v in vs])
        if not any(c.literal_set <= trail.false_lits for trail in trails):
            return c


def _random_trail(rng, n, most):
    order = rng.sample(range(1, n + 1), n)
    return Assignment(
        [Binding(v, rng.random() < 0.5) for v in order[: rng.randint(0, most)]]
    )


@pytest.mark.parametrize("seed", range(40))
def test_indexed_lookup_matches_the_linear_scan(seed):
    # Several tables over one growing list, each under its own trail, and
    # lookups start anywhere in the list.
    rng = random.Random(seed)
    problem = random_cnf(rng, max_vars=9, max_clauses=20)
    n = problem.var_count
    learned = []
    tables = []
    for _ in range(3):
        trail = _random_trail(rng, n, n // 2)
        tables.append((trail, CoverageTable(problem, learned, trail)))
    for _ in range(4 * n):
        learned.append(_open_clause(rng, n, min(4, n), [t for t, _ in tables]))
        for trail, table in tables:
            seed_index = rng.randrange(len(problem.clauses))
            for ci, lit in required_pairs(problem, seed_index, trail):
                spec = specify_vicinity(problem, ci, lit, trail)
                start = rng.randint(0, len(learned))
                want = _linear_certificate(spec, learned, trail, start)
                assert certificate_for(spec, table, start) is want
                want = _linear_certificate(spec, learned, trail)
                fresh = CoverageTable(problem, learned, trail)
                assert certificate_for(spec, fresh) is want


def test_a_learned_clause_the_trail_falsifies_raises():
    # The solver never learns a clause its frame's trail falsifies, so a
    # table refuses one when a lookup first classifies it.
    problem, trail, _ = _coverage_fixture()
    learned = [Clause([3, 10]), Clause([-1, 4])]
    table = CoverageTable(problem, learned, trail)
    spec = specify_vicinity(problem, 0, 2, trail)  # falsifies -2 and 3
    assert certificate_for(spec, table) is learned[0]
    with pytest.raises(ValueError):
        certificate_for(spec, table, 1)


def test_a_lookup_reads_the_list_of_the_least_open_literal():
    # [3, 10] has one open literal under the trail, 3; [-6, 8, 2] has
    # three.  Each is found through the vicinity's literals only.
    problem, trail, _ = _coverage_fixture()
    learned = [Clause([-6, 8, 2]), Clause([3, 10])]
    table = CoverageTable(problem, learned, trail)
    later = specify_vicinity(problem, 0, 2, trail)  # falsifies -2 and 3
    assert certificate_for(later, table) is learned[1]
    assert table.lists == {-6: [0], 3: [1]}
    spec = specify_vicinity(problem, 2, 2, trail)  # falsifies -2, -6, 8
    assert certificate_for(spec, table) is None
    spec = specify_vicinity(problem, 2, -6, trail)  # falsifies 6, 2, 8
    assert certificate_for(spec, table) is None
    # A satisfied clause (9 is true) is filed nowhere.
    learned += [Clause([-2, 9, 6]), Clause([-2, 7, 6])]
    spec = specify_vicinity(problem, 0, 3, trail)  # falsifies -3, 2
    assert certificate_for(spec, table) is None
    assert table.lists == {-6: [0], 3: [1], -2: [3]}


# ---------------------------------------------------------------------------
# Learned sets pin down the boundary of a clause cluster.
# ---------------------------------------------------------------------------


def test_learned_set_restricts_cluster_models():
    cluster = [Clause([1, -2]), Clause([1, 5]), Clause([-2, -6, 8])]
    learned = [
        Clause([-1, -2]),
        Clause([1, 2]),
        Clause([-1, 5]),
        Clause([2, -6, 8]),
    ]
    assert enum_sat(CnfProblem(8, learned)) is not None
    joint = CnfProblem(8, learned + cluster)
    model = enum_sat(joint)
    # The learned clauses leave no slack on the cluster's variables.
    assert model is not None
    assert (model[1], model[2], model[5]) == (True, False, True)
    cut = Clause([-1, 2, -5])
    assert enum_sat(CnfProblem(8, learned + cluster + [cut])) is None


# ---------------------------------------------------------------------------
# End-to-end solving.
# ---------------------------------------------------------------------------


def test_solve_sat_returns_a_total_model():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 2]), Clause([-2, 3])])
    out = solve(p)
    assert out.status == "sat"
    assert set(out.model) == {1, 2, 3}
    for c in p.clauses:
        assert any(out.model[abs(lit)] == (lit > 0) for lit in c)


def test_solve_empty_clause_is_immediately_unsat():
    out = solve(CnfProblem(2, [Clause([1]), Clause([])]))
    assert out.status == "unsat"


def test_solve_respects_step_limit():
    p = CnfProblem(
        6, [Clause([i, j]) for i in (1, 2, 3) for j in (4, 5, 6)]
    )
    out = solve(p, 1)
    assert out.status == "unknown"
    assert out.model is None


NINE = CnfProblem(
    6,
    [
        Clause([1, 2]),
        Clause([1, 3]),
        Clause([2, 4]),
        Clause([-1, 3]),
        Clause([-2, 4]),
        Clause([-1, 5]),
        Clause([-5, -4]),
        Clause([-2, 6]),
        Clause([-6, -3]),
    ],
)


def test_nine_clause_run_learns_four_certificates():
    out = solve(NINE.copy())
    assert out.status == "unsat"
    assert out.closing_clause is not None
    assert out.closing_clause.is_empty()
    assert [sorted(r.clause.literals, key=abs) for r in out.certificates] == [
        [-1, 2],
        [1, -2],
        [-1, 3],
        [-2, 4],
    ]
    assert [(r.clause_index, r.literal) for r in out.certificates] == [
        (0, 1),
        (0, 2),
        (1, 1),
        (2, 2),
    ]


def test_nine_clause_trace_is_stable():
    out = solve(NINE.copy())
    golden = [
        json.loads(line)
        for line in (DATA / "trace_nine_clause.jsonl").read_text().splitlines()
    ]
    assert [json.loads(json.dumps(r)) for r in out.trace] == golden


def test_solve_agrees_with_enumeration_on_random_formulas():
    rng = random.Random(1234)
    for _ in range(25):
        p = random_cnf(rng, max_vars=8, max_clauses=20)
        out = solve(p)
        want = enum_sat(p)
        assert out.status == ("unsat" if want is None else "sat")
        if out.status == "sat":
            for c in p.clauses:
                assert any(out.model[abs(lit)] == (lit > 0) for lit in c)


def test_random_3sat_inductions_agree_with_the_oracles():
    # Mixed-width draws rarely reach an induction step; 3-SAT near the
    # threshold does in most unsat runs.
    rng = random.Random(426)
    inductions = 0
    for _ in range(60):
        p = _random_3sat(rng, rng.randint(10, 14), 4.26)
        out = solve(p)
        assert out.status == ("unsat" if enum_sat(p) is None else "sat")
        if out.status == "sat":
            for c in p.clauses:
                assert any(out.model[abs(lit)] == (lit > 0) for lit in c)
        for r in out.certificates:
            assert implies(p, r.clause)
        inductions += sum(r["action"] == "induct" for r in out.trace)
    assert inductions >= 40


# Random 3-SAT (n=18), shrunk by greedy clause deletion.  Certificates
# learned in other branches already cover every pair of the primary
# cluster when a fresh subspace is entered, so induction fires before
# anything is learned there.
INDUCTION_ON_ENTRY = """\
p cnf 18 35
10 -4 -7 0  5 -7 -14 0  9 4 -14 0  -14 -2 8 0  -9 -1 -2 0  -8 14 -12 0
3 -4 18 0  -15 12 -7 0  -12 -2 13 0  7 14 -15 0  -10 3 12 0  17 6 -14 0
-15 14 4 0  -17 -5 10 0  18 -14 -4 0  -14 17 7 0  -18 -17 -9 0  2 13 -14 0
2 8 14 0  -6 10 -13 0  15 12 14 0  1 15 -14 0  -17 -15 -5 0  10 18 -8 0
17 18 8 0  -14 2 5 0  -13 16 14 0  -13 -5 -1 0  -7 -15 -14 0  8 15 -16 0
7 4 -10 0  -10 11 -18 0  -16 5 -2 0  -14 -4 -2 0  -16 -11 -18 0
"""


def test_induction_fires_when_a_subspace_is_already_certified():
    p = parse_dimacs(INDUCTION_ON_ENTRY)
    assert enum_sat(p) is None
    out = solve(p)
    assert out.status == "unsat"
    assert out.steps == 54
    assert out.closing_clause is not None
    assert out.closing_clause.is_empty()


# ---------------------------------------------------------------------------
# Assumptions and a shared certificate list.
# ---------------------------------------------------------------------------


def _falsifying(h):
    return [(abs(lit), lit < 0) for lit in h.literals]


def _random_3sat(rng, n, ratio):
    clauses = []
    for _ in range(round(ratio * n)):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append(Clause([v if rng.random() < 0.5 else -v for v in chosen]))
    return CnfProblem(n, clauses)


def _probe_run(seed):
    """A run of assumption probes on one formula and one learned list.

    Between probes the formula gains implied clauses: the closing clause
    of an unsat probe, or a weakening of a formula clause.  Every answer
    must match the exact ``implies``, and every certificate in the shared
    list and every closing clause must be implied by the formula, the
    closing clause within the probed clause.  Returns the shared list.
    """
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    p = _random_3sat(rng, n, rng.choice((3.0, 3.5, 4.0)))
    learned = []
    for _ in range(12):
        vs = rng.sample(range(1, n + 1), rng.randint(0, 5))
        h = Clause([v if rng.random() < 0.5 else -v for v in vs])
        out = solve(p, assumptions=_falsifying(h), learned=learned)
        assert (out.status == "unsat") == implies(p, h)
        new = [r.clause for r in out.certificates]
        assert learned[len(learned) - len(new) :] == new
        if out.status == "sat":
            assert all(out.model[v] == val for v, val in _falsifying(h))
            assert out.closing_clause is None
        else:
            assert out.closing_clause.literal_set <= h.literal_set
            assert implies(p, out.closing_clause)
        for c in learned:
            assert implies(p, c), c
        if out.status == "unsat" and rng.random() < 0.5:
            p.add_clause(Clause(out.closing_clause.literals))
        else:
            c = rng.choice(p.clauses)
            spare = [v for v in range(1, n + 1) if v not in c.variables()]
            v = rng.choice(spare)
            p.add_clause(Clause([*c.literals, v if rng.random() < 0.5 else -v]))
    return learned


@pytest.mark.parametrize("seed", range(30))
def test_probes_sharing_certificates_agree_with_fresh_entailment(seed):
    _probe_run(seed)


def test_probe_runs_share_certificates():
    # The corpus above does learn: most runs end with a nonempty list.
    assert sum(bool(_probe_run(seed)) for seed in range(30)) >= 25


def test_solve_leaves_the_callers_formula_alone():
    # Certificates go to the learned list only: the formula's clause list
    # is the same object with the same length after every probe.
    p = parse_dimacs(INDUCTION_ON_ENTRY)
    clauses = p.clauses
    size = len(clauses)
    learned = []
    for h in (Clause([]), Clause([14, -2]), Clause([-7, 15, 3])):
        solve(p, assumptions=_falsifying(h), learned=learned)
        assert p.clauses is clauses
        assert len(clauses) == size
    assert learned


def test_assumptions_that_falsify_a_formula_clause_close_at_the_root():
    p = CnfProblem(4, [Clause([1, 2]), Clause([-1, 3, 4]), Clause([2, -3])])
    out = solve(p, assumptions=[(1, False), (2, False), (4, True)])
    assert out.status == "unsat"
    assert out.steps == 1
    assert out.certificates == []
    # The falsified clause itself, over the negated assumptions.
    assert out.closing_clause == p.clauses[0]


def test_an_unsat_probe_closes_with_a_subset_of_the_probed_clause():
    # Under 1=0 the formula forces 2 and then 3, so it entails 1 | 3;
    # the probe of 1 | 3 | 4 closes with a clause inside it.
    p = CnfProblem(4, [Clause([1, 2]), Clause([-2, 3])])
    h = Clause([1, 3, 4])
    out = solve(p, assumptions=_falsifying(h))
    assert out.status == "unsat"
    assert out.closing_clause.literal_set == {1, 3}


def test_assumptions_must_name_known_variables():
    with pytest.raises(CnfError):
        solve(CnfProblem(2, [Clause([1, 2])]), assumptions=[(3, True)])


def test_a_repeated_assumption_is_dropped():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    once = solve(p, assumptions=[(1, True), (2, False)])
    twice = solve(p, assumptions=[(1, True), (2, False), (1, True)])
    assert twice.status == once.status == "sat"
    assert twice.model == once.model
    assert twice.trace == once.trace


def test_contradictory_assumptions_name_the_variable():
    p = CnfProblem(3, [Clause([1, 2]), Clause([-1, 3])])
    with pytest.raises(CnfError, match="variable 1"):
        solve(p, assumptions=[(1, True), (2, False), (1, False)])


# ---------------------------------------------------------------------------
# The formula keeps every clause's cluster until it grows.
# ---------------------------------------------------------------------------


def _fresh_cluster_of(problem, index):
    """Each cluster computed by a scan of the whole formula: the memo's reference."""
    seed = problem.clauses[index].literal_set
    shared = [
        j
        for j, c in enumerate(problem.clauses)
        if j != index and not seed.isdisjoint(c.literal_set)
    ]
    return [index, *shared]


def _cluster_runs(seed):
    """Statuses and traces of one solve and two probes.

    The probes share one learned list, and the formula gains an implied
    clause between them.
    """
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    p = _random_3sat(rng, n, 4.26)
    outs = [solve(p)]
    learned = []
    for _ in range(2):
        vs = rng.sample(range(1, n + 1), 3)
        h = Clause([v if rng.random() < 0.5 else -v for v in vs])
        outs.append(solve(p, assumptions=_falsifying(h), learned=learned))
        c = p.clauses[rng.randrange(len(p.clauses))]
        v = rng.choice([v for v in range(1, n + 1) if v not in c.variables()])
        p.add_clause(Clause([*c.literals, v]))
    return [(out.status, out.trace) for out in outs]


@pytest.mark.parametrize("seed", range(20))
def test_cached_clusters_match_fresh_ones(seed, monkeypatch):
    cached = _cluster_runs(seed)
    monkeypatch.setattr(solver, "cluster_of", _fresh_cluster_of)
    assert _cluster_runs(seed) == cached
