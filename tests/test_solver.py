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
)
from pqesat.fuzzing import random_cnf
from pqesat.oracle import enum_sat, implies
from pqesat.solver import (
    CoverageTable,
    SolverConfig,
    build_induction_clause,
    certificate_for,
    check_induction,
    required_pairs,
    solve,
    specify_vicinity,
)

DATA = pathlib.Path(__file__).parent / "data"


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
    assert required_pairs(problem, 0, trail) == [(0, 2), (0, 3), (2, 2)]


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
    assert check_induction(CoverageTable(problem, learned, trail)) == 0
    assert check_induction(CoverageTable(problem, learned[:2], trail)) is None
    table = CoverageTable(problem, learned, trail)
    assert check_induction(table, candidates=[1]) is None


def test_build_induction_clause():
    # Seed's falsified literal, the certificates' foreign variables, and
    # the negated earliest satisfier of the satisfied cluster clause.
    problem, trail, learned = _coverage_fixture()
    got = build_induction_clause(CoverageTable(problem, learned, trail), 0)
    assert got.literals == (-1, 10, 4, -9)


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


def test_table_covers_a_pair_first_tested_uncovered():
    problem, trail, learned = _coverage_fixture()
    grown = learned[:1]
    table = CoverageTable(problem, grown, trail)
    # (0, 2) is covered; (0, 3) is tested against the one clause and fails.
    assert table.uncovered(0) == specify_vicinity(problem, 0, 3, trail)
    grown.append(learned[1])
    assert table.uncovered(0) == specify_vicinity(problem, 2, 2, trail)
    grown.append(learned[2])
    assert table.uncovered(0) is None
    assert check_induction(table) == 0
    got = build_induction_clause(table, 0)
    assert got.literals == (-1, 10, 4, -9)


def test_table_is_rebuilt_when_a_learned_clause_grows_the_cluster():
    # Under learn_to="F" a certificate joins the formula.  [3, 5] shares
    # the seed's open literal 3, so the seed's cluster gains the required
    # pair (6, 3), which no learned clause covers.
    problem, trail, learned = _coverage_fixture()
    table = CoverageTable(problem, learned, trail)
    assert table.uncovered(0) is None
    for c in (Clause([3, 5]), Clause([-3, 10])):
        learned.append(c)
        problem.add_clause(c)
        if c == Clause([3, 5]):
            assert table.uncovered(0) == specify_vicinity(problem, 6, 3, trail)
        assert table.uncovered(0) == _scan_uncovered(problem, learned, trail, 0)
    assert table.uncovered(0) is None
    fresh = CoverageTable(problem, learned, trail)
    assert build_induction_clause(table, 0) == build_induction_clause(fresh, 0)


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
    learn_to_f = rng.random() < 0.5
    learned = []
    table = CoverageTable(problem, learned, trail)
    for _ in range(3 * n):
        vs = rng.sample(range(1, n + 1), rng.randint(1, 3))
        c = Clause([v if rng.random() < 0.5 else -v for v in vs])
        learned.append(c)
        if learn_to_f:
            problem.add_clause(c)
        fired = None
        for i, clause in enumerate(problem.clauses):
            if trail.satisfies_clause(clause):
                continue
            want = _scan_uncovered(problem, learned, trail, i)
            assert table.uncovered(i) == want
            if want is None:
                fired = i if fired is None else fired
                fresh = CoverageTable(problem, learned, trail)
                got = build_induction_clause(table, i)
                assert got == build_induction_clause(fresh, i)
        assert check_induction(table) == fired


def _random_trail(rng, n, most):
    order = rng.sample(range(1, n + 1), n)
    return Assignment(
        [Binding(v, rng.random() < 0.5) for v in order[: rng.randint(0, most)]]
    )


@pytest.mark.parametrize("seed", range(40))
def test_indexed_lookup_matches_the_linear_scan(seed):
    # Several tables over one growing list, each under its own trail.
    # The trails are not at a fixpoint, so some learned clauses are
    # falsified outright, and lookups start anywhere in the list.
    rng = random.Random(seed)
    problem = random_cnf(rng, max_vars=9, max_clauses=20)
    n = problem.var_count
    learned = []
    tables = []
    for _ in range(3):
        trail = _random_trail(rng, n, n // 2)
        tables.append((trail, CoverageTable(problem, learned, trail)))
    for _ in range(4 * n):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        learned.append(Clause([v if rng.random() < 0.5 else -v for v in vs]))
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


def test_a_clause_falsified_by_the_trail_covers_every_later_lookup():
    # Off a fixpoint, a learned clause can be falsified outright.  It is
    # the first certificate of every pair once classified, and it stays
    # one for lookups that do not classify it themselves.
    problem, trail, _ = _coverage_fixture()
    learned = [Clause([-1, 4]), Clause([3, 10])]
    table = CoverageTable(problem, learned, trail)
    for ci, lit in required_pairs(problem, 0, trail):
        spec = specify_vicinity(problem, ci, lit, trail)
        assert certificate_for(spec, table) is learned[0]
    spec = specify_vicinity(problem, 0, 2, trail)
    assert certificate_for(spec, table, 1) is learned[1]


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
    out = solve(p, SolverConfig(step_limit=1))
    assert out.status == "unknown"
    assert out.model is None


def test_solver_config_validates_learn_to():
    with pytest.raises(ValueError):
        SolverConfig(learn_to="Q")


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


def test_nine_clause_learning_into_the_formula():
    out = solve(NINE.copy(), SolverConfig(learn_to="F"))
    assert out.status == "unsat"
    grown = out.problem
    assert len(grown.clauses) == len(NINE.clauses) + len(out.certificates)
    for c in [r.clause for r in out.certificates]:
        assert c in grown.clauses


def test_learning_into_the_formula_leaves_the_callers_formula_alone():
    p = parse_dimacs(INDUCTION_ON_ENTRY)
    size = len(p.clauses)
    out = solve(p, SolverConfig(learn_to="F"))
    assert out.status == "unsat"
    assert out.problem is not p
    assert len(p.clauses) == size
    assert len(out.problem.clauses) == size + len(out.certificates)


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


@pytest.mark.parametrize("learn_to", ["P", "F"])
def test_induction_fires_when_a_subspace_is_already_certified(learn_to):
    p = parse_dimacs(INDUCTION_ON_ENTRY)
    assert enum_sat(p) is None
    out = solve(p, SolverConfig(learn_to=learn_to))
    assert out.status == "unsat"
    assert out.steps == {"P": 54, "F": 74}[learn_to]
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


def _probe_run(seed, learn_to):
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
        out = solve(p, SolverConfig(learn_to=learn_to), _falsifying(h), learned)
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


@pytest.mark.parametrize("learn_to", ["P", "F"])
@pytest.mark.parametrize("seed", range(30))
def test_probes_sharing_certificates_agree_with_fresh_entailment(seed, learn_to):
    _probe_run(seed, learn_to)


def test_probe_runs_share_certificates():
    # The corpus above does learn: most runs end with a nonempty list.
    assert sum(bool(_probe_run(seed, "P")) for seed in range(30)) >= 25


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
    """Statuses and traces of one learn_to="F" solve and two probes.

    The probes share one learned list, and the formula gains an implied
    clause between them.
    """
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    p = _random_3sat(rng, n, 4.26)
    outs = [solve(p, SolverConfig(learn_to="F"))]
    learned = []
    for learn_to in ("P", "F"):
        vs = rng.sample(range(1, n + 1), 3)
        h = Clause([v if rng.random() < 0.5 else -v for v in vs])
        outs.append(solve(p, SolverConfig(learn_to=learn_to), _falsifying(h), learned))
        c = p.clauses[rng.randrange(len(p.clauses))]
        v = rng.choice([v for v in range(1, n + 1) if v not in c.variables()])
        p.add_clause(Clause([*c.literals, v]))
    return [(out.status, out.trace) for out in outs]


@pytest.mark.parametrize("seed", range(20))
def test_cached_clusters_match_fresh_ones(seed, monkeypatch):
    cached = _cluster_runs(seed)
    monkeypatch.setattr(solver, "cluster_of", _fresh_cluster_of)
    assert _cluster_runs(seed) == cached
