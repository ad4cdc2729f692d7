"""End-to-end acceptance checks, one test per criterion.

Each test finishes by printing a single ``PASS criterion-N`` line with
the numbers it measured, so running this module with ``-s`` doubles as
the acceptance report.  Seeds and budgets are frozen; a budget overrun
fails the test just like a wrong answer.
"""

import json
import pathlib
import random
import time
from collections import Counter

from pqesat.apps import diameter_lt, eq_check, interpolate
from pqesat.apps import EqCheckInstance
from pqesat.circuits import Gate, Netlist, TransitionSystem, add_stutter
from pqesat.cnf import (
    Assignment,
    Binding,
    Clause,
    CnfProblem,
    cluster_of,
    is_blocked,
    parse_dimacs_file,
)
from pqesat.fuzzing import (
    distinct_mutant,
    netlist_truth_table,
    random_cnf,
    random_eq_pair,
    random_interp_split,
    random_netlist,
    random_pqe,
    random_transition_system,
)
from pqesat.oracle import bfs_reach, enum_sat, implies, qe_enum, verify_pqe
from pqesat.pqe import PqeProblem, take_out
from pqesat.solver import CoverageTable, build_induction_clause, solve

from oracle_helpers import check_dsequent, extension_holds

HERE = pathlib.Path(__file__).parent
EXAMPLES = HERE.parent / "examples"
GOLDEN_TRACE = HERE / "data" / "trace_nine_clause.jsonl"


def test_criterion_1_nine_clause_regression():
    started = time.perf_counter()
    nine = CnfProblem(
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
    out = solve(nine)
    assert out.status == "unsat"
    learned = [sorted(r.clause.literals, key=abs) for r in out.certificates]
    assert learned == [[-1, 2], [1, -2], [-1, 3], [-2, 4]]
    assert [r["iter"] for r in out.trace] == [1, 2, 3, 4]
    # The closing move: induction on the first clause's cluster, with
    # nothing left over, which is an unsatisfiability proof.
    assert out.trace[3]["action"] == "induct"
    assert out.trace[3]["induction"] == 1
    assert out.closing_clause is not None
    assert out.closing_clause.is_empty()
    rendered = "".join(json.dumps(r) + "\n" for r in out.trace)
    assert rendered == GOLDEN_TRACE.read_text()
    elapsed = time.perf_counter() - started
    assert elapsed < 0.1
    print(
        f"PASS criterion-1: nine-clause run unsat, 4 certificates, "
        f"golden trace byte-identical, {elapsed * 1000:.1f} ms"
    )


def test_criterion_2_unit_extraction_regression():
    started = time.perf_counter()
    p = parse_dimacs_file(str(EXAMPLES / "example1.cnf"))
    sol = take_out(PqeProblem(p, (0,)))
    assert [list(c.literals) for c in sol.solution_clauses] == [[2]]
    assert verify_pqe(p, [0], sol.solution_clauses)
    # One branch of the split on variable 2 closes by conflict; the
    # learned unit comes from resolving on variable 3 and then 1.
    conflict = next(
        e for e in sol.derivation if e["event"] == "conflict_clause"
    )
    assert conflict["clause"] == [2]
    assert conflict["steps"] == [[0, 3], [1, 1]]
    assert conflict["decisions"] == [(2, False)]
    # The other branch finds the target trivially redundant (blocked).
    atomic = [e for e in sol.derivation if e["event"] == "atomic"]
    assert [(e["rationale"], e["subspace"]) for e in atomic] == [
        ("blocked", [(2, True)])
    ]
    join = next(
        e for e in sol.derivation if e["event"] == "resolve_dsequents"
    )
    assert join["var"] == 2 and join["subspace"] == []
    assert sol.final_dsequents[0].subspace == ()
    elapsed = time.perf_counter() - started
    assert elapsed < 0.1
    print(
        f"PASS criterion-2: unit extraction emits clause [2], both branch "
        f"records present, resolutions on vars 3 then 1, {elapsed * 1000:.1f} ms"
    )


def test_criterion_3_worked_micro_examples():
    # Cluster membership: sharers of an identical literal, seed first.
    p = CnfProblem(
        9,
        [
            Clause([1, 2]),
            Clause([1, -7, 9]),
            Clause([1, -3]),
            Clause([2, 5, 6]),
            Clause([-1, 4]),
            Clause([-2, 7]),
            Clause([5, 8]),
        ],
    )
    assert cluster_of(p, 0) == [0, 1, 2, 3]

    # A learned set that is satisfiable on its own and alongside the
    # cluster, but pins the cluster's variables to a single point; the
    # cut clause through that point closes the conjunction.
    cluster = [Clause([1, -2]), Clause([1, 5]), Clause([-2, -6, 8])]
    learned = [
        Clause([-1, -2]),
        Clause([1, 2]),
        Clause([-1, 5]),
        Clause([2, -6, 8]),
    ]
    assert enum_sat(CnfProblem(8, learned)) is not None
    model = enum_sat(CnfProblem(8, learned + cluster))
    assert model is not None
    assert (model[1], model[2], model[5]) == (True, False, True)
    cut = Clause([-1, 2, -5])
    assert enum_sat(CnfProblem(8, learned + cluster + [cut])) is None

    # The induction clause built from a mixed cluster under a trail.
    formula = CnfProblem(
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
    side = [
        Clause([3, 10]),
        Clause([2, 4]),
        Clause([4, -6, 8]),
    ]
    got = build_induction_clause(CoverageTable(formula, side, trail), 0)
    assert got.literals == (-1, 10, 4, -9)
    print(
        "PASS criterion-3: cluster [0,1,2,3], learned set pins the cluster "
        "point, induction clause (-1, 10, 4, -9)"
    )


def test_criterion_4_solver_agrees_with_enumeration():
    started = time.perf_counter()
    rng = random.Random(7)
    sat_count = implied = 0
    for _ in range(1000):
        p = random_cnf(rng)
        out = solve(p)
        model = enum_sat(p)
        assert out.status == ("sat" if model is not None else "unsat")
        if out.status == "sat":
            sat_count += 1
            for c in p.clauses:
                assert any(
                    out.model[abs(lit)] == (lit > 0) for lit in c.literals
                )
        for c in [r.clause for r in out.certificates]:
            assert implies(p, c)
            implied += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"PASS criterion-4: 1000 instances, 0 discrepancies "
        f"({sat_count} sat), {implied} learned clauses all implied, "
        f"{elapsed:.2f} s"
    )


def test_criterion_5_extraction_agrees_with_enumeration():
    started = time.perf_counter()
    rng = random.Random(5)
    rationales = Counter()
    records = 0
    for _ in range(500):
        inst = random_pqe(rng)
        sol = take_out(inst)
        assert verify_pqe(inst.problem, list(inst.targets), sol.solution_clauses)
        for d in sol.final_dsequents.values():
            assert check_dsequent(sol.formula, d)
            rationales[d.rationale] += 1
            records += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    assert records > 0
    summary = ", ".join(f"{k} {v}" for k, v in sorted(rationales.items()))
    print(
        f"PASS criterion-5: 500 instances verified, {records} redundancy "
        f"records replayed ({summary}), {elapsed:.2f} s"
    )


def test_criterion_6_diameter_agrees_with_reachability():
    started = time.perf_counter()
    counter = TransitionSystem(
        CnfProblem(2, [Clause([-1]), Clause([-2])]),
        Netlist(
            ["s_1", "s_2"],
            [
                Gate("next_2", "NOT", ("s_2",)),
                Gate("next_1", "XOR", ("s_1", "s_2")),
            ],
            ["next_1", "next_2"],
        ),
    )
    ts = add_stutter(counter)
    assert not diameter_lt(ts, 3)
    assert diameter_lt(ts, 4)
    rng = random.Random(606)
    checked = 0
    for _ in range(30):
        system = random_transition_system(rng)
        for k in range(1, 6):
            want = bfs_reach(system, k - 1) == bfs_reach(system, k)
            assert diameter_lt(system, k) == want
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"PASS criterion-6: counter diameter pinned at 4, {checked} "
        f"bound queries match breadth-first search, {elapsed:.2f} s"
    )


def test_criterion_7_interpolation_extension_property():
    started = time.perf_counter()
    rng = random.Random(41)
    quota = {True: 100, False: 100}  # keyed by joint satisfiability
    statuses = Counter()
    while quota[True] or quota[False]:
        inst = random_interp_split(rng)
        if inst is None:
            continue
        n = max(inst.a.var_count, inst.b.var_count)
        joint = CnfProblem(n, list(inst.a.clauses) + list(inst.b.clauses))
        joint_sat = enum_sat(joint) is not None
        if not quota[joint_sat]:
            continue
        quota[joint_sat] -= 1
        res = interpolate(inst)
        statuses[res.status] += 1
        assert extension_holds(inst, res.candidate)
        if res.status == "interpolant":
            for c in res.candidate:
                assert implies(inst.a, c)
            if not joint_sat:
                refut = CnfProblem(
                    n, list(res.candidate) + list(inst.b.clauses)
                )
                assert enum_sat(refut) is None
        else:
            assert not all(implies(inst.a, c) for c in res.candidate)
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    summary = ", ".join(f"{k} {v}" for k, v in sorted(statuses.items()))
    print(
        f"PASS criterion-7: 100 unsatisfiable + 100 satisfiable splits, "
        f"extension property holds ({summary}), {elapsed:.2f} s"
    )


def _is_constant(nl: Netlist) -> bool:
    return len(set(netlist_truth_table(nl))) == 1


def test_criterion_8_equivalence_checking():
    started = time.perf_counter()
    rng = random.Random(83)
    equivalent = 0
    while equivalent < 50:
        inst = random_eq_pair(rng)
        if _is_constant(inst.m1):
            continue
        res = eq_check(inst)
        assert res.verdict == "equivalent"
        equivalent += 1
    inequivalent = 0
    while inequivalent < 50:
        m1 = random_netlist(rng, 3, rng.randint(2, 5))
        if _is_constant(m1):
            continue
        m2 = distinct_mutant(rng, m1)
        if _is_constant(m2):
            continue
        res = eq_check(EqCheckInstance(m1, m2))
        assert res.verdict == "inequivalent"
        vector = [res.witness[name] for name in m1.inputs]
        got1 = m1.output_values(dict(zip(m1.inputs, vector)))
        got2 = m2.output_values(dict(zip(m2.inputs, vector)))
        assert got1 != got2
        inequivalent += 1
    plain = Netlist(["a"], [Gate("z", "AND", ("a", "a"))], ["z"])
    const0 = Netlist(
        ["a"],
        [Gate("na", "NOT", ("a",)), Gate("z", "AND", ("a", "na"))],
        ["z"],
    )
    const1 = Netlist(
        ["a"],
        [
            Gate("na", "NOT", ("a",)),
            Gate("z0", "AND", ("a", "na")),
            Gate("z", "NOT", ("z0",)),
        ],
        ["z"],
    )
    res = eq_check(EqCheckInstance(plain, const0))
    assert res.verdict == "constant_circuit"
    assert res.constant == "m2 is constant 0"
    res = eq_check(EqCheckInstance(const1, plain))
    assert res.verdict == "constant_circuit"
    assert res.constant == "m1 is constant 1"
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"PASS criterion-8: 50 equivalent + 50 inequivalent pairs with "
        f"confirmed witnesses + 2 constant circuits, {elapsed:.2f} s"
    )


def test_criterion_9_blocked_clause_redundancy():
    started = time.perf_counter()
    rng = random.Random(909)
    confirmed = 0
    for _ in range(300):
        inst = random_pqe(rng, max_vars=8)
        p = inst.problem
        base = None
        for i, c in enumerate(p.clauses):
            candidates = sorted(set(c.variables()) & p.quantified)
            for v in candidates:
                if not is_blocked(p, c, v):
                    continue
                if base is None:
                    base = qe_enum(p)
                rest = [d for j, d in enumerate(p.clauses) if j != i]
                reduced = CnfProblem(p.var_count, rest, p.quantified)
                assert qe_enum(reduced) == base
                confirmed += 1
                break
    elapsed = time.perf_counter() - started
    assert confirmed > 0
    print(
        f"PASS criterion-9: {confirmed} blocked-clause removals leave the "
        f"projection unchanged, {elapsed:.2f} s"
    )
