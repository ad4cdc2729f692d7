"""The benchmark's workloads: frozen corpora of queries, each with an oracle.

A workload builds its queries from a corpus seed through the public
constructors and ``pqesat.fuzzing``.  Each query has three steps:
``run`` is the timed call into pqesat, ``answer`` turns its result into a
small verdict (untimed, so no large result object outlives the call), and
``check`` compares that verdict with an enumeration oracle after all
timing is done.  ``check`` returns None for a verified verdict and a
reason otherwise; only 3-SAT needs the cached ``SatOracle`` it is given.

Why the corpora are frozen: the time of one query spans three orders of
magnitude inside every workload (3-SAT p10 2 ms, p90 270 ms), and it moves
as much with clause order as with the instance.  Drawing a fresh corpus of
100-300 queries per run moved the p50 by 15-40% from seed to seed, wider
than any regression bound worth having.  So the corpus is fixed at the
acceptance seeds, ``--seed`` orders the queries of every pass, and
``--corpus-seed`` draws another corpus to check that a gain is not tied
to the frozen one.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pqesat
from pqesat.fuzzing import (
    distinct_mutant,
    netlist_truth_table,
    random_netlist,
    random_transition_system,
    reencode_netlist,
)


class DiameterQuery:
    """diameter_lt(ts, k), checked against breadth-first reachability."""

    def __init__(self, label: str, ts: pqesat.TransitionSystem, k: int):
        self.label = label
        self.ts = ts
        self.k = k

    def run(self) -> bool:
        return pqesat.diameter_lt(self.ts, self.k)

    def answer(self, result: bool) -> bool:
        return result

    def check(self, verdict: bool, oracle: "SatOracle") -> Optional[str]:
        want = pqesat.bfs_reach(self.ts, self.k - 1) == pqesat.bfs_reach(
            self.ts, self.k
        )
        if verdict != want:
            return f"diameter_lt said {verdict}, breadth-first search says {want}"
        return None


class SatQuery:
    """solve(cnf): a sat model must satisfy every clause, unsat must hold
    under exhaustive enumeration."""

    def __init__(self, label: str, cnf: pqesat.CnfProblem):
        self.label = label
        self.cnf = cnf

    def run(self) -> pqesat.SolveOutcome:
        return pqesat.solve(self.cnf)

    def answer(self, outcome: pqesat.SolveOutcome):
        return outcome.status, outcome.model

    def check(self, verdict, oracle: "SatOracle") -> Optional[str]:
        status, model = verdict
        if status == "sat":
            for c in self.cnf.clauses:
                if not any(model.get(abs(lit)) == (lit > 0) for lit in c):
                    return f"model falsifies clause {c!r}"
            return None
        if status == "unsat":
            if oracle.satisfiable(self.cnf):
                return "solver said unsat, enumeration found a model"
            return None
        return f"no verdict: status {status}"


class EqQuery:
    """eq_check on a circuit pair, checked against both truth tables."""

    def __init__(self, label: str, m1: pqesat.Netlist, m2: pqesat.Netlist):
        self.label = label
        self.m1 = m1
        self.m2 = m2
        self.inst = pqesat.EqCheckInstance(m1, m2)

    def run(self) -> pqesat.EqCheckResult:
        return pqesat.eq_check(self.inst)

    def answer(self, res: pqesat.EqCheckResult):
        return res.verdict, res.witness, res.constant

    def check(self, verdict, oracle: "SatOracle") -> Optional[str]:
        got, witness, constant = verdict
        t1 = netlist_truth_table(self.m1)
        t2 = netlist_truth_table(self.m2)
        want_constant = None
        for label, table in (("m1", t1), ("m2", t2)):
            if len(set(table)) == 1:
                want_constant = f"{label} is constant {int(table[0][0])}"
                break
        if want_constant is not None:
            if (got, constant) != ("constant_circuit", want_constant):
                return f"got {got} ({constant}), want {want_constant}"
            return None
        want = "equivalent" if t1 == t2 else "inequivalent"
        if got != want:
            return f"got {got}, truth tables say {want}"
        if got == "inequivalent":
            if not witness or set(witness) != set(self.m1.inputs):
                return f"witness {witness} does not assign the inputs"
            vector = [witness[name] for name in self.m1.inputs]
            out1 = self.m1.output_values(dict(zip(self.m1.inputs, vector)))
            out2 = self.m2.output_values(dict(zip(self.m2.inputs, vector)))
            if out1 == out2:
                return f"witness {vector} gives equal outputs {out1}"
        return None


class SatOracle:
    """oracle.enum_sat verdicts, cached on disk by instance content.

    Enumerating one unsatisfiable 3-SAT instance at 20-22 variables takes
    1-3.5 s; the corpus is frozen, so each instance is enumerated once per
    checkout rather than once per run.  The cache holds the oracle's
    answer about the instance, never the solver's, so every run still
    checks every verdict.  ``path`` None keeps the cache in memory only.
    """

    def __init__(self, path: Optional[Path]):
        self.path = path
        self.known: dict[str, bool] = {}
        if path is not None and path.exists():
            self.known = json.loads(path.read_text())

    @staticmethod
    def key(cnf: pqesat.CnfProblem) -> str:
        body = pqesat.format_dimacs(cnf).encode()
        return hashlib.sha256(body).hexdigest()

    def satisfiable(self, cnf: pqesat.CnfProblem) -> bool:
        k = self.key(cnf)
        if k not in self.known:
            self.known[k] = pqesat.enum_sat(cnf) is not None
            self._save()
        return self.known[k]

    def _save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def build_diameter(rng: random.Random, size: int) -> list:
    queries = []
    for i in range(size):
        ts = random_transition_system(rng)
        for k in range(1, 6):
            queries.append(DiameterQuery(f"ts{i}/k{k}", ts, k))
    return queries


SAT3_VARS = (20, 21, 22)


def random_3sat(rng: random.Random, n: int) -> pqesat.CnfProblem:
    clauses = []
    for _ in range(round(4.26 * n)):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append(pqesat.Clause([v if rng.random() < 0.5 else -v for v in chosen]))
    return pqesat.CnfProblem(n, clauses)


def build_sat3(rng: random.Random, size: int, var_counts=SAT3_VARS) -> list:
    queries = []
    for i in range(size):
        cnf = random_3sat(rng, rng.choice(var_counts))
        queries.append(SatQuery(f"cnf{i}/n{cnf.var_count}", cnf))
    return queries


def build_eqcheck(rng: random.Random, size: int) -> list:
    queries = []
    for i in range(size):
        m1 = random_netlist(rng, 4, rng.randint(3, 7))
        if i % 2 == 0:
            queries.append(EqQuery(f"pair{i}/reencoded", m1, reencode_netlist(rng, m1)))
        else:
            queries.append(EqQuery(f"pair{i}/mutant", m1, distinct_mutant(rng, m1)))
    return queries


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus_seed: int
    size: int
    build: Callable[[random.Random, int], list]

    def queries(self, corpus_seed: Optional[int] = None) -> list:
        seed = self.corpus_seed if corpus_seed is None else corpus_seed
        return self.build(random.Random(seed), self.size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "diameter",
            "PQE-heavy: decide_redundant with solver probes and early exit; "
            "atomic detectors and the projection fallback dominate, solver "
            "layers stay under 4%",
            606,  # the criterion-6 corpus; its first 20 systems, k = 1..5
            20,
            build_diameter,
        ),
        Workload(
            "sat3",
            "solver-heavy: clause-cluster induction on random 3-SAT at ratio "
            "4.26, n in 20-22; never enters pqe, so pqe changes must not move it",
            426,
            100,
            build_sat3,
        ),
        Workload(
            "eqcheck",
            "the same PQE layer used differently: take_out to completion with "
            "many targets plus constant and miter probes; projection is rare",
            83,  # the criterion-8 seed
            100,
            build_eqcheck,
        ),
    )
}
