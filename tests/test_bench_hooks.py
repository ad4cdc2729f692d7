"""The benchmark's per-layer tracing still finds every entry point it wraps.

``bench/spans.py`` swaps functions and methods of the package for timed
wrappers by owner and attribute name.  Entering ``Tracer().wrapped()``
looks every one of them up, so a rename or a moved binding fails here
rather than silently dropping a layer from ``bench/run.py --trace 1``.
"""

import importlib.util
import pathlib

import pqesat
import pqesat.pqe
from pqesat.cnf import Clause, CnfProblem, parse_dimacs_file

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = ROOT / "examples"


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_records_the_engine_layers():
    spans = _load_spans()
    example1 = parse_dimacs_file(str(EXAMPLES / "example1.cnf"))
    nine = parse_dimacs_file(str(EXAMPLES / "appendix_e.cnf"))
    original = pqesat.pqe.take_out
    tracer = spans.Tracer()
    sat3 = spans.Tracer()
    with tracer.wrapped():
        # Looked up through the module at call time, as the engine does.
        sol = pqesat.pqe.take_out(pqesat.PqeProblem(example1, (0,)))
    with sat3.wrapped():
        out = pqesat.solve(nine)
    assert pqesat.pqe.take_out is original
    assert [list(c.literals) for c in sol.solution_clauses] == [[2]]
    assert out.status == "unsat"
    totals = tracer.totals()
    for name in ("pqe.take_out", "pqe.detect"):
        assert totals.get(name, (0, 0.0))[0] > 0, name
    # The nine-clause solve alone enters every layer bench/selftest.py
    # requires of the sat3 workload.
    totals = sat3.totals()
    for name in ("solver.solve", "solver.required_pairs", "solver.certificate_for",
                 "solver.check_induction", "bcp.propagate", "bcp.analyze_conflict"):
        assert totals.get(name, (0, 0.0))[0] > 0, name


def test_a_detection_taken_from_the_store_enters_the_traced_method(monkeypatch):
    # The target (3 or 2) fails at the root, and that failure reads no
    # clause holding 1, so node 1=0 takes it from the pass's detector;
    # node 1=1 detects afresh.
    spans = _load_spans()
    clauses = [[3, 2], [-3, 4], [2, 4], [2, -4], [1, -2, 5], [1, -2, -5]]
    problem = CnfProblem(5, [Clause(c) for c in clauses], frozenset({3, 4, 5}))
    computed = []
    rules = pqesat.pqe._Detector._rules

    def counted(self, index):
        computed.append(index)
        return rules(self, index)

    monkeypatch.setattr(pqesat.pqe._Detector, "_rules", counted)
    tracer = spans.Tracer()
    with tracer.wrapped():
        pqesat.pqe.take_out(pqesat.PqeProblem(problem, (0,)))
    assert tracer.totals()["pqe.detect"][0] == 3
    assert computed == [0, 0]
