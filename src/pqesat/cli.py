"""Command-line front end.

One executable, one subcommand per engine or oracle:

* ``sat`` / ``sat-oracle`` -- satisfiability of a DIMACS file, by the
  clause-induction solver or by exhaustive enumeration.
* ``pqe`` / ``pqe-check`` / ``verify-pqe`` -- take clauses out of a
  quantified formula, decide whether they are redundant, or check a
  previously computed solution.
* ``diameter`` / ``interp`` / ``eqcheck`` / ``propgen`` -- the four
  applications built on top of the elimination engine.
* ``fuzz`` -- seeded random instances cross-checked against the
  enumeration oracles.

Exit codes follow SAT-competition practice where a verdict is involved:
10 satisfiable, 20 unsatisfiable, 30 unknown (step limit, oracle size
guard, or an instance deeper than Python's recursion limit).  Usage
errors exit 2, unreadable or malformed input files exit 3, and a failed
verification exits 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from .apps import (
    AppError,
    EqCheckInstance,
    InterpolationInstance,
    diameter_lt,
    eq_check,
    interpolate,
    prop_gen,
)
from .circuits import (
    CircuitError,
    TransitionSystem,
    add_stutter,
    parse_netlist_file,
)
from .cnf import Clause, CnfError, mentioned_variables, parse_dimacs_file
from .oracle import MAX_SAT_VARS, GuardError, bfs_reach, enum_sat, verify_pqe
from . import fuzzing
from .pqe import PqeConfig, PqeError, PqeProblem, StepLimitError, decide_redundant, take_out
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30


def _clause_line(clause: Clause) -> str:
    return " ".join(str(lit) for lit in clause) + " 0"


def _model_line(model: dict[int, bool]) -> str:
    lits = [v if model[v] else -v for v in sorted(model)]
    return " ".join(["v", *map(str, lits), "0"])


def _int_token(tok: str, line: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CnfError(f"bad token {tok!r} in line: {line.strip()}") from None


def _targets_from_comments(path: str) -> Optional[list[int]]:
    """The 1-based target list from a ``c targets i1 i2 ... 0`` line."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) >= 2 and parts[0] == "c" and parts[1] == "targets":
                if len(parts) < 3 or parts[-1] != "0":
                    raise CnfError(f"malformed targets comment: {line.strip()}")
                return [_int_token(tok, line) for tok in parts[2:-1]]
    return None


def _resolve_targets(args, path: str, clause_count: int) -> tuple[int, ...]:
    """Clause indices to take out: the flag wins over the file comment."""
    one_based = args.targets
    if one_based is None:
        one_based = _targets_from_comments(path)
    if not one_based:
        raise PqeError(
            "no targets: pass --targets or add a 'c targets i1 ... 0' line"
        )
    out = []
    for t in one_based:
        if not 1 <= t <= clause_count:
            raise PqeError(
                f"target {t} out of range (file has {clause_count} clauses)"
            )
        out.append(t - 1)
    return tuple(out)


def _read_solution_clauses(path: str) -> list[Clause]:
    """Clauses from a DIMACS fragment (comments and a header tolerated)."""
    literals: list[int] = []
    clauses: list[Clause] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts or parts[0] in ("c", "p"):
                continue
            for tok in parts:
                lit = _int_token(tok, line)
                if lit == 0:
                    clauses.append(Clause(literals))
                    literals = []
                else:
                    literals.append(lit)
    if literals:
        raise CnfError(f"unterminated clause in {path}")
    return clauses


def _pqe_config(args) -> PqeConfig:
    return PqeConfig(step_limit=args.step_limit)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def cmd_sat(args) -> int:
    problem = parse_dimacs_file(args.file)
    config = SolverConfig(learn_to=args.learn_to, step_limit=args.step_limit)
    outcome = solve(problem, config)
    if args.trace:
        with open(args.trace, "w", encoding="ascii") as handle:
            for record in outcome.trace:
                handle.write(json.dumps(record) + "\n")
    if outcome.status == "sat":
        print("s SATISFIABLE")
        print(_model_line(outcome.model))
        return EXIT_SAT
    if outcome.status == "unsat":
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print("s UNKNOWN")
    return EXIT_UNKNOWN


def cmd_sat_oracle(args) -> int:
    problem = parse_dimacs_file(args.file)
    model = enum_sat(problem)
    if model is None:
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print("s SATISFIABLE")
    print(_model_line(model))
    return EXIT_SAT


def cmd_pqe(args) -> int:
    problem = parse_dimacs_file(args.file)
    targets = _resolve_targets(args, args.file, len(problem.clauses))
    solution = take_out(PqeProblem(problem, targets), _pqe_config(args))
    if not solution.solution_clauses:
        print("c empty solution: the targets were already redundant")
    for clause in solution.solution_clauses:
        print(_clause_line(clause))
    return EXIT_OK


def cmd_pqe_check(args) -> int:
    problem = parse_dimacs_file(args.file)
    targets = _resolve_targets(args, args.file, len(problem.clauses))
    if decide_redundant(PqeProblem(problem, targets), _pqe_config(args)):
        print("redundant")
    else:
        print("not redundant")
    return EXIT_OK


def cmd_verify_pqe(args) -> int:
    problem = parse_dimacs_file(args.file)
    targets = _resolve_targets(args, args.file, len(problem.clauses))
    solution = _read_solution_clauses(args.solution)
    if verify_pqe(problem, list(targets), solution):
        print("verified")
        return EXIT_OK
    print("FAILED: projections differ")
    return EXIT_FAILED


def cmd_diameter(args) -> int:
    netlist = parse_netlist_file(args.netlist)
    init = parse_dimacs_file(args.init)
    ts = TransitionSystem(len(netlist.outputs), init, netlist)
    if not args.no_stutter:
        ts = add_stutter(ts)
    if diameter_lt(ts, args.k, _pqe_config(args)):
        print(f"diameter < {args.k}: yes")
    else:
        print(f"diameter < {args.k}: no")
    return EXIT_OK


def cmd_interp(args) -> int:
    side_a = parse_dimacs_file(args.a)
    side_b = parse_dimacs_file(args.b)
    shared = mentioned_variables(side_a) & mentioned_variables(side_b)
    instance = InterpolationInstance(side_a, side_b, shared)
    result = interpolate(instance, _pqe_config(args))
    print(f"status: {result.status}")
    if not result.candidate:
        print("c empty candidate: equivalent to true")
    for clause in result.candidate:
        print(_clause_line(clause))
    return EXIT_OK


def cmd_eqcheck(args) -> int:
    first = parse_netlist_file(args.first)
    second = parse_netlist_file(args.second)
    result = eq_check(EqCheckInstance(first, second), _pqe_config(args))
    print(f"verdict: {result.verdict}")
    if result.verdict == "constant_circuit":
        print(result.constant)
    elif result.verdict == "inequivalent":
        pairs = " ".join(
            f"{name}={int(result.witness[name])}" for name in first.inputs
        )
        print(f"witness: {pairs}")
    return EXIT_OK


def cmd_propgen(args) -> int:
    netlist = parse_netlist_file(args.netlist)
    quantified = frozenset(args.quantify.split(",")) if args.quantify else frozenset()
    if args.target < 1:
        raise AppError(f"--target is 1-based, got {args.target}")
    result = prop_gen(netlist, quantified, args.target - 1, _pqe_config(args))
    if not result.properties:
        print("c no properties: the target clause was already redundant")
    for clause in result.properties:
        print(_clause_line(clause))
    return EXIT_OK


def _fuzz_sat(rng: random.Random, args, n_vars: int) -> Optional[str]:
    problem = fuzzing.random_cnf(rng, n_vars, args.clauses)
    expected = "sat" if enum_sat(problem) is not None else "unsat"
    for learn_to in ("P", "F"):
        config = SolverConfig(learn_to=learn_to, step_limit=args.step_limit)
        outcome = solve(problem, config)
        if outcome.status == "unknown":
            return "step limit exhausted"
        if outcome.status != expected:
            return f"learn_to={learn_to} solver={outcome.status} oracle={expected}"
        if expected == "sat":
            model = outcome.model
            for c in problem.clauses:
                if not any(model[abs(lit)] == (lit > 0) for lit in c.literals):
                    body = " ".join(map(str, c.literals))
                    return f"learn_to={learn_to} model falsifies clause {body}"
    return None


def _fuzz_pqe(rng: random.Random, args, n_vars: int) -> Optional[str]:
    instance = fuzzing.random_pqe(rng, n_vars, args.clauses)
    solution = take_out(instance, PqeConfig(step_limit=args.step_limit))
    ok = verify_pqe(instance.problem, list(instance.targets), solution.solution_clauses)
    return None if ok else "solution check failed"


def _fuzz_diameter(rng: random.Random, args, n_vars: int) -> Optional[str]:
    ts = fuzzing.random_transition_system(rng)
    k = rng.randint(1, 5)
    got = diameter_lt(ts, k, PqeConfig(step_limit=args.step_limit))
    # The diameter is below k exactly when k steps reach no new state.
    expected = bfs_reach(ts, k - 1) == bfs_reach(ts, k)
    return None if got == expected else f"k={k} diameter_lt={got} oracle={expected}"


FUZZ_CHECKS = {"sat": _fuzz_sat, "pqe": _fuzz_pqe, "diameter": _fuzz_diameter}


def cmd_fuzz(args) -> int:
    # The generators draw at least three variables, and pqe mode at least
    # as many clauses as variables, at most 10 of them.  Sat mode checks
    # every draw by enumeration, which stops at MAX_SAT_VARS.  Diameter
    # mode draws three-bit transition systems whatever the sizes say.
    n_vars = args.vars if args.vars is not None else (10 if args.mode == "pqe" else 12)
    if n_vars < 3:
        print("error: --vars must be at least 3", file=sys.stderr)
        return EXIT_USAGE
    if args.step_limit < 1:
        print("error: --step-limit must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "sat" and n_vars > MAX_SAT_VARS:
        print(f"error: sat mode needs --vars <= {MAX_SAT_VARS}", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "pqe":
        if args.clauses < min(n_vars, 10):
            print("error: pqe mode needs --clauses >= min(--vars, 10)", file=sys.stderr)
            return EXIT_USAGE
        if n_vars > 10:
            print("note: pqe mode draws at most 10 variables", file=sys.stderr)
            n_vars = 10
    check = FUZZ_CHECKS[args.mode]
    rng = random.Random(args.seed)
    discrepancies = 0
    for index in range(args.count):
        try:
            found = check(rng, args, n_vars)
        except StepLimitError:
            found = "step limit exhausted"
        if found is not None:
            discrepancies += 1
            print(f"instance {index}: {found}")
    print(f"discrepancies: {discrepancies}")
    return EXIT_OK if discrepancies == 0 else EXIT_FAILED


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _add_step_limit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--step-limit",
        dest="step_limit",
        type=int,
        default=10**6,
        help=(
            "give up (exit 30) after this many engine steps; a step is a unit "
            "of work (a PQE branching node, chained discharge attempt or solver "
            "step of a cube probe, or a solver exploration), a budget, not an "
            "output; a cube settled by an earlier probe's model costs no solver step"
        ),
    )


def _add_targets(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--targets",
        type=int,
        nargs="+",
        metavar="N",
        help="1-based clause indices; overrides any 'c targets' line",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqesat",
        description="Clause-redundancy SAT solving and partial quantifier elimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="solve a DIMACS file with the induction solver")
    p.add_argument("file")
    p.add_argument("--trace", help="write the per-iteration JSON Lines trace here")
    p.add_argument(
        "--learn-to",
        dest="learn_to",
        choices=("P", "F"),
        default="P",
        help="where learned clauses go: the proof set P or the formula F",
    )
    _add_step_limit(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("sat-oracle", help="solve by exhaustive enumeration")
    p.add_argument("file")
    p.set_defaults(func=cmd_sat_oracle)

    p = sub.add_parser("pqe", help="take target clauses out of a quantified formula")
    p.add_argument("file")
    _add_targets(p)
    _add_step_limit(p)
    p.set_defaults(func=cmd_pqe)

    p = sub.add_parser("pqe-check", help="decide whether the targets are redundant")
    p.add_argument("file")
    _add_targets(p)
    _add_step_limit(p)
    p.set_defaults(func=cmd_pqe_check)

    p = sub.add_parser(
        "verify-pqe",
        aliases=["verify"],
        help="check a solution file against the enumeration oracle",
    )
    p.add_argument("file")
    p.add_argument("--solution", required=True, help="DIMACS fragment with the solution clauses")
    _add_targets(p)
    p.set_defaults(func=cmd_verify_pqe)

    p = sub.add_parser("diameter", help="is the reachability diameter below k?")
    p.add_argument("netlist", help="transition function (outputs next_1..next_n)")
    p.add_argument("init", help="DIMACS file over the n state variables")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--no-stutter",
        action="store_true",
        help="do not add a self-loop input (the system must already stutter)",
    )
    _add_step_limit(p)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("interp", help="interpolate between two DIMACS files")
    p.add_argument("a")
    p.add_argument("b")
    _add_step_limit(p)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("eqcheck", help="compare two single-output netlists")
    p.add_argument("first")
    p.add_argument("second")
    _add_step_limit(p)
    p.set_defaults(func=cmd_eqcheck)

    p = sub.add_parser("propgen", help="derive properties of a netlist")
    p.add_argument("netlist")
    p.add_argument("--target", type=int, default=1, help="1-based encoding clause index")
    p.add_argument(
        "--quantify",
        help="comma-separated input names to hide along with the gate variables",
    )
    _add_step_limit(p)
    p.set_defaults(func=cmd_propgen)

    p = sub.add_parser("fuzz", help="seeded random instances vs. the oracles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--vars", type=int, help="default 12, or 10 in pqe mode (its cap)")
    p.add_argument("--clauses", type=int, default=40)
    p.add_argument("--mode", choices=tuple(FUZZ_CHECKS), default="sat")
    _add_step_limit(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, CnfError, CircuitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (PqeError, AppError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except RecursionError:
        # The solver recurses once per nested exploration.
        limit = sys.getrecursionlimit()
        print(f"error: instance too deep for the recursion limit ({limit})",
              file=sys.stderr)
        return EXIT_UNKNOWN
    except StepLimitError:
        print("s UNKNOWN")
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
