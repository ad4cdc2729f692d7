"""The command-line front end, one subcommand at a time."""

import importlib.metadata
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from pqesat import cli

HERE = pathlib.Path(__file__).parent
EXAMPLES = HERE.parent / "examples"
GOLDEN_TRACE = HERE / "data" / "trace_nine_clause.jsonl"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_model_line_satisfies(line: str, clauses):
    assert line.startswith("v ")
    fields = line.split()
    assert fields[-1] == "0"
    model = {}
    for tok in fields[1:-1]:
        lit = int(tok)
        model[abs(lit)] = lit > 0
    for c in clauses:
        assert any(model[abs(lit)] == (lit > 0) for lit in c)


def test_sat_satisfiable(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, _ = run_cli(capsys, ["sat", str(f)])
    assert code == 10
    lines = out.splitlines()
    assert lines[0] == "s SATISFIABLE"
    _assert_model_line_satisfies(lines[1], [[1, 2], [-1, 2]])


def test_sat_unsatisfiable(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run_cli(capsys, ["sat", str(f)])
    assert code == 20
    assert out == "s UNSATISFIABLE\n"


def test_sat_model_line_for_the_empty_formula(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 0 0\n")
    for command in ("sat", "sat-oracle"):
        code, out, _ = run_cli(capsys, [command, str(f)])
        assert code == 10
        assert out == "s SATISFIABLE\nv 0\n"


def test_sat_oracle_agrees(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, _ = run_cli(capsys, ["sat-oracle", str(f)])
    assert code == 10
    _assert_model_line_satisfies(out.splitlines()[1], [[1, 2], [-1, 2]])
    f.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run_cli(capsys, ["sat-oracle", str(f)])
    assert code == 20


def test_sat_step_limit_returns_unknown(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sat", str(EXAMPLES / "appendix_e.cnf"), "--step-limit", "1"],
    )
    assert code == 30
    assert out == "s UNKNOWN\n"


def test_sat_trace_output_is_stable(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys,
        ["sat", str(EXAMPLES / "appendix_e.cnf"), "--trace", str(trace)],
    )
    assert code == 20
    assert out == "s UNSATISFIABLE\n"
    assert trace.read_text() == GOLDEN_TRACE.read_text()


def test_pqe_example_emits_the_unit_clause(capsys):
    code, out, _ = run_cli(
        capsys, ["pqe", str(EXAMPLES / "example1.cnf"), "--targets", "1"]
    )
    assert code == 0
    assert out == "2 0\n"


def test_pqe_reads_the_targets_comment(capsys):
    # example1.cnf carries "c targets 1 0", so the flag is optional.
    code, out, _ = run_cli(capsys, ["pqe", str(EXAMPLES / "example1.cnf")])
    assert code == 0
    assert out == "2 0\n"


TWO_CLAUSES = """\
c targets 2 0
p cnf 2 2
e 2 0
2 0
1 0
"""


def test_pqe_flag_overrides_the_comment(tmp_path, capsys):
    f = tmp_path / "two.cnf"
    f.write_text(TWO_CLAUSES)
    # The comment points at the free unit clause, which moves verbatim.
    code, out, _ = run_cli(capsys, ["pqe", str(f)])
    assert code == 0
    assert out == "1 0\n"
    # The flag redirects to the quantified unit, which is just redundant.
    code, out, _ = run_cli(capsys, ["pqe", str(f), "--targets", "1"])
    assert code == 0
    assert out == "c empty solution: the targets were already redundant\n"


def test_pqe_without_targets_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 2 1\ne 2 0\n1 2 0\n")
    code, _, err = run_cli(capsys, ["pqe", str(f)])
    assert code == 2
    assert "no targets" in err


def test_pqe_target_out_of_range(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 2 1\ne 2 0\n1 2 0\n")
    code, _, err = run_cli(capsys, ["pqe", str(f), "--targets", "9"])
    assert code == 2
    assert "out of range" in err


def test_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, ["sat", "no-such-file.cnf"])
    assert code == 3
    assert err.startswith("error:")


def test_malformed_file_exits_3(tmp_path, capsys):
    f = tmp_path / "broken.cnf"
    f.write_text("p cnf 1 1\n1\n")
    code, _, err = run_cli(capsys, ["sat", str(f)])
    assert code == 3
    assert err.startswith("error:")


def test_targets_comment_is_read_past_a_non_ascii_comment(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("c ∃ example\n" + TWO_CLAUSES, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["pqe", str(f)])
    assert code == 0
    assert out == "1 0\n"
    code, out, _ = run_cli(capsys, ["pqe-check", str(f)])
    assert code == 0
    assert out == "not redundant\n"


def test_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    f = tmp_path / "latin1.cnf"
    f.write_bytes(b"c \xff\np cnf 1 1\n1 0\n")
    code, _, err = run_cli(capsys, ["sat", str(f)])
    assert code == 3
    assert err.startswith("error:")


def test_non_integer_target_exits_3(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("c targets x 0\np cnf 2 1\ne 2 0\n1 2 0\n")
    code, _, err = run_cli(capsys, ["pqe", str(f)])
    assert code == 3
    assert "bad token 'x'" in err


def test_non_integer_solution_token_exits_3(tmp_path, capsys):
    sol = tmp_path / "bad.sol"
    sol.write_text("x 0\n")
    code, _, err = run_cli(
        capsys,
        ["verify-pqe", str(EXAMPLES / "example1.cnf"), "--solution", str(sol)],
    )
    assert code == 3
    assert "bad token 'x'" in err


def test_oracle_guard_exits_30(tmp_path, capsys):
    f = tmp_path / "wide.cnf"
    f.write_text("p cnf 25 1\n1 0\n")
    code, _, err = run_cli(capsys, ["sat-oracle", str(f)])
    assert code == 30
    assert err.startswith("error:")


def test_instance_deeper_than_the_recursion_limit_exits_30(tmp_path, capsys):
    # The solver explores one nested frame per disjoint pair (i | j)(-i | -j).
    pairs = sys.getrecursionlimit() + 100
    lines = [f"p cnf {2 * pairs} {2 * pairs}"]
    for k in range(pairs):
        lines += [f"{2 * k + 1} {2 * k + 2} 0", f"-{2 * k + 1} -{2 * k + 2} 0"]
    f = tmp_path / "deep.cnf"
    f.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["sat", str(f)])
    assert code == 30
    assert out == ""
    assert err.splitlines() == [
        f"error: instance too deep for the recursion limit ({sys.getrecursionlimit()})"
    ]


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_pqe_check_both_verdicts(tmp_path, capsys):
    f = tmp_path / "two.cnf"
    f.write_text(TWO_CLAUSES)
    code, out, _ = run_cli(capsys, ["pqe-check", str(f), "--targets", "1"])
    assert code == 0
    assert out == "redundant\n"
    g = tmp_path / "loss.cnf"
    g.write_text("p cnf 2 2\ne 2 0\n1 2 0\n-2 0\n")
    code, out, _ = run_cli(capsys, ["pqe-check", str(g), "--targets", "1"])
    assert code == 0
    assert out == "not redundant\n"


def test_verify_pqe_accepts_and_rejects(tmp_path, capsys):
    good = tmp_path / "good.sol"
    good.write_text("c solution\n2 0\n")
    code, out, _ = run_cli(
        capsys,
        [
            "verify-pqe",
            str(EXAMPLES / "example1.cnf"),
            "--solution",
            str(good),
            "--targets",
            "1",
        ],
    )
    assert code == 0
    assert out == "verified\n"
    bad = tmp_path / "bad.sol"
    bad.write_text("4 0\n")
    code, out, _ = run_cli(
        capsys,
        [
            "verify",  # the short alias
            str(EXAMPLES / "example1.cnf"),
            "--solution",
            str(bad),
            "--targets",
            "1",
        ],
    )
    assert code == 1
    assert out == "FAILED: projections differ\n"


COUNTER_NETLIST = """\
input s_1
input s_2
gate next_2 = NOT(s_2)
gate next_1 = XOR(s_1, s_2)
output next_1
output next_2
"""


def test_diameter_cli(tmp_path, capsys):
    netlist = tmp_path / "counter.net"
    netlist.write_text(COUNTER_NETLIST)
    init = tmp_path / "init.cnf"
    init.write_text("p cnf 2 2\n-1 0\n-2 0\n")
    code, out, _ = run_cli(
        capsys, ["diameter", str(netlist), str(init), "--k", "3"]
    )
    assert code == 0
    assert out == "diameter < 3: no\n"
    code, out, _ = run_cli(
        capsys, ["diameter", str(netlist), str(init), "--k", "4"]
    )
    assert code == 0
    assert out == "diameter < 4: yes\n"


def test_interp_cli(tmp_path, capsys):
    a = tmp_path / "a.cnf"
    a.write_text("p cnf 5 3\n2 0\n3 -2 0\n1 -3 0\n")
    b = tmp_path / "b.cnf"
    b.write_text("p cnf 5 4\n3 2 5 0\n3 5 -2 0\n3 0\n2 -5 3 0\n")
    code, out, _ = run_cli(capsys, ["interp", str(a), str(b)])
    assert code == 0
    assert out.splitlines() == ["status: interpolant", "2 0", "3 -2 0"]


def test_interp_cli_beyond_the_enumeration_guard(tmp_path, capsys):
    a = tmp_path / "a.cnf"
    a.write_text("p cnf 26 2\n1 0\n-1 2 0\n")
    b = tmp_path / "b.cnf"
    b.write_text("p cnf 26 1\n-2 26 0\n")
    code, out, _ = run_cli(capsys, ["interp", str(a), str(b)])
    assert code == 0
    assert out.splitlines() == ["status: interpolant", "2 0"]


def test_eqcheck_cli(tmp_path, capsys):
    first = tmp_path / "and.net"
    first.write_text("input a\ninput b\ngate z = AND(a, b)\noutput z\n")
    second = tmp_path / "or.net"
    second.write_text("input a\ninput b\ngate z = OR(a, b)\noutput z\n")
    code, out, _ = run_cli(capsys, ["eqcheck", str(first), str(second)])
    assert code == 0
    assert out.splitlines() == ["verdict: inequivalent", "witness: a=0 b=1"]
    code, out, _ = run_cli(capsys, ["eqcheck", str(first), str(first)])
    assert code == 0
    assert out == "verdict: equivalent\n"


def test_propgen_cli(tmp_path, capsys):
    netlist = tmp_path / "cmp.net"
    netlist.write_text(
        "input a\ninput b\ngate eq = XOR(a, b)\ngate z = NOT(eq)\noutput z\n"
    )
    code, out, _ = run_cli(capsys, ["propgen", str(netlist)])
    assert code == 0
    assert out == "4 -1 -2 0\n"
    code, _, err = run_cli(capsys, ["propgen", str(netlist), "--target", "0"])
    assert code == 2
    assert "1-based" in err


def test_fuzz_sat_mode(capsys):
    code, out, _ = run_cli(
        capsys, ["fuzz", "--seed", "7", "--count", "1000", "--vars", "12"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"


def test_fuzz_sat_mode_checks_the_model_of_each_mode(capsys, monkeypatch):
    # A model that flips every value of a correct one falsifies a clause
    # of most draws; the second mode is checked too.
    real = cli.solve

    def flipped(problem, config):
        out = real(problem, config)
        if config.learn_to == "F" and out.model is not None:
            out.model = {v: not val for v, val in out.model.items()}
        return out

    monkeypatch.setattr(cli, "solve", flipped)
    code, out, _ = run_cli(capsys, ["fuzz", "--count", "30", "--seed", "1"])
    assert code == 1
    lines = out.splitlines()
    assert int(lines[-1].split(": ")[1]) > 0
    assert all("learn_to=F model falsifies clause" in line for line in lines[:-1])


def test_fuzz_sat_mode_checks_the_status_of_each_mode(capsys, monkeypatch):
    real = cli.solve

    def wrong(problem, config):
        out = real(problem, config)
        if config.learn_to == "F":
            out.status = "unsat" if out.status == "sat" else "sat"
        return out

    monkeypatch.setattr(cli, "solve", wrong)
    code, out, _ = run_cli(capsys, ["fuzz", "--count", "3", "--seed", "1"])
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "discrepancies: 3"
    assert all("learn_to=F solver=" in line for line in lines[:3])


def test_fuzz_pqe_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        ["fuzz", "--mode", "pqe", "--seed", "3", "--count", "15", "--vars", "8"],
    )
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"


def test_fuzz_rejects_too_few_variables(capsys):
    code, out, err = run_cli(capsys, ["fuzz", "--vars", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--vars" in err
    code, out, _ = run_cli(capsys, ["fuzz", "--vars", "3", "--count", "5"])
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"


def test_fuzz_sat_mode_rejects_more_variables_than_enumeration_takes(capsys):
    # Sat mode checks each draw by enumeration, which stops at 24 variables;
    # pqe mode draws at most 10 whatever --vars says.
    code, out, err = run_cli(capsys, ["fuzz", "--vars", "25"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--vars" in err
    code, out, _ = run_cli(
        capsys, ["fuzz", "--mode", "pqe", "--vars", "30", "--count", "3"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"


def test_fuzz_pqe_mode_notes_the_variable_cap(capsys):
    argv = ["fuzz", "--mode", "pqe", "--count", "3", "--vars"]
    code, out, err = run_cli(capsys, argv + ["30"])
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"
    assert err == "note: pqe mode draws at most 10 variables\n"
    code, out, err = run_cli(capsys, argv + ["8"])
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"
    assert err == ""


def test_fuzz_pqe_mode_default_draws_quietly(capsys):
    code, out, err = run_cli(capsys, ["fuzz", "--mode", "pqe", "--count", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"
    assert err == ""


def test_fuzz_diameter_mode(capsys):
    code, out, err = run_cli(
        capsys, ["fuzz", "--mode", "diameter", "--seed", "2", "--count", "12"]
    )
    assert code == 0
    assert out == "discrepancies: 0\n"
    assert err == ""


def test_fuzz_diameter_mode_reports_a_wrong_answer(capsys, monkeypatch):
    real = cli.diameter_lt
    monkeypatch.setattr(cli, "diameter_lt", lambda *a: not real(*a))
    code, out, _ = run_cli(capsys, ["fuzz", "--mode", "diameter", "--count", "3"])
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "discrepancies: 3"
    assert [line.split(":")[0] for line in lines[:3]] == [
        "instance 0", "instance 1", "instance 2"
    ]
    assert all("diameter_lt=" in line and "oracle=" in line for line in lines[:3])


def test_fuzz_diameter_mode_reports_an_exhausted_step_limit(capsys):
    argv = ["fuzz", "--mode", "diameter", "--count", "2", "--step-limit", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    assert out.splitlines() == [
        "instance 0: step limit exhausted",
        "instance 1: step limit exhausted",
        "discrepancies: 2",
    ]


def test_fuzz_rejects_a_step_limit_below_one(capsys):
    for limit in ("0", "-5"):
        code, out, err = run_cli(capsys, ["fuzz", "--step-limit", limit])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--step-limit" in err


def test_fuzz_sat_mode_reports_an_exhausted_step_limit(capsys):
    code, out, _ = run_cli(
        capsys, ["fuzz", "--step-limit", "1", "--count", "3", "--seed", "1"]
    )
    assert code == 1
    assert out.splitlines() == [
        "instance 0: step limit exhausted",
        "discrepancies: 1",
    ]


def test_fuzz_pqe_mode_rejects_too_few_clauses(capsys):
    code, out, err = run_cli(capsys, ["fuzz", "--mode", "pqe", "--clauses", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--clauses" in err
    code, out, _ = run_cli(
        capsys,
        ["fuzz", "--mode", "pqe", "--vars", "3", "--clauses", "3", "--count", "5"],
    )
    assert code == 0
    assert out.splitlines()[-1] == "discrepancies: 0"


def test_pqe_step_limit_returns_unknown(capsys):
    code, out, _ = run_cli(
        capsys, ["pqe", str(EXAMPLES / "example1.cnf"), "--step-limit", "0"]
    )
    assert code == 30
    assert out == "s UNKNOWN\n"


SHRUNK_PROBE = """\
c targets 6 0
p cnf 5 8
e 1 3 5 0
5 -3 0
5 3 4 0
-4 0
-2 -5 3 0
2 1 -3 0
-1 4 -5 0
3 1 0
5 4 -1 0
"""


def test_pqe_step_limit_spent_inside_a_cube_probe(tmp_path, capsys):
    # The run needs 42 steps, and at 20 its first cube probe runs out.
    f = tmp_path / "probe.cnf"
    f.write_text(SHRUNK_PROBE)
    code, out, _ = run_cli(capsys, ["pqe", str(f), "--step-limit", "42"])
    assert (code, out) == (0, "2 0\n")
    code, out, _ = run_cli(capsys, ["pqe", str(f), "--step-limit", "20"])
    assert code == 30
    assert out == "s UNKNOWN\n"


def _installed_distribution():
    try:
        return importlib.metadata.distribution("pqesat")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(
    _installed_distribution() is None,
    reason="the pqesat distribution is not installed (PackageNotFoundError)",
)
def test_console_script_is_installed():
    scripts = _installed_distribution().entry_points.select(
        group="console_scripts", name="pqesat"
    )
    assert [ep.value for ep in scripts] == ["pqesat.cli:main"]
    # A venv's scripts sit next to its interpreter even when it is not
    # activated, so look there as well as on PATH.
    exe = shutil.which("pqesat") or shutil.which(
        "pqesat", path=os.path.dirname(sys.executable)
    )
    assert exe is not None
    got = subprocess.run(
        [exe, "pqe", str(EXAMPLES / "example1.cnf"), "--targets", "1"],
        capture_output=True,
        text=True,
    )
    assert got.returncode == 0
    assert got.stdout == "2 0\n"
