"""The judgement rule of tools/bench_pairs.py, tested without running a benchmark."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"better": "higher", "bound": 0.2}
LOWER = {"better": "lower", "bound": 0.2}


def _judge(parent, change, spec):
    m = bench_pairs.compare(parent, change, spec)
    return m, bench_pairs.judge(m, len(parent), spec)


def test_nine_wins_of_ten_meet_the_claim():
    m, verdict = _judge([10.0] * 10, [11.0] * 9 + [9.0], HIGHER)
    assert m["change_wins"] == 9 and m["parent_wins"] == 1
    assert verdict["met"]


def test_eight_wins_of_ten_do_not():
    m, verdict = _judge([10.0] * 10, [11.0] * 8 + [9.0] * 2, HIGHER)
    assert m["change_wins"] == 8
    assert verdict["median_gap"] > verdict["parent_iqr"]
    assert not verdict["met"]


def test_ties_count_for_neither_side():
    m, verdict = _judge([10.0] * 10, [11.0] * 8 + [10.0] * 2, HIGHER)
    assert (m["change_wins"], m["parent_wins"]) == (8, 0)
    assert not verdict["met"]


def test_a_median_gap_equal_to_the_parent_iqr_does_not_meet_the_claim():
    parent = [float(x) for x in range(1, 11)]
    assert bench_pairs.quartiles(parent) == (3.25, 5.5, 7.75)
    _, verdict = _judge(parent, [x + 4.5 for x in parent], HIGHER)
    assert verdict["change_wins"] == 10
    assert verdict["median_gap"] == verdict["parent_iqr"] == 4.5
    assert not verdict["met"]
    _, verdict = _judge(parent, [x + 4.6 for x in parent], HIGHER)
    assert verdict["met"]


def test_lower_is_better_flips_the_sign():
    parent, change = [10.0] * 10, [9.0] * 10
    m, verdict = _judge(parent, change, LOWER)
    assert m["change_wins"] == 10
    assert verdict["median_gap"] == pytest.approx(1.0)
    assert verdict["met"]
    m, verdict = _judge(parent, change, HIGHER)
    assert m["change_wins"] == 0
    assert verdict["median_gap"] == pytest.approx(-1.0)
    assert not verdict["met"]


def test_a_single_run_gives_equal_quartiles():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    m = bench_pairs.compare([3.0], [4.0], HIGHER)
    assert m["parent_quartiles"] == [3.0, 3.0]
    assert m["parent_iqr_over_median"] == 0.0


@pytest.mark.parametrize(
    "spec, at_bound, past_bound",
    [(HIGHER, 8.0, 7.99), (LOWER, 12.0, 12.01)],
)
def test_worse_than_bound_triggers_just_past_the_bound(spec, at_bound, past_bound):
    parent = [10.0] * 3
    assert not bench_pairs.compare(parent, [at_bound] * 3, spec)["worse_than_bound"]
    assert bench_pairs.compare(parent, [past_bound] * 3, spec)["worse_than_bound"]


def _pass(self_s, calls, ratio=0.5, untraced_s=0.7):
    return {
        "pqe.detect.self_s": {"value": self_s, "unit": "s"},
        "pqe.detect.calls": {"value": calls, "unit": "count"},
        "trace.overhead_ratio": {"value": ratio, "unit": "ratio"},
        "trace.untraced_s": {"value": untraced_s, "unit": "s"},
    }


def test_the_traced_split_takes_each_metric_median():
    passes = [
        _pass(0.9, 408, 1.3, 1.1),
        _pass(0.2, 408, 1.1, 0.7),
        _pass(0.3, 408, 1.2, 0.8),
    ]
    got = bench_pairs.median_metrics(passes)
    assert got == {
        "pqe.detect.self_s": {"value": 0.3, "unit": "s"},
        "pqe.detect.calls": {"value": 408, "unit": "count"},
        "trace.overhead_ratio": {"value": 1.2, "unit": "ratio"},
        "trace.untraced_s": {"value": 0.8, "unit": "s"},
    }
    # One loaded pass moves no median, and its untraced seconds show it.
    split = bench_pairs.layer_split(passes)
    assert split["metrics"]["pqe.detect.self_s"] == 0.3
    assert split["self_share"] == {"pqe.detect": 1.0}
    assert split["untraced_s_passes"] == [1.1, 0.7, 0.8]


def test_the_traced_split_rejects_counts_that_differ():
    with pytest.raises(ValueError, match="pqe.detect.calls"):
        bench_pairs.median_metrics([_pass(0.1, 408), _pass(0.1, 457), _pass(0.1, 408)])
    short = _pass(0.1, 408)
    del short["trace.overhead_ratio"]
    with pytest.raises(ValueError, match="different metrics"):
        bench_pairs.median_metrics([_pass(0.1, 408), short])


def test_src_lines_counts_as_ci_does(tmp_path):
    pkg = tmp_path / "src" / "pqesat"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\n\n# note\nx = 1  # trailing\n')
    (pkg / "b.py").write_text("    \n\t# indented\ndef f():\n    return '#'\n")
    (pkg / "notes.txt").write_text("not python\n")
    (tmp_path / "src" / "other.py").write_text("y = 2\n")
    assert bench_pairs.src_lines(tmp_path) == {
        "lines": 8,
        "non_blank_non_comment": 4,
    }
