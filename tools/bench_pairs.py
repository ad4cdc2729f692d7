"""Measure a change against its parent with the benchmark, in alternating pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --parent <rev> --out BENCH_9.json
    python3 tools/bench_pairs.py --parent <rev> --change <rev> \\
        --claim eqcheck:queries_per_s --holdout eqcheck:3 --out BENCH_9.json

Both revisions are exported with ``git archive`` into a temporary
directory, so each side runs its own committed ``bench/run.py`` on its own
``src/``, and the working tree is neither read nor touched.  ``PAIRS``
pairs run on query-order seed ``SEED``.  Pair ``i`` runs every workload
once on each side, one workload at a time; odd pairs run the parent
first, even pairs the change first.  The per-workload command line is the
one ``bench/run.py --workload all`` gives its children, so every run uses
``bench/run.py``'s own run length.

Each end-to-end metric of ``BENCHMARK.json`` is reported per workload with
both sides' runs, medians and quartiles, the number of pairs the change
won (ties count for neither side), and whether the change's median is
worse than the parent's by more than the metric's bound.  ``--claim``
names a metric whose gain is judged: the change must win at least nine
tenths of the pairs and its median must beat the parent's by more than
the parent's interquartile range.  ``--holdout`` repeats the claimed
workload on a query-order seed not used for the main pairs, in
``HOLDOUT_PAIRS`` pairs.  ``TRACED_PASSES`` traced passes per workload
and side, alternating sides, record the per-layer split as each metric's
median, so that one pass run on a loaded machine skews no self time; each
pass's ``trace.untraced_s`` is kept too, so that such a pass can be seen.
A traced pass runs every query once, so its counts must be the same in
every pass of a side.  ``counts_differ`` names every per-layer count of
``BENCHMARK.json`` whose value differs between the sides.  ``src_lines``
gives each side's line counts of ``src/pqesat/*.py``, counted as CI's
"Source line counts" step counts them.  The output file keeps the shape
of the earlier ``BENCH_*.json`` records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 1
HOLDOUT_PAIRS = 3
TRACED_PASSES = 5


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Unpack the committed tree of ``rev`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), rev],
        cwd=ROOT,
        check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return dest


def src_lines(tree: Path) -> dict:
    """The lines, and the non-blank non-comment lines, of ``src/pqesat/*.py``."""
    files = sorted((tree / "src" / "pqesat").glob("*.py"))
    text = "".join(f.read_text(encoding="utf-8") for f in files)
    code = [line for line in text.split("\n") if line.strip()[:1] not in ("", "#")]
    return {"lines": text.count("\n"), "non_blank_non_comment": len(code)}


def bench(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One ``bench/run.py`` run; its last output line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), *(["--trace", "1"] if trace else [])]
    out = subprocess.run(
        cmd, cwd=checkout, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], spec: dict) -> dict:
    """Both sides of one metric, paired run by run."""
    sign = 1 if spec["better"] == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm if pm else 0.0
    return {
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "change_vs_parent": round(rel, 4),
        "parent_iqr_over_median": round((p3 - p1) / pm, 4) if pm else 0.0,
        "parent_quartiles": [round(p1, 6), round(p3, 6)],
        "change_quartiles": [round(c1, 6), round(c3, 6)],
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "worse_than_bound": sign * rel < -spec["bound"],
        "parent_runs": parent,
        "change_runs": change,
    }


def judge(m: dict, pairs: int, spec: dict) -> dict:
    """The gain rule: 9 of 10 pairs won and a median gap above the parent's IQR."""
    sign = 1 if spec["better"] == "higher" else -1
    p1, _, p3 = quartiles(m["parent_runs"])
    gap = sign * (m["change_median"] - m["parent_median"])
    return {
        "pairs": pairs,
        "change_wins": m["change_wins"],
        "median_gap": round(gap, 6),
        "parent_iqr": round(p3 - p1, 6),
        "met": 10 * m["change_wins"] >= 9 * pairs and gap > p3 - p1,
    }


def run_pairs(sides, workloads, seed, pairs, log) -> dict:
    """``pairs`` alternating runs per workload; returns raw results by side."""
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(1, pairs + 1):
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        for w in workloads:
            for side in order:
                line = bench(sides[side], w, seed)
                runs[w][side].append(line)
                qps = line["metrics"]["queries_per_s"]["value"]
                log(f"pair {i}/{pairs} {w} {side}: correct={line['correct']} "
                    f"queries_per_s={qps:.3f}")
    return runs


def summarize(runs: dict, specs: dict) -> dict:
    out = {}
    for w, by_side in runs.items():
        metrics = {}
        for name, spec in specs.items():
            metrics[name] = compare(
                [r["metrics"][name]["value"] for r in by_side["parent"]],
                [r["metrics"][name]["value"] for r in by_side["change"]],
                spec,
            )
        out[w] = {
            "all_runs_correct": all(
                r["correct"] for side in by_side.values() for r in side
            ),
            "metrics": metrics,
        }
    return out


def median_metrics(passes: list[dict]) -> dict:
    """Each metric's median over several traced passes of one side.

    Raises ValueError when the passes report different metrics, or
    different values of a count: the passes then did different work, and
    no median describes them.
    """
    names = passes[0].keys()
    if any(p.keys() != names for p in passes):
        raise ValueError("traced passes report different metrics")
    out = {}
    for name in names:
        unit = passes[0][name]["unit"]
        values = [p[name]["value"] for p in passes]
        if unit == "count" and len(set(values)) > 1:
            raise ValueError(f"{name} differs between traced passes: {values}")
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def layer_split(passes: list[dict]) -> dict:
    """Per-layer counts and self seconds, and each layer's share of self time.

    Each figure is its median over the traced passes of one side, and
    ``untraced_s_passes`` lists every pass's untraced corpus seconds.
    """
    flat = {k: v["value"] for k, v in median_metrics(passes).items()}
    selfs = {k[: -len(".self_s")]: v for k, v in flat.items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    shares = {k: round(v / total, 4) for k, v in sorted(selfs.items()) if total}
    untraced = [p["trace.untraced_s"]["value"] for p in passes]
    return {"metrics": flat, "self_share": shares, "untraced_s_passes": untraced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision measured as the parent")
    ap.add_argument("--change", default="HEAD", help="revision measured as the change")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="judge a gain on this metric by the pair rule")
    ap.add_argument("--holdout", default=None, metavar="WORKLOAD:SEED",
                    help="also run this workload in pairs on a held-out seed")
    ap.add_argument("--out", required=True, help="where to write the JSON record")
    args = ap.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in config["end_to_end"]}
    counts = [m["name"] for m in config["per_layer"] if m["unit"] == "count"]
    workloads = [w["name"] for w in config["workloads"]]
    parent, change = git("rev-parse", args.parent), git("rev-parse", args.change)

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {
            "parent": export(parent, Path(tmp) / "parent"),
            "change": export(change, Path(tmp) / "change"),
        }
        record = {
            "what": (
                f"{PAIRS} alternating pairs of `python3 bench/run.py` per "
                f"workload (--seed {SEED}, bench/run.py's default --seconds); "
                "odd pairs ran the parent first, even pairs the change first; "
                f"the per-layer split is each metric's median over "
                f"{TRACED_PASSES} traced passes per side, alternating sides"
            ),
            "parent_commit": parent,
            "change_commit": change,
            "change_src_tree": git("rev-parse", f"{change}:src"),
            "machine": (
                f"machine: nproc {os.cpu_count()}, Python "
                f"{platform.python_version()}, {platform.machine()}"
            ),
            "gain_claimed": args.claim is not None,
            "src_lines": {side: src_lines(tree) for side, tree in sides.items()},
        }
        runs = run_pairs(sides, workloads, SEED, PAIRS, log)
        record["workloads"] = summarize(runs, specs)
        if args.claim is not None:
            w, metric = args.claim.split(":")
            record["claim"] = {
                "workload": w,
                "metric": metric,
                **judge(record["workloads"][w]["metrics"][metric], PAIRS,
                        specs[metric]),
            }
        if args.holdout is not None:
            w, seed = args.holdout.split(":")
            held = run_pairs(sides, [w], int(seed), HOLDOUT_PAIRS, log)
            record["holdout"] = {"workload": w, "seed": int(seed),
                                 "pairs": HOLDOUT_PAIRS,
                                 **summarize(held, specs)[w]}
            if args.claim is not None and args.claim.startswith(w + ":"):
                metric = args.claim.split(":")[1]
                record["holdout"]["claim"] = judge(
                    record["holdout"]["metrics"][metric], HOLDOUT_PAIRS,
                    specs[metric],
                )
        record["trace"] = {}
        for w in workloads:
            passes = {"parent": [], "change": []}
            for i in range(TRACED_PASSES):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    line = bench(sides[side], w, SEED, trace=True)
                    passes[side].append(line["metrics"])
                    log(f"traced {i + 1}/{TRACED_PASSES} {w} {side}: "
                        f"correct={line['correct']}")
            traced = {
                side: layer_split(passes[side]) for side in ("parent", "change")
            }
            traced["counts_differ"] = [
                k for k in counts
                if traced["parent"]["metrics"].get(k)
                != traced["change"]["metrics"].get(k)
            ]
            record["trace"][w] = traced
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
