"""Record a baseline: ten untraced runs and one traced run per workload.

    python3 bench/baseline.py [--runs 10] [--out bench/baseline.json]

Each untraced run uses another ``--seed``.  For every end-to-end metric
the record keeps the ten values, their median and quartiles, and the
spread (interquartile distance over the median) that BENCHMARK.json's
bounds are set against.  The traced run gives the per-layer split.  The
machine facts go with the numbers, since they only compare on the same
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu": cpu_model(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(spec, name, seed, 0) for seed in record["seeds"]]
        traced = bench(spec, name, 1, 1)
        record["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        e2e = record["workloads"][name]["end_to_end"]
        print(name, {k: round(v["spread"], 4) for k, v in e2e.items()}, flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
