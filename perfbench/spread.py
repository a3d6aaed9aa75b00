"""Run a workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload rewire --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --trace 0

For every metric it prints the median of the runs' values, the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and whether the spread is below a third of it. Runs
go one after another, each in its own process. Exits non-zero if any
run fails or any end-to-end metric's spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", type=seed_range)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (
        [w["name"] for w in spec["workloads"]]
        if args.workload == "all" else [args.workload]
    )
    status = 0
    for name in names:
        values = {}
        units = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(f"{name} seed {seed}: run failed (exit {done.returncode})")
                status = 1
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
        print(f"== {name}: {len(args.seeds)} seeds")
        for key, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            line = f"{key:36s} {median:14.6g} {units[key]:6s} spread {spread:7.2%}"
            if key in bounds:
                ok = spread <= bounds[key] / 3
                line += f"  bound {bounds[key]:.2f} {'ok' if ok else 'WIDE'}"
                if spread > bounds[key]:
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
