"""Steadiness check: two sets of benchmark runs on one commit.

    python3 perfbench/steady.py --runs 10 [--workloads taxi-stream,groups-batch]
                                [--seconds N]

Each set runs ``run.py`` once per workload and seed (set 1 uses seeds
1..runs, set 2 the next ``runs`` seeds). For every end-to-end metric
and workload it reports both medians, the quartile spread of each set
(``statistics.quantiles(values, n=4)``: (Q3 − Q1) ÷ median) and whether
the sets agree: both spreads within the metric's bound, and the two
medians apart by no more than the bound (in either direction, as a
share of the first). The table is printed and written as JSON to
``.perfbench_out/steady.json``. Exit status 1 when any pair disagrees
or any run fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def drift(first: float, second: float) -> float:
    """Share by which ``second`` differs from ``first``, either way."""
    return abs(second - first) / first


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """Metrics of one run, plus ``wall_s``: the whole process's wall time."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return {**result["metrics"], "wall_s": {"value": wall, "unit": "s"}}


def verdicts(spec: dict, first: list[dict], second: list[dict]) -> list[dict]:
    """One row per end-to-end metric, comparing the two sets."""
    rows = []
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r[name]["value"] for r in first]
        b = [r[name]["value"] for r in second]
        ma, mb = statistics.median(a), statistics.median(b)
        sa, sb = spread(a), spread(b)
        d = drift(ma, mb)
        rows.append({"metric": name, "unit": m["unit"], "bound": bound,
                     "median_1": ma, "median_2": mb, "spread_1": sa,
                     "spread_2": sb, "drift": d,
                     "agree": max(sa, sb, d) <= bound})
    return rows


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    report, ok = {}, True
    for workload in args.workloads.split(","):
        sets = [[one_run(workload, s, args.seconds)
                 for s in range(1 + k * args.runs, 1 + (k + 1) * args.runs)]
                for k in range(2)]
        rows = verdicts(spec, *sets)
        report[workload] = {"runs": sets, "verdicts": rows}
        walls = [r["wall_s"]["value"] for runs in sets for r in runs]
        print(f"\n{workload}: {args.runs} runs per set, "
              f"{statistics.mean(walls):.1f} s per run (max {max(walls):.1f})")
        print(f"{'metric':16} {'median 1':>11} {'median 2':>11} {'spread 1':>8} "
              f"{'spread 2':>8} {'drift':>8} {'bound':>6}  agree")
        for r in rows:
            print(f"{r['metric']:16} {r['median_1']:11.4g} {r['median_2']:11.4g} "
                  f"{r['spread_1']:8.3f} {r['spread_2']:8.3f} "
                  f"{r['drift']:8.3f} {r['bound']:6.2f}  {r['agree']}")
            ok &= r["agree"]
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
