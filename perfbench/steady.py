#!/usr/bin/env python3
"""Steadiness report: is every end-to-end metric steady enough to judge by?

    python3 perfbench/steady.py --workload serve-mix --seeds 1-10 [--sets 2]

Runs ``run.py`` once per seed for ``run_seconds`` from ``BENCHMARK.json``
(``--sets 2`` runs the seed list twice) and prints, per metric: its
median, quartiles, the highest percentile that has at least ten samples
beyond it, and the quartile spread ``(q3 - q1) / median`` against the
metric's bound from ``BENCHMARK.json``.  A metric fails when its spread
exceeds its bound or, with two sets, when the two medians differ by more
than the bound, in either direction.  Spreads above a third of the bound
are flagged ``marginal``.  Exit code 1 names the failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

import run


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=str(run.ROOT))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def high_percentile(values: List[float]) -> Optional[str]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    p = int(100 * (n - 10) / n)
    if p < 1:
        return None
    return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.6g}"


def report(spec: Dict, sets: List[Dict[str, List[float]]]) -> List[str]:
    failures = []
    print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}"
          f"{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, values in enumerate(sets):
            data = values[name]
            q1, median, q3 = statistics.quantiles(data, n=4)
            medians.append(median)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok"
            if spread > bound:
                verdict = "FAIL"
                failures.append(f"{name} spread {spread:.3f} > {bound}")
            elif spread > bound / 3:
                verdict = "marginal"
            tail = high_percentile(data) or f"n={len(data)}"
            print(f"  {name:<22}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>8.3f}{bound:>7}  {verdict}  set{index + 1} {tail}")
        if len(medians) == 2:
            first, second = medians
            drift = (second - first) / first if first else 0.0
            apart = abs(drift) > bound
            print(f"  {'':<22}median drift set2 vs set1 {drift:+.3f}"
                  f"{'  FAIL' if apart else ''}")
            if apart:
                failures.append(f"{name} median drift {drift:+.3f} beyond {bound}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=run.workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    failed = []
    for workload in args.workload:
        sets = []
        for _ in range(args.sets):
            values: Dict[str, List[float]] = {}
            for seed in seeds:
                result = one_run(workload, seed, seconds)
                print(f"  {workload} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in result.items()), flush=True)
                for name, value in result.items():
                    values.setdefault(name, []).append(value)
            sets.append(values)
        print(f"{workload}: {len(seeds)} seeds x {args.sets} set(s), "
              f"{seconds:g} s per run; {run.host_context()}")
        for name in report(spec, sets):
            failed.append(f"{workload}: {name}")
    for message in failed:
        print(f"NOT STEADY: {message}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
