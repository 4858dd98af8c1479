"""Steadiness of the benchmark across seeds.

    python3 bench/steady.py

Runs ``bench/run.py`` ten times for each workload in BENCHMARK.json, one
after another, each time in a fresh interpreter with the next seed from 101
and the run length from BENCHMARK.json.  For every metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and the spread, ``(q3 - q1) / median``.
End-to-end metrics other than ``setup_s`` are marked ``ok`` when the spread is
below a third of their bound in BENCHMARK.json.  The bounds there were set
from this command's output.  The share of failed operations must be the same
in every run, and the command says so when it is not.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
FIRST_SEED = 101


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True

    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for i in range(RUNS):
            result = run_once(workload, FIRST_SEED + i, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed={FIRST_SEED + i} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        shares = {(r["failed"], r["attempted"]) for r in results}
        if len({Fraction(f, a) for f, a in shares}) != 1 or not all(r["correct"] for r in results):
            steady = False
        print(f"\n{workload}: {RUNS} runs, seeds {FIRST_SEED}..{FIRST_SEED + RUNS - 1}, "
              f"failed/attempted {sorted(shares)}, correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread < bound / 3 else "WIDE"
                steady = steady and verdict == "ok"
            print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{'' if bound is None else bound:>6} {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
