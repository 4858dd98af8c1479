"""Reference figures for bench/README.md.

    python3 bench/reference.py

Times, once each, exhaustive ``validate_axioms`` and the full
``run_theorem_suite`` on powerset spaces of 1, 2, ... atoms, stopping a size
when it passes a budget of 10 s; parse-and-build and the probability map at
eight atoms; L4 alone at four atoms; and the full suite on
the 8-atom field with four blocks of two labels that the suite-exhaustive
workload uses.  The largest n that finishes within the budget is derived from
these per-n times.  It is a step function of speed, so the benchmark reports
it here for reference and does not gate on it.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import signal
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import epspace  # noqa: E402
import workloads  # noqa: E402

MAX_ATOMS = 8
BUDGET_S = 10.0


class OverBudget(Exception):
    pass


def _raise_over_budget(_signum, _frame):
    raise OverBudget


def timed(fn, budget=None):
    """Seconds ``fn()`` took, or None when it ran past ``budget``."""
    if budget is not None:
        signal.signal(signal.SIGALRM, _raise_over_budget)
        signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        fn()
    except OverBudget:
        return None
    finally:
        if budget is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start


def largest_within(docs, check, budget) -> tuple:
    """Per-n seconds of ``check(space)`` from one atom up, and the largest n in budget."""
    times, largest = {}, 0
    for n in range(1, MAX_ATOMS + 1):
        space = epspace.parse_space(docs[n].text)
        seconds = timed(lambda: check(space), budget)
        times[n] = seconds
        if seconds is None:
            break
        largest = n
    return times, largest


def main() -> int:
    # The documents are made the way the workloads make theirs: k/251
    # weights, and for the field four blocks of two labels.
    work_parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=work_parent)
    try:
        rng = random.Random("reference")
        docs = {n: workloads.make_doc(workdir, f"p{n}", rng, n) for n in range(1, MAX_ATOMS + 1)}
        field_doc = workloads.make_doc(workdir, "f8-4blocks", rng, 8, (2, 2, 2, 2))
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            os.rmdir(work_parent)
    validate_times, validate_n = largest_within(docs, epspace.validate_axioms, BUDGET_S)
    suite_times, suite_n = largest_within(docs, epspace.run_theorem_suite, BUDGET_S)
    text8 = docs[MAX_ATOMS].text
    space8 = epspace.parse_space(text8)
    members8 = list(space8.f)
    build8 = timed(lambda: epspace.parse_space(text8))
    pmap8 = timed(lambda: {e: space8.probability(e) for e in members8})
    space4 = epspace.parse_space(docs[4].text)
    l4 = timed(lambda: epspace.run_theorem_suite(space4, ["L4"]))
    field = epspace.parse_space(field_doc.text)
    field_suite = timed(lambda: epspace.run_theorem_suite(field))

    def fmt(seconds):
        return f"> {BUDGET_S:g} s" if seconds is None else f"{seconds:.3f} s"

    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} cores, budget {BUDGET_S:g} s")
    print("exhaustive validate: " + ", ".join(f"n={n} {fmt(s)}" for n, s in validate_times.items()))
    print("full suite:          " + ", ".join(f"n={n} {fmt(s)}" for n, s in suite_times.items()))
    print(f"n=8 parse+build {fmt(build8)}, probability map {fmt(pmap8)}")
    print(f"n=4 L4 alone {fmt(l4)}; 8-atom 4-block field, full suite {fmt(field_suite)}")
    print(f"largest exhaustive n within {BUDGET_S:g} s: validate {validate_n}, suite {suite_n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
