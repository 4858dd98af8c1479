"""epspace benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, nothing is installed.  Commands go through
``epspace.cli.run_cli`` in this process, exactly as ``epspace ...`` would run
them; the damaged-space checks use the library API, which the CLI cannot
reach.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats whole rounds of the workload's operation list until
the next round would end past ``--seconds``, with no instrumentation, and
reports the end-to-end metrics.  ``--trace 1`` runs one plain round, one
traced round, one profiled round and the per-id suite timings, reports the
per-layer metrics, and writes the spans and the profile to ``--out``.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import importlib
import io
import json
import math
import os
import pstats
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import types
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Mismatch  # noqa: E402

SETUP_REPEATS = 9
PMAP_REPEATS = 3
CALIBRATION_STEPS = 6000
CALIBRATION_EVERY_S = 0.25
NEIGHBOUR_SLICES = 2
# Seconds one calibration slice takes at the reference speed: about its
# mean on the 2-core Xeon virtual machine where the bounds were set.
REFERENCE_SLICE_S = 0.016
_LABELS = tuple(f"w{i + 1}" for i in range(8))
LAYER_SPANS = (
    "harness.parse_document", "harness.build_space", "harness.random_space",
    "families.powerset_family", "families.generate_algebra", "families.compose_family",
    "families.is_set_algebra",
    "measure.make_space", "measure.pmap", "measure.draft_probability",
    "checks.validate_axioms", "checks.kolmogorov", "checks.suite", "checks.report",
)
PROFILED_MODULES = ("events", "families", "measure", "checks", "harness", "cli", "fractions", "builtins")
EPSPACE_FILES = {f"{m}.py": m for m in ("events", "families", "measure", "checks", "harness", "cli", "errors", "__init__")}


class Tally:
    """Operations attempted, operations that raised, and output mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.errors = []

    def check(self, records, counted=True) -> None:
        for op, _seconds, result, error in records:
            if counted:
                self.attempted += 1
            if error is not None:
                if counted:
                    self.failed += 1
                else:
                    self.mismatches.append(f"{op.name}: raised {error!r}")
                self.errors.append(f"{op.name}: {type(error).__name__}: {str(error)[:160]}")
                continue
            try:
                op.expect(result)
            except Mismatch as exc:
                self.mismatches.append(f"{op.name}: {exc}")


class _Pair:
    __slots__ = ("pos", "neg", "key")

    def __init__(self, pos, neg):
        self.pos, self.neg, self.key = pos, neg, hash((pos, neg))


def calibration_slice() -> float:
    """Seconds taken by fixed pure-Python work of the kind epspace does:
    frozensets of labels, small slotted objects, dict lookups, Fraction sums
    and a keyed sort.  It never calls epspace, so a change to the program
    does not move it."""
    start = time.perf_counter()
    subsets = [frozenset(_LABELS[j] for j in range(8) if i >> j & 1) for i in range(256)]
    seen, total = {}, Fraction(0)
    for i in range(CALIBRATION_STEPS):
        a, b = subsets[i & 255], subsets[i * 7 & 255]
        pair = _Pair(a | b, a & b)
        seen[pair.key] = seen.get(pair.key, 0) + 1
        if i % 4 == 0:
            total += Fraction(i % 17 + 1, i % 13 + 2)
    sorted(subsets, key=lambda s: (len(s), sorted(s)))
    return time.perf_counter() - start


class HostSpeed:
    """Calibration slices timed every ``CALIBRATION_EVERY_S`` while the
    program runs, from a SIGALRM handler in this same thread.

    On the shared virtual machine this benchmark was built on, the speed of
    pure-Python code swings by up to 1.7x within seconds with other tenants'
    load.  A slice timed during an operation slows down with it, so end-to-end
    times are divided by the mean slice of their round over
    ``REFERENCE_SLICE_S``.  The mean, unlike the median, follows the share of
    time the host spends slow rather than flipping with it.  :meth:`clock`
    excludes the time spent in slices.
    """

    def __init__(self):
        self.slices = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.slices.append(calibration_slice())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in slices so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Host speed over slices ``first:last``, relative to the reference."""
        return statistics.fmean(self.slices[first:last] or self.slices) / REFERENCE_SLICE_S

    def scale(self, records, marks) -> list:
        """Each op's seconds over the host factor of the slices taken during it
        and the ``NEIGHBOUR_SLICES`` on either side of it."""
        return [record[1] / self.factor(max(0, start - NEIGHBOUR_SLICES), end + NEIGHBOUR_SLICES)
                for record, (start, end) in zip(records, marks)]


def setup(name: str, seed: int, workdir: str):
    """Import epspace and generate the workload's documents, several times;
    returns the last import, the workload and the median set-up time scaled
    to the reference speed."""
    times, slices = [], []
    for _ in range(SETUP_REPEATS):
        slices.append(calibration_slice())
        start = time.perf_counter()
        for module in [m for m in sys.modules if m == "epspace" or m.startswith("epspace.")]:
            del sys.modules[module]
        ep = importlib.import_module("epspace")
        importlib.import_module("epspace.cli")
        workload = workloads.build(name, seed, workdir, ROOT)
        times.append(time.perf_counter() - start)
    return ep, workload, statistics.median(times) / (statistics.median(slices) / REFERENCE_SLICE_S)


def api_of(ep):
    """The library entry points the damaged-space operations call.
    ``validate_axioms`` is looked up in ``epspace.checks`` at each call, so
    the traced round reaches the wrapper :mod:`tracing` puts there."""
    checks = sys.modules["epspace.checks"]
    return types.SimpleNamespace(parse_space=ep.parse_space, Event=ep.Event,
                                 validate_axioms=lambda *a, **k: checks.validate_axioms(*a, **k))


def run_op(op, api):
    if op.argv is None:
        return op.call(api)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["epspace.cli"].run_cli(op.argv)
    return code, out.getvalue(), err.getvalue()


def run_round(ops, api, before=None, after=None, clock=time.perf_counter) -> list:
    """Run every op once; returns ``(op, seconds, result, error)`` per op."""
    records = []
    for op in ops:
        if before:
            before(op)
        start = clock()
        try:
            result, error = run_op(op, api), None
        except Exception as exc:  # a program fault: record it and keep measuring
            result, error = None, exc
        records.append((op, clock() - start, result, error))
        if after:
            after(op)
    return records


def settle() -> None:
    """Collect garbage, then move every live object (the oracle's caches, the
    expected outputs) out of the collector's sight, so that collections
    during an operation scan only what the program allocated."""
    gc.collect()
    gc.freeze()


def smooth_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) distribution, taken
    here in its normal approximation.  Every weight is positive, so the
    estimate lies between the smallest and the largest value and rises with
    each of them.  In cli-mix neighbouring commands lie up to a fifth apart
    in cost, and a plain or interpolated quantile jumps from one to the next
    when two of them swap ranks; this estimate moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    weights = statistics.NormalDist(p, math.sqrt(p * (1 - p) / (n + 2)))
    cdf = [weights.cdf(i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / (cdf[n] - cdf[0])


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def measure_end_to_end(workload, api, seconds, tally, setup_s) -> dict:
    """Whole rounds until the next one would end past ``seconds``.

    Each operation's time is divided by its :class:`HostSpeed` factor, and
    a round's time is the sum of its operations' times.
    ``wall_s`` is the median round; each operation's time is its median over
    the rounds, and ``cmd_p50_s`` and ``cmd_p90_s`` are quantiles of those
    by :func:`smooth_quantile`.
    """
    raw_rounds, rounds, op_times = [], [], [[] for _ in workload.ops]
    start = time.perf_counter()
    with HostSpeed() as host:
        while True:
            settle()
            marks = []
            records = run_round(workload.ops, api, clock=host.clock,
                                before=lambda op: marks.append(len(host.slices)),
                                after=lambda op: marks.append((marks.pop(), len(host.slices))))
            scaled = host.scale(records, marks)
            raw_rounds.append(sum(r[1] for r in records))
            rounds.append(sum(scaled))
            for times, seconds_ in zip(op_times, scaled):
                times.append(seconds_)
            tally.check(records)
            if time.perf_counter() - start + max(raw_rounds) * 1.1 > seconds:
                break
    per_op = [statistics.median(times) for times in op_times]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"rounds={len(rounds)} ops/round={len(workload.ops)} "
          f"unscaled_round_s={[round(r, 3) for r in raw_rounds]} host_factor={host.factor():.3f}")
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(rounds), "s"),
        "cmd_p50_s": metric(smooth_quantile(per_op, 0.5), "s"),
        "cmd_p90_s": metric(smooth_quantile(per_op, 0.9), "s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


class Counts:
    """Exact work counts of the spaces built during the traced round, and the
    split and triple counts behind the two rates with the seconds they took."""

    def __init__(self):
        self.members = self.pairs = self.triples = self.splits = 0
        self.rate_splits = self.validate_s = 0
        self.rate_triples = self.suite_s = 0


def splits_of(members) -> int:
    """Ordered two-part splits of every member: the pairs EP5 enumerates."""
    return sum(2 ** len(event) for event in members)


def traced_round(workload, api, ep_modules, tally):
    """One round of the workload and then the probe, with spans on; after each
    op, time the probability map of every space it built."""
    tracer = tracing.Tracer()
    counts = Counts()
    op_seconds = 0.0

    def measure_built(_op):
        for space in tracer.built:
            members = list(space.f)
            index = tracer.start("measure.pmap")
            {event: space.probability(event) for event in members}
            tracer.end(index)
            counts.members += len(members)
            counts.pairs += len(members) ** 2
            counts.triples += len(members) ** 3
            counts.splits += splits_of(members)
        for index, space, complete in tracer.validations:
            if complete:
                counts.rate_splits += splits_of(space.f)
                counts.validate_s += tracer.duration(index)
        for index, space, full in tracer.suites:
            if full:
                counts.rate_triples += len(space.f) ** 3
                counts.suite_s += tracer.duration(index)
        tracer.built.clear()
        tracer.validations.clear()
        tracer.suites.clear()

    roots = []

    def open_root(op):
        roots.append(tracer.start("cli.run_cli" if op.argv is not None else "library", {"op": op.name}))

    def close_root(op):
        tracer.end(roots.pop())
        measure_built(op)

    saved, missing = tracing.install(tracer, ep_modules)
    try:
        for ops, counted in ((workload.ops, True), (workload.probe, False)):
            records = run_round(ops, api, before=open_root, after=close_root)
            tally.check(records, counted)
            if counted:
                op_seconds = sum(r[1] for r in records)
    finally:
        tracing.uninstall(saved)
    return tracer, counts, op_seconds, missing


def profiled_round(workload, api, tally):
    profiler = cProfile.Profile()
    records = run_round(workload.ops, api, before=lambda op: profiler.enable(),
                        after=lambda op: profiler.disable())
    tally.check(records)
    by_module = {}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) in pstats.Stats(profiler).stats.items():
        base = os.path.basename(filename)
        if filename == "~":
            module = "builtins"
        elif base in EPSPACE_FILES and os.path.basename(os.path.dirname(filename)) == "epspace":
            module = EPSPACE_FILES[base]
        elif base == "fractions.py":
            module = "fractions"
        else:
            module = "other"
        entry = by_module.setdefault(module, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += calls
    return by_module, sum(r[1] for r in records)


def suite_id_timings(workload, api, ep, tally) -> dict:
    """``run_theorem_suite(space, [id])`` per timed id, minus the space's
    probability map, summed over the workload's suite spaces."""
    out = {check_id: 0.0 for check_id in workloads.TIMED_SUITE_IDS}
    for doc in workload.suite_docs:
        space = api.parse_space(doc.text)
        members = list(space.f)
        pmap_times = []
        for _ in range(PMAP_REPEATS):
            start = time.perf_counter()
            {event: space.probability(event) for event in members}
            pmap_times.append(time.perf_counter() - start)
        pmap_s = statistics.median(pmap_times)
        for check_id in workloads.TIMED_SUITE_IDS:
            start = time.perf_counter()
            report = ep.run_theorem_suite(space, [check_id])
            out[check_id] += time.perf_counter() - start - pmap_s
            if not report.ok:
                tally.mismatches.append(f"suite {check_id} on {doc.name}: {report.text()[:160]}")
    return out


def measure_layers(workload, api, ep, tally, out_dir, seed) -> dict:
    modules = {name: sys.modules[name] for name in
               ("epspace.cli", "epspace.harness", "epspace.families", "epspace.measure", "epspace.checks")}
    settle()
    records = run_round(workload.ops, api)
    tally.check(records)
    plain_s = sum(r[1] for r in records)

    settle()
    tracer, counts, traced_s, missing = traced_round(workload, api, modules, tally)
    for binding, span in missing:
        print(f"warning: {binding} not found, so {span}_s and the metrics built on it "
              f"miss the calls made through it", file=sys.stderr)
    settle()
    profile, profiled_s = profiled_round(workload, api, tally)
    per_id = suite_id_timings(workload, api, ep, tally)

    totals = tracer.totals()
    self_times = tracer.self_times()
    metrics = {f"{name}_s": metric(totals.get(name, 0.0), "s") for name in LAYER_SPANS}
    for check_id, seconds in per_id.items():
        metrics[f"checks.suite.{check_id}_s"] = metric(seconds, "s")
    metrics["cli.self_s"] = metric(self_times.get("cli.run_cli", 0.0), "s")
    metrics["families.members"] = metric(counts.members, "count")
    metrics["checks.pairs"] = metric(counts.pairs, "count")
    metrics["checks.triples"] = metric(counts.triples, "count")
    metrics["checks.splits"] = metric(counts.splits, "count")
    metrics["checks.splits_per_s"] = metric(counts.rate_splits / counts.validate_s if counts.validate_s else 0.0, "1/s")
    metrics["checks.triples_per_s"] = metric(counts.rate_triples / counts.suite_s if counts.suite_s else 0.0, "1/s")
    for module in PROFILED_MODULES:
        entry = profile.get(module, {"self_s": 0.0, "calls": 0})
        if module != "cli":
            metrics[f"{module}.self_s"] = metric(entry["self_s"], "s")
        metrics[f"{module}.calls"] = metric(entry["calls"], "count")

    overhead = {
        "plain_round_s": plain_s,
        "traced_round_s": traced_s,
        "profiled_round_s": profiled_s,
        "trace_overhead": traced_s / plain_s - 1,
        "profile_overhead": profiled_s / plain_s - 1,
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{seed}")
    with open(stem + "-trace.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, "overhead": overhead,
                   "unwrapped_bindings": [binding for binding, _span in missing],
                   "inclusive_s": totals, "self_s": self_times,
                   "metrics": {k: v["value"] for k, v in metrics.items()},
                   "spans": tracer.spans}, handle)
    with open(stem + "-profile.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, "overhead": overhead,
                   "modules": profile}, handle, indent=1)
    print(f"plain round {plain_s:.3f}s, traced {traced_s:.3f}s (+{overhead['trace_overhead']:.1%}), "
          f"profiled {profiled_s:.3f}s (+{overhead['profile_overhead']:.1%}); wrote {stem}-*.json")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="directory for the trace and profile files of --trace 1")
    args = parser.parse_args(argv)
    oracle.self_check()

    work_parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent)
    try:
        ep, workload, setup_s = setup(args.workload, args.seed, workdir)
        api = api_of(ep)
        tally = Tally()
        if args.trace:
            metrics = measure_layers(workload, api, ep, tally, args.out, args.seed)
        else:
            metrics = measure_end_to_end(workload, api, args.seconds, tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_parent)
    for line in sorted(set(tally.errors))[:5] + tally.mismatches[:5]:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not tally.mismatches, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
