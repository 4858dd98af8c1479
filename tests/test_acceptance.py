"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All probability comparisons are exact rational equality; there are no
tolerances anywhere in this module.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations

from epspace import (
    Atom,
    Event,
    FuzzConfig,
    compose_family,
    generate_algebra,
    make_space,
    normalize,
    powerset_family,
    random_space,
    run_theorem_suite,
    validate_axioms,
)
from epspace.cli import run_cli

SIZES = (1, 2, 3, 4, 5)
TRIALS_PER_SIZE = 100
BASE_SEED = 20_260_810


def _verdict(cid: str, description: str, ok: bool, detail: str = "") -> None:
    line = f"{cid} {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _fuzz_spaces(n: int, algebra: str):
    config = FuzzConfig(atoms=n, trials=TRIALS_PER_SIZE, seed=BASE_SEED + n)
    for trial in range(TRIALS_PER_SIZE):
        yield random_space(config, trial, algebra=algebra)


def test_criterion_01_axiom_soundness_of_weight_model():
    start = time.perf_counter()
    bad = []
    for n in SIZES:
        for i, space in enumerate(_fuzz_spaces(n, "powerset")):
            report = validate_axioms(space)
            if not report.ok:
                bad.append((n, i, report.failures()))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion-01",
        "EP1-EP10 and EP5p pass exhaustively on 100 powerset fuzz trials at each size 1-5",
        not bad,
        f"{len(SIZES) * TRIALS_PER_SIZE} spaces, exact comparisons, {elapsed:.1f}s",
    )


def test_criterion_02_anchor_values_exact():
    start = time.perf_counter()
    bad = 0
    for n in SIZES:
        for space in _fuzz_spaces(n, "powerset"):
            first = space.ground.labels[0]
            pair = (Atom(first), Atom(first, False))
            if not (
                space.probability(space.omega_plus) == 1
                and space.probability(space.omega_minus) == -1
                and space.probability(Event()) == 0
                and space.draft_probability(pair) == 0
            ):
                bad += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion-02",
        "P(omega+)=1, P(omega-)=-1, P({})=0, P([w,-w])=0 on every generated space",
        bad == 0,
        f"{len(SIZES) * TRIALS_PER_SIZE} spaces, {elapsed:.1f}s",
    )


def test_criterion_03_theorem_suite_exhaustive_to_four_atoms():
    start = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4):
        labels = tuple(f"w{i + 1}" for i in range(n))
        uniform = make_space(labels, {l: Fraction(1, n) for l in labels})
        config = FuzzConfig(atoms=n, trials=1, seed=BASE_SEED + 77 + n)
        seeded = random_space(config, 0, algebra="powerset")
        for space in (uniform, seeded):
            report = run_theorem_suite(space)
            if not report.ok:
                failures.append((n, [e.line() for e in report.failures()]))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion-03",
        "all 36 suite entries pass exhaustively at sizes 1-4",
        not failures,
        f"{elapsed:.1f}s" if not failures else str(failures),
    )


def test_criterion_04_annihilating_union_oracle_equivalence():
    def formula(x: Event, y: Event) -> frozenset:
        xs, ys = frozenset(x), frozenset(y)
        neg_xs = frozenset(-a for a in xs)
        neg_ys = frozenset(-a for a in ys)
        return (xs | ys) - ((xs & neg_ys) | (neg_xs & ys))

    checked = {}
    bad = 0
    for n in (1, 2, 3):
        labels = tuple(f"w{i + 1}" for i in range(n))
        space = make_space(labels, {l: Fraction(1, n) for l in labels})
        events = tuple(space.f)
        pairs = 0
        for x in events:
            for y in events:
                pairs += 1
                joined = x + y
                if joined != normalize(tuple(x) + tuple(y)):
                    bad += 1
                if frozenset(joined) != formula(x, y):
                    bad += 1
        checked[n] = pairs
    _verdict(
        "criterion-04",
        "X + Y equals normalize(X ++ Y) and the removal formula for all event pairs at sizes 1-3",
        bad == 0 and checked == {1: 9, 2: 81, 3: 729},
        f"pairs per size: {checked}",
    )


def test_criterion_05_distributivity_witness():
    space = make_space(("a",), {"a": 1})
    entry = run_theorem_suite(space, ["L5"]).entry("L5")
    expected = (("X", "a"), ("Y", "-a"), ("Z", "a"), ("lhs", "{}"), ("rhs", "a"))
    ok = entry.passed and entry.counterexample == expected
    _verdict(
        "criterion-05",
        "exhaustive search at one atom finds the witness X={a}, Y={-a}, Z={a}",
        ok,
        entry.line(),
    )


def test_criterion_06_composition_count():
    counts = {}
    for n in range(1, 7):
        universe = Event(",".join(f"w{i + 1}" for i in range(n)))
        counts[n] = len(compose_family(powerset_family(universe)))
    ok = all(counts[n] == 3 ** n for n in range(1, 7))
    _verdict(
        "criterion-06",
        "composed powerset family has exactly 3^n members for n = 1..6",
        ok,
        str(counts),
    )


def test_criterion_07_closure_matches_bruteforce():
    def bruteforce(gens, universe):
        current = set(gens) | {universe}
        while True:
            added = set()
            for a in current:
                for b in current:
                    for c in (
                        Event(frozenset(a) | frozenset(b)),
                        a & b,
                        a - b,
                    ):
                        if c not in current:
                            added.add(c)
            if not added:
                return frozenset(current)
            current |= added

    families = 0
    bad = 0
    for labels in ("a", "ab", "abc"):
        universe = Event(",".join(labels))
        subsets = [
            Event(",".join(c)) if c else Event()
            for r in range(len(labels) + 1)
            for c in combinations(labels, r)
        ]
        for r in range(len(subsets) + 1):
            for gens in combinations(subsets, r):
                families += 1
                if generate_algebra(gens, universe).events != bruteforce(gens, universe):
                    bad += 1
    _verdict(
        "criterion-07",
        "generated algebra equals brute-force fixed-point closure for every generator family over 1-3 atoms",
        bad == 0,
        f"{families} generator families",
    )


def test_criterion_08_fault_detection():
    negative = make_space(("a", "b"), {"a": "3/2", "b": "-1/2"}, check=False)
    negative_report = validate_axioms(negative)
    ep8 = negative_report.entry("EP8")

    clean = make_space(("a", "b"), {"a": "1/2", "b": "1/2"})
    broken = clean.with_override(Event("a"), 2)
    override_report = validate_axioms(broken)
    ep5 = override_report.entry("EP5")

    ok = (
        not ep8.passed
        and ep8.counterexample == (("event", "b"), ("value", "-1/2"))
        and not ep5.passed
        and ep5.counterexample
        == (("A", "a"), ("B", "b"), ("union", "a,b"), ("lhs", "5/2"), ("rhs", "1"))
    )
    _verdict(
        "criterion-08",
        "negative weight and additivity override each produce named FAIL entries with counterexamples",
        ok,
        f"{ep8.line()} | {ep5.line()}",
    )


def test_criterion_09_additivity_implication_across_trials():
    start = time.perf_counter()
    violations = []
    spaces = 0
    for n in (1, 2, 3, 4):
        config = FuzzConfig(atoms=n, trials=50, seed=BASE_SEED + 900 + n)
        for trial in range(50):
            space = random_space(config, trial)  # generator picks the algebra
            report = validate_axioms(space)
            spaces += 1
            premises = report.entry("EP5p").passed and report.entry("EP10").passed
            if premises and not report.entry("EP5").passed:
                violations.append((n, trial))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion-09",
        "no fuzz trial has EP5p and EP10 passing while EP5 fails",
        not violations,
        f"{spaces} spaces incl. generated sub-algebras, {elapsed:.1f}s",
    )


def test_criterion_10_cli_golden(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(
        '{"omega_plus": ["a", "b", "c"],\n'
        ' "weights": {"a": "1/2", "b": "3/10", "c": "1/5"},\n'
        ' "algebra": "powerset"}\n',
        encoding="utf-8",
    )

    def run(*argv):
        code = run_cli(list(argv))
        out = capsys.readouterr().out
        return code, out

    commands = [
        ("eval", str(path), "--event", "a,-b"),
        ("validate", str(path)),
        ("check", str(path), "--suite", "P10,L6,T3"),
        ("calc", "--op", "union", "--left", "a,-b", "--right", "b,c"),
        ("enumerate", str(path), "--limit", "5"),
        ("fuzz", "--atoms", "2", "--trials", "3", "--seed", "7"),
    ]
    stable = True
    codes_ok = True
    for argv in commands:
        code_a, out_a = run(*argv)
        code_b, out_b = run(*argv)
        stable = stable and out_a == out_b
        codes_ok = codes_ok and code_a == 0 and code_b == 0

    _, eval_out = run("eval", str(path), "--event", "a,-b")
    _, calc_out = run("calc", "--op", "union", "--left", "a,-b", "--right", "b,c")
    frozen_ok = eval_out == "1/5 (= 0.2)\n" and calc_out == "a,c\n"

    _verdict(
        "criterion-10",
        "eval/validate/check/calc/enumerate/fuzz are byte-identical across runs with frozen goldens",
        stable and codes_ok and frozen_ok,
        f"{len(commands)} subcommands",
    )
