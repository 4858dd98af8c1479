"""Seeded inputs and the fixed operation list of each benchmark workload.

A workload is built from ``--seed`` alone: the seed picks weights, which
labels share a block of a generated field, the events evaluated, the check
ids and the order of the mix.  The make-up of every workload (how many
operations of each kind, on how many atoms, over how many blocks) does not
depend on the seed, so two seeds do the same amount of work.

Each :class:`Op` carries an ``expect`` callable that checks the program's
output against :mod:`oracle` or against properties every valid space has;
it raises :class:`Mismatch` when the output is wrong.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import oracle

WORKLOADS = ("validate-exhaustive", "suite-exhaustive", "cli-mix")

AXIOM_IDS = ("EP1", "EP2", "EP3", "EP4", "EP5", "EP5p", "EP6", "EP7", "EP8", "EP9", "EP10")
KOLMOGOROV_IDS = ("K1", "K2", "K3")
SUITE_IDS = (
    "C1", "C2", "C3", "C4", "C5",
    "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11",
    "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11a", "P11b",
    "T1", "T2", "T3", "T4a", "T4b", "T5", "T6", "T7",
)
# Suite ids timed one by one in the traced run.
TIMED_SUITE_IDS = ("L4", "L5", "L6", "L7", "L9", "P6", "P7", "T2", "T6", "T7")

# Ids whose cost is about one probability map at any size, ids that walk the
# family once more, and pair loops that are cheap only up to four atoms.
# ``check --suite`` in cli-mix takes two light ids and one of the others by
# the document's place in the list, not by the seed: around the median
# command the commands' costs lie a tenth apart, and a seeded pick would
# move the median from one command to another.
_LIGHT_IDS = ("C1", "C2", "C3", "C5", "L1", "L2", "L10", "L11", "P1", "P2", "P4", "P8", "P9", "P11b", "T5")
_MEDIUM_IDS = ("L3", "P10", "P11a", "T7")
_PAIR_IDS = ("L5", "L6", "L7", "P7", "T2")

# The program picks a powerset or a generated field per fuzz trial from the
# fuzz seed, and a powerset trial costs two to twenty times a field trial.
# The fuzz runs keep fixed seeds, so the mix of the two does not move with
# the workload seed: atoms -> (trials, fuzz seed).
_FUZZ_RUNS = {3: (2, 301), 4: (2, 401), 5: (2, 501), 6: (1, 601), 7: (1, 701), 8: (1, 801)}

_SIX_FIFTHS = {"omega_plus": ["a", "b", "c"], "weights": {"a": "1/2", "b": "1/2", "c": "1/5"}, "algebra": "powerset"}
_HUGE_WEIGHT = {"omega_plus": ["a", "b"], "weights": {"a": "1e5000", "b": "0"}, "algebra": "powerset"}


class Mismatch(Exception):
    """The program's output disagrees with the oracle or a required property."""


@dataclass
class Doc:
    """A generated space document and what the oracle needs to know about it."""

    name: str
    labels: tuple
    weights: dict
    blocks: list
    path: str
    text: str

    @property
    def n(self) -> int:
        return len(self.labels)

    def order(self) -> list:
        return _order(tuple(self.blocks))


@cache
def _order(blocks: tuple) -> list:
    return oracle.canonical(oracle.members(blocks))


@dataclass
class Op:
    """One timed operation: a CLI command (``argv``) or a library call (``call``)."""

    name: str
    expect: object
    argv: list | None = None
    call: object = None


@dataclass
class Workload:
    name: str
    ops: list
    probe: list
    suite_docs: list


def _labels(n: int) -> tuple:
    return tuple(f"w{i + 1}" for i in range(n))


# Weights are k/251 with random positive k summing to 251.  The denominator
# is one prime for every seed, so every sum of weights takes the same path
# through Fraction's gcd steps and the seed does not move the cost of the
# exact arithmetic.
WEIGHT_DENOMINATOR = 251


def _weights(rng: random.Random, labels) -> dict:
    cuts = sorted(rng.sample(range(1, WEIGHT_DENOMINATOR), len(labels) - 1))
    bounds = [0] + cuts + [WEIGHT_DENOMINATOR]
    return {label: Fraction(bounds[i + 1] - bounds[i], WEIGHT_DENOMINATOR)
            for i, label in enumerate(labels)}


def _write(workdir: str, name: str, payload: dict) -> tuple:
    text = json.dumps(payload, indent=2) + "\n"
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path, text


def make_doc(workdir, name, rng, n, block_sizes=None) -> Doc:
    """A document over ``w1..wn``: the powerset, or a field whose blocks have the
    given sizes (the seed decides which labels share a block)."""
    labels = _labels(n)
    weights = _weights(rng, labels)
    if block_sizes is None:
        blocks, algebra = [(label,) for label in labels], "powerset"
    else:
        if sum(block_sizes) != n:
            raise ValueError(f"block sizes {block_sizes} do not cover {n} atoms")
        shuffled = list(labels)
        rng.shuffle(shuffled)
        blocks, start = [], 0
        for size in block_sizes:
            blocks.append(tuple(sorted(shuffled[start:start + size])))
            start += size
        # The last block is what no generator covers.
        algebra = {"generators": [list(b) for b in blocks[:-1]]}
    payload = {
        "omega_plus": list(labels),
        "weights": {label: str(w) for label, w in weights.items()},
        "algebra": algebra,
    }
    path, text = _write(workdir, name, payload)
    return Doc(name, labels, weights, blocks, path, text)


def _demo_doc(root, workdir, filename) -> Doc:
    with open(os.path.join(root, "demos", "spaces", filename), encoding="utf-8") as handle:
        payload = json.load(handle)
    labels = tuple(payload["omega_plus"])
    weights = {label: Fraction(str(payload["weights"][label])) for label in labels}
    algebra = payload["algebra"]
    generators = None if algebra == "powerset" else algebra["generators"]
    path, text = _write(workdir, "demo-" + filename[:-5], payload)
    return Doc("demo-" + filename[:-5], labels, weights, oracle.blocks_of(labels, generators), path, text)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _entries(out: str, as_json: bool) -> list:
    if as_json:
        return [(e["checkId"], e["passed"]) for e in json.loads(out)]
    return [(line.split()[0], line.split()[1] == "PASS") for line in out.splitlines()]


def _all_pass(ids, as_json=False):
    def expect(result):
        code, out, err = result
        entries = _entries(out, as_json)
        if code != 0 or [e[0] for e in entries] != list(ids) or not all(e[1] for e in entries):
            raise Mismatch(f"expected {len(ids)} PASS entries and exit 0, got exit {code}: {out[:200]!r} {err[:200]!r}")
    return expect


def _exact(expected_out):
    expected_out = cache(expected_out)

    def expect(result):
        code, out, err = result
        if code != 0 or out != expected_out():
            raise Mismatch(f"expected exit 0 and {expected_out()[:120]!r}, got exit {code}: {out[:120]!r} {err[:200]!r}")
    return expect


def _error_exit(codes, needle=""):
    def expect(result):
        code, out, err = result
        if code not in codes or out or not err.startswith("epspace: ") or needle not in err:
            raise Mismatch(f"expected exit in {codes} with an 'epspace:' message, got exit {code}: {err[:200]!r}")
    return expect


def _fuzz_passes(atoms, trials, seed):
    expected = [f"trial {i} PASS" for i in range(trials)]
    expected.append(f"fuzz atoms={atoms} trials={trials} seed={seed} failures=0")

    def expect(result):
        code, out, err = result
        if code != 0 or out.splitlines() != expected:
            raise Mismatch(f"fuzz atoms={atoms} seed={seed}: exit {code}: {out[-200:]!r}")
    return expect


def _suite_order(ids) -> list:
    def key(check_id):
        match = re.match(r"([A-Z]+)(\d+)([a-z]*)\Z", check_id)
        return (match.group(1), int(match.group(2)), match.group(3))
    return sorted(ids, key=key)


# ---------------------------------------------------------------------------
# Operation builders
# ---------------------------------------------------------------------------


def _validate(doc):
    return Op(f"validate {doc.name}", _all_pass(AXIOM_IDS), argv=["validate", doc.path])


def _kolmogorov(doc):
    return Op(f"kolmogorov {doc.name}", _all_pass(KOLMOGOROV_IDS),
              argv=["check", doc.path, "--suite", "kolmogorov"])


def _suite(doc):
    return Op(f"suite {doc.name}", _all_pass(SUITE_IDS), argv=["check", doc.path])


def _random_member(rng, doc):
    pos, neg = [], []
    for block in doc.blocks:
        sign = rng.randrange(3)
        (pos if sign == 1 else neg if sign == 2 else []).extend(block)
    return (frozenset(pos), frozenset(neg))


def _eval(rng, doc):
    """Evaluate a member given as a draft with duplicates and annihilating pairs
    on labels outside it, so that it normalizes to that member."""
    event = _random_member(rng, doc)
    draft = [(l, 1) for l in event[0]] + [(l, -1) for l in event[1]]
    draft += rng.sample(draft, min(len(draft), 2))
    unused = [l for l in doc.labels if l not in event[0] | event[1]]
    for label in rng.sample(unused, min(len(unused), 2)):
        draft += [(label, 1), (label, -1)]
    rng.shuffle(draft)
    text = ",".join(("-" if s < 0 else "") + l for l, s in draft) or "{}"

    def expected():
        value = oracle.draft_value(oracle.parse_draft(text), doc.weights)
        return f"{value} (= {float(value)})\n"
    return Op(f"eval {doc.name}", _exact(expected), argv=["eval", doc.path, f"--event={text}"])


def _enumerate(doc, limited):
    # Half the family when limited: a seeded limit moved a small command's
    # printing cost by a tenth from seed to seed.
    limit = (oracle.family_size(doc.blocks) + 1) // 2 if limited else None
    argv = ["enumerate", doc.path] + ([] if limit is None else ["--limit", str(limit)])

    def expected():
        return "".join(oracle.text(e) + "\n" for e in doc.order()[:limit])
    return Op(f"enumerate {doc.name}", _exact(expected), argv=argv)


def _sampled_validate(rng, doc, as_json):
    argv = ["validate", doc.path, "--sample", "200", "--seed", str(rng.randrange(1000))]
    return Op(f"validate-sample {doc.name}", _all_pass(AXIOM_IDS, as_json),
              argv=argv + (["--json"] if as_json else []))


def _check_ids(doc, place):
    other = _PAIR_IDS if doc.n <= 4 else _MEDIUM_IDS
    ids = [_LIGHT_IDS[2 * place % len(_LIGHT_IDS)], _LIGHT_IDS[(2 * place + 1) % len(_LIGHT_IDS)],
           other[place % len(other)]]
    return Op(f"check-ids {doc.name}", _all_pass(_suite_order(ids)),
              argv=["check", doc.path, "--suite", ",".join(ids)])


def _calc(rng):
    labels = ("a", "b", "c", "d", "e")
    x, y = [], []
    for side in (x, y):
        for label in rng.sample(labels, rng.randrange(len(labels) + 1)):
            side.append((label, 1 if rng.random() < 0.5 else -1))
    left, right = oracle.normalize(x), oracle.normalize(y)
    op = rng.choice(sorted(oracle.CALC))

    def expected():
        return oracle.text(oracle.CALC[op](left, right)) + "\n"
    return Op(f"calc {op}", _exact(expected),
              argv=["calc", "--op", op, f"--left={oracle.text(left)}", f"--right={oracle.text(right)}"])


def _fuzz(atoms, trials, seed):
    return Op(f"fuzz {atoms}", _fuzz_passes(atoms, trials, seed),
              argv=["fuzz", "--atoms", str(atoms), "--trials", str(trials), "--seed", str(seed)])


def _damaged(doc, damaged_text):
    """Validate ``doc`` after pinning one event to its true value plus one.

    The library call returns the JSON report; EP5 must fail, its split must
    really break additivity under the pinned measure, and its union must be
    the least failing union in canonical order.
    """
    damaged = oracle.parse_event(damaged_text)
    pinned = oracle.value(damaged, doc.weights) + 1

    def call(api):
        space = api.parse_space(doc.text).with_override(api.Event(damaged_text), str(pinned))
        return api.validate_axioms(space).as_json()

    def expect(report_json):
        entries = {e["checkId"]: e for e in json.loads(report_json)}
        ep5 = entries["EP5"]
        if ep5["passed"] or not ep5["counterexample"]:
            raise Mismatch(f"EP5 passed on a space damaged at {damaged_text}")
        cx = ep5["counterexample"]
        a, b, u = (oracle.parse_event(cx[k]) for k in ("A", "B", "union"))
        order = doc.order()
        members = set(order)
        if oracle.union(a, b) != u or oracle.intersection(a, b) != oracle.EMPTY or not {a, b, u} <= members:
            raise Mismatch(f"EP5 counterexample {cx} is not a split of a member into members")
        overrides = {damaged: pinned}
        lhs = oracle.value(a, doc.weights, overrides) + oracle.value(b, doc.weights, overrides)
        rhs = oracle.value(u, doc.weights, overrides)
        if lhs == rhs or str(lhs) != cx["lhs"] or str(rhs) != cx["rhs"]:
            raise Mismatch(f"EP5 counterexample {cx} does not break additivity as reported")
        least = oracle.least_failing_union(order, doc.weights, damaged, pinned)
        if u != least:
            raise Mismatch(f"EP5 union {cx['union']} is not the least failing union {oracle.text(least)}")
    return Op(f"damaged {damaged_text}", expect, call=call)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _probe(workdir, rng) -> tuple:
    """Commands run only in the traced run, after the workload, so that every
    layer metric has a reading on every workload."""
    doc = make_doc(workdir, "probe-p3", rng, 3)
    ops = [_validate(doc), _suite(doc), _kolmogorov(doc), _eval(rng, doc), _enumerate(doc, False),
           _fuzz(3, 1, rng.randrange(1000))]
    return ops, doc


def build(name: str, seed: int, workdir: str, root: str) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "validate-exhaustive":
        docs = [make_doc(workdir, f"p{n}", rng, n) for n in (5, 6, 7, 8)]
        docs.append(make_doc(workdir, "f8-6blocks", rng, 8, (2, 2, 1, 1, 1, 1)))
        ops = [op for doc in docs for op in (_validate(doc), _kolmogorov(doc))]
        target = make_doc(workdir, "p7-damaged", rng, 7)
        size_two = [e for e in oracle.members(target.blocks) if len(e[0]) + len(e[1]) == 2]
        early = oracle.canonical(size_two)[rng.randrange(len(size_two))]
        last = (frozenset(), frozenset(target.labels))
        ops += [_damaged(target, oracle.text(early)), _damaged(target, oracle.text(last))]
        probe, probe_doc = _probe(workdir, rng)
        return Workload(name, ops, probe, [probe_doc])
    if name == "suite-exhaustive":
        docs = [make_doc(workdir, "p3", rng, 3), make_doc(workdir, "p4", rng, 4),
                make_doc(workdir, "f8-4blocks", rng, 8, (2, 2, 2, 2))]
        probe, _ = _probe(workdir, rng)
        return Workload(name, [_suite(doc) for doc in docs], probe, docs)
    if name == "cli-mix":
        docs = [make_doc(workdir, f"p{n}", rng, n) for n in range(2, 9)]
        field_blocks = {3: (2, 1), 4: (2, 2), 5: (2, 2, 1), 6: (2, 2, 1, 1), 7: (2, 2, 1, 1, 1), 8: (2, 2, 2, 1, 1)}
        docs += [make_doc(workdir, f"f{n}", rng, n, sizes) for n, sizes in field_blocks.items()]
        docs += [_demo_doc(root, workdir, "dice.json"), _demo_doc(root, workdir, "weighted.json")]
        ops = []
        for i, doc in enumerate(docs):
            ops += [_eval(rng, doc), _eval(rng, doc), _enumerate(doc, i % 2 == 1),
                    _sampled_validate(rng, doc, i % 2 == 0), _check_ids(doc, i), _kolmogorov(doc)]
        ops += [_calc(rng) for _ in range(22)]
        ops += [_fuzz(atoms, trials, seed) for atoms, (trials, seed) in _FUZZ_RUNS.items()]
        six_fifths, _ = _write(workdir, "sum-six-fifths", _SIX_FIFTHS)
        huge, _ = _write(workdir, "huge-weight", _HUGE_WEIGHT)
        ops.append(Op("validate sum-six-fifths", _error_exit((1,), "6/5"), argv=["validate", six_fifths]))
        ops.append(Op("validate huge-weight", _error_exit((1, 2)), argv=["validate", huge]))
        rng.shuffle(ops)
        probe, probe_doc = _probe(workdir, rng)
        return Workload(name, ops, probe, [probe_doc])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
