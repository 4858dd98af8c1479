"""Executable verification: axiom validator, classical restriction, result suite.

Three report producers, all returning a :class:`ValidationReport` of
pass/fail entries with concrete counterexamples:

* :func:`validate_axioms` -- the space axioms EP1..EP10 plus the restricted
  additivity axiom EP5p.  Exhaustive by default; pass ``trials``/``seed`` to
  sample the quantifier-heavy checks (EP5, EP6, EP7, EP10) on larger spaces.
* :func:`check_kolmogorov_restriction` -- K1 (non-negativity), K2
  (normalization), K3 (finite additivity) for the restriction of the measure
  to the positive family, which is an ordinary probability space.  They are
  the positive-family axioms EP8, EP3 and EP5p under their classical names.
* :func:`run_theorem_suite` -- every catalogued algebraic/measure identity
  (ids C1..C5, L1..L11, P1..P11b, T1..T7), checked exhaustively over the
  space's measurable family.  Quantified checks enumerate all members,
  pairs, or triples; the full suite on an n-atom powerset takes about 0.3 s
  at n = 4, 3 s at n = 5 and 35 s at n = 6 (2-core x86 VM, CPython 3.11).
  Duplicate-numbered results are split as T4a/T4b and P11a/P11b.

Each producer builds one :class:`_Facts` per call, the only argument of
every check: what the checks share about the space, each part computed at
most once per report and only when a selected check reads it.

Every check compares integer numerators: the space's one measure, each
member's probability over its one common denominator.  A ``Fraction`` is
built only for a counterexample and on P6's draft side, which sums the
weights without the memo; besides P9's single draft no check calls
:meth:`~epspace.measure.ExtendedSpace.probability`.  The classical
restriction reads the positive family's numerators alone.  Exhaustive
EP5 and EP5p (and K3, T6 and T7 through them) first try a label-linearity
certificate, one ``O(3**n)`` pass over the packed family against a subset
sum table of the weights, and enumerate the ``5**n`` splits only when it
fails, so a failing report keeps its least counterexample.  EP6 and EP7
share one normalization pass over the annihilation probes, and EP7
evaluates only the probes whose draft does not normalize back to the event:
a draft's probability is that of its normal form, so every other probe
passes by definition.

EP2, T1 and the field verdict read the positive family's algebra verdict,
which :func:`~epspace.families.is_set_algebra` keeps on the family, so the
proof ``make_space`` ran is not repeated.  EP4 recomposes the positive
family once and compares it with the measurable family; a passing compare
already puts every member's parts in the positive family and its mirror, so
only P3 walks the parts.  Exhaustive EP10 runs on the packed family, where a
member's parts are its mask's positive and negative halves.

Failures are report entries, never exceptions.  Enumeration follows the
canonical event order and stops at the first violation, so a reported
counterexample is the least one in that order and reports are byte-stable
across runs.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from random import Random

from .errors import EventNotMeasurableError
from .events import (
    Atom,
    Event,
    LabelMask,
    annihilated_equals,
    annihilating_union,
    intersection,
    normalize,
    plain_union,
)
from .families import Family, is_set_algebra, is_set_field, mirror_family, compose_family
from .measure import ExtendedSpace

__all__ = [
    "CheckEntry",
    "ValidationReport",
    "validate_axioms",
    "check_kolmogorov_restriction",
    "run_theorem_suite",
    "AXIOM_IDS",
    "KOLMOGOROV_IDS",
    "SUITE_CATALOG",
    "suite_ids",
]


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    """One verdict: check id, pass flag, optional payload.

    ``counterexample`` is an ordered tuple of ``(key, value)`` text pairs.  A
    failed entry always carries one; a passing entry may too (the
    distributivity check reports the witness it found).
    """

    check_id: str
    passed: bool
    counterexample: tuple = ()
    note: str = ""

    def line(self) -> str:
        parts = [self.check_id, "PASS" if self.passed else "FAIL"]
        if self.counterexample:
            parts.append(" ".join(f"{k}={v}" for k, v in self.counterexample))
        if self.note:
            parts.append(f"({self.note})")
        return " ".join(parts)

    def as_json(self) -> dict:
        payload = {
            "checkId": self.check_id,
            "passed": self.passed,
            "counterexample": dict(self.counterexample) if self.counterexample else None,
        }
        if self.note:
            payload["note"] = self.note
        return payload


@dataclass(frozen=True)
class ValidationReport:
    """An ordered bundle of check entries."""

    entries: tuple

    @property
    def ok(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def __iter__(self) -> Iterator[CheckEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, check_id: str) -> CheckEntry:
        for candidate in self.entries:
            if candidate.check_id == check_id:
                return candidate
        raise KeyError(check_id)

    def failures(self) -> tuple:
        return tuple(entry for entry in self.entries if not entry.passed)

    def lines(self) -> list[str]:
        return [entry.line() for entry in self.entries]

    def text(self) -> str:
        return "\n".join(self.lines())

    def as_json(self) -> str:
        return json.dumps([entry.as_json() for entry in self.entries], indent=2)


def _fmt(value) -> str:
    return value.text() if isinstance(value, Event) else str(value)


def _cx(**pairs) -> tuple:
    return tuple((key, _fmt(value)) for key, value in pairs.items())


# ---------------------------------------------------------------------------
# Packed families
# ---------------------------------------------------------------------------


class _PackedFamily:
    """A family packed for the quantified checks, which loop over ints only.

    Holds the :class:`LabelMask` codec over the space's sorted labels, the
    members (``events``) and their masks in canonical order, the mask ->
    index map, and each member's probability as the space's integer
    numerator over its one common denominator.  Events and fractions are
    decoded only for what a check reports.  Every member of ``ordered`` must
    be measurable.
    """

    __slots__ = ("codec", "events", "masks", "index", "numerators")

    def __init__(self, space: ExtendedSpace, ordered):
        self.codec = codec = LabelMask(sorted(space.ground.labels))
        self.events = tuple(ordered)
        self.masks = [codec.encode(event) for event in self.events]
        self.index = {mask: i for i, mask in enumerate(self.masks)}
        self.numerators = [space._numerator(event) for event in self.events]


def _picker(indices):
    """``row -> tuple(row[k] for k in indices)``, at ``itemgetter`` speed."""
    if len(indices) == 1:
        (k,) = indices
        return lambda row: (row[k],)
    return itemgetter(*indices) if indices else lambda row: ()


def _additivity(check_id: str, family: _PackedFamily, facts: _Facts) -> CheckEntry:
    """P(A) + P(B) == P(A | B) over every disjoint pair with union in the family.

    The label-linearity certificate runs first; only a family it does not
    certify enumerates its splits, which keeps the least counterexample.
    """
    if _label_linear(family, facts):
        return CheckEntry(check_id, True)
    return _first_failing_split(check_id, family, facts)


def _label_linear(family: _PackedFamily, facts: _Facts) -> bool:
    """Whether every member's numerator is its signed label sum.

    One ``2**n`` subset-sum table over the codec's labels gives each mask
    ``table[pos] - table[neg]``, which is additive over any two disjoint
    masks, whatever the weights.  Every split :func:`_first_failing_split`
    tests is such a pair of sub-masks of a member, so a family whose
    numerators all equal their table values passes it: ``O(3**n)`` instead
    of ``5**n``.  Sufficient, not necessary: pins and counter-measures fail
    it and take the enumeration.  The numerators are the measure's own,
    read through the packed family, never derived from the table.
    """
    codec = family.codec
    n, low = codec.n, codec.low
    weights = facts.space._weight_numerators
    table = [0]
    for label in codec.labels:
        w = weights.get(label, 0)
        table += [t + w for t in table]
    return all(
        value == table[m & low] - table[m >> n]
        for m, value in zip(family.masks, family.numerators)
    )


def _first_failing_split(check_id: str, family: _PackedFamily, facts: _Facts) -> CheckEntry:
    """Enumerate every disjoint split, the fallback of :func:`_additivity`.

    Every such pair partitions its union, so enumerating the ordered two-part
    splits of each member is exhaustive: ``5**n`` splits over the ``3**n``
    powerset events.  The loop does int lookups and int sums only.  A
    union's splits are its sub-masks, built by doubling over its atoms in
    label order: split ``k`` puts the atom of bit ``j`` of ``k`` into ``A``.
    The first failure found is therefore the least ``(union, A)`` in that
    order, and only it is decoded into events and fractions.
    """
    codec = family.codec
    n = codec.n
    masks = family.masks
    numerator = dict(zip(masks, family.numerators))
    label_bits = [(1 << i) | (1 << (n + i)) for i in range(n)]
    get = numerator.get
    for union_mask, union_event in zip(masks, family.events):
        target = numerator[union_mask]
        subs = [0]
        for both in label_bits:
            bit = union_mask & both
            if bit:
                subs += [sub | bit for sub in subs]
        for a_mask in subs:
            x = get(a_mask)
            if x is None:
                continue
            y = get(union_mask ^ a_mask)
            if y is not None and x + y != target:
                a, b = codec.decode(a_mask), codec.decode(union_mask ^ a_mask)
                lhs, rhs = facts.fraction(x + y), facts.fraction(target)
                return CheckEntry(check_id, False, _cx(A=a, B=b, union=union_event, lhs=lhs, rhs=rhs))
    return CheckEntry(check_id, True)


def _not_measurable(check_id: str, event: Event, note: str = "") -> CheckEntry:
    """The failure of a check that needs ``P(event)`` on a space without it:
    a positive family built unchecked may compose to a family that lacks
    the full or the empty event, or its own members."""
    return CheckEntry(check_id, False, _cx(event=event, reason="not measurable"), note=note)


def _sampled_members(facts: _Facts, salt: int):
    """Yield ``(rng, member)`` for ``facts.trials`` seeded draws from the
    measurable family; none from an empty family.  A caller may draw more
    from ``rng`` between members."""
    rng = Random(facts.seed ^ salt)
    events = tuple(facts.space.f)
    for _ in range(facts.trials if events else 0):
        yield rng, events[rng.randrange(len(events))]


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

AXIOM_IDS = ("EP1", "EP2", "EP3", "EP4", "EP5", "EP5p", "EP6", "EP7", "EP8", "EP9", "EP10")


def _check_ep1(facts: _Facts) -> CheckEntry:
    space = facts.space
    for label in space.ground.labels:
        atom = Atom(label)
        anti = -atom
        if -anti != atom or anti.positive or not atom.positive:
            return CheckEntry("EP1", False, _cx(label=label))
    if -space.omega_plus != space.omega_minus or -space.omega_minus != space.omega_plus:
        return CheckEntry("EP1", False, _cx(reason="half-space negation mismatch"))
    return CheckEntry("EP1", True)


def _check_ep2(facts: _Facts) -> CheckEntry:
    space = facts.space
    ok, unit = facts.algebra
    if not ok:
        return CheckEntry("EP2", False, _cx(reason="positive family is not a set algebra"))
    if space.omega_plus not in space.fplus:
        return CheckEntry(
            "EP2", False, _cx(reason="full positive event missing", expected=space.omega_plus)
        )
    return CheckEntry("EP2", True, note=f"unit={unit.text()} field={facts.field}")


def _check_ep3(facts: _Facts) -> CheckEntry:
    space = facts.space
    omega_plus = space.omega_plus
    if omega_plus not in space.f:
        return _not_measurable("EP3", omega_plus)
    value = space._numerator(omega_plus)
    if value != space._denominator:
        return CheckEntry(
            "EP3", False, _cx(event=omega_plus, value=facts.fraction(value), expected=1)
        )
    return CheckEntry("EP3", True)


def _check_ep4(facts: _Facts) -> CheckEntry:
    """The measurable family is the disjoint composition of the positive one.

    A passing compare needs no walk over the parts: every composed member is
    ``A | -B`` with ``A`` in the positive family and ``-B`` in its mirror.
    """
    space = facts.space
    recomposed = compose_family(space.fplus)
    if recomposed.events != space.f.events:
        extra = sorted(space.f.events ^ recomposed.events, key=lambda e: e.text())
        return CheckEntry(
            "EP4", False, _cx(reason="family is not the disjoint composition", near=extra[0])
        )
    return CheckEntry("EP4", True)


def _check_ep5(facts: _Facts) -> CheckEntry:
    if facts.trials is None:
        return _additivity("EP5", facts.packed, facts)
    note, numerator = facts.sampled_note, facts.space._numerator
    universe = facts.space.f.events
    for rng, union_event in _sampled_members(facts, 0):
        # Bit i of the draw puts the union's i-th label, in label order, into A.
        pos, neg = union_event.positive_labels, union_event.negative_labels
        labels = sorted(pos | neg)
        mask = rng.getrandbits(len(labels)) if labels else 0
        in_a = {label for i, label in enumerate(labels) if mask >> i & 1}
        a, b = Event._raw(pos & in_a, neg & in_a), Event._raw(pos - in_a, neg - in_a)
        if a in universe and b in universe:
            total, target = numerator(a) + numerator(b), numerator(union_event)
            if total != target:
                lhs, rhs = facts.fraction(total), facts.fraction(target)
                return CheckEntry(
                    "EP5", False, _cx(A=a, B=b, union=union_event, lhs=lhs, rhs=rhs), note=note
                )
    return CheckEntry("EP5", True, note=note)


def _check_ep5p(facts: _Facts) -> CheckEntry:
    f = facts.space.f
    for member in facts.space.fplus:
        if member not in f:
            return _not_measurable("EP5p", member)
    return _additivity("EP5p", facts.packed_plus, facts)


def _annihilation_insertions(facts: _Facts):
    """Yield ``(event, label, draft)`` probes, exhaustive or sampled, where
    ``draft`` is ``(event, label, -label)``: the event as one part and the
    label's atom pair, built once per label.

    Only labels the event does not use: inserting a pair whose label is
    already resident would cancel the resident atom too (set semantics), so
    the invariance claim applies to fresh labels only.
    """
    labels = facts.space.ground.labels
    pairs = {label: (Atom(label), Atom(label, False)) for label in labels}
    if facts.trials is None:
        for event in facts.space.f:
            used = event.positive_labels | event.negative_labels
            for label in labels:
                if label not in used:
                    yield event, label, (event, *pairs[label])
        return
    for rng, event in _sampled_members(facts, 0x5EED):
        used = event.positive_labels | event.negative_labels
        fresh = [label for label in labels if label not in used]
        if fresh:
            label = fresh[rng.randrange(len(fresh))]
            yield event, label, (event, *pairs[label])


def _check_ep6(facts: _Facts) -> CheckEntry:
    note = facts.sampled_note
    if facts.moved_probes:
        event, label, _ = facts.moved_probes[0]
        return CheckEntry("EP6", False, _cx(event=event, label=label), note=note)
    return CheckEntry("EP6", True, note=note)


def _check_ep7(facts: _Facts) -> CheckEntry:
    """P(draft) == P(event) for every annihilation probe.

    A draft's probability is the probability of its normal form, so a probe
    that normalizes back to its event passes by definition: only the probes
    EP6 flags are evaluated, in probe order, which finds the same first
    failure as evaluating every probe.
    """
    space, note = facts.space, facts.sampled_note
    numerator = space._numerator
    for event, label, normal in facts.moved_probes:
        if normal not in space.f:
            return CheckEntry(
                "EP7",
                False,
                _cx(event=event, label=label, normalized=normal, reason="not measurable"),
                note=note,
            )
        value, expected = numerator(normal), numerator(event)
        if value != expected:
            lhs, rhs = facts.fraction(value), facts.fraction(expected)
            return CheckEntry(
                "EP7", False, _cx(event=event, label=label, lhs=lhs, rhs=rhs), note=note
            )
    return CheckEntry("EP7", True, note=note)


def _check_ep8(facts: _Facts) -> CheckEntry:
    f, numerator = facts.space.f, facts.space._numerator
    for member in facts.space.fplus:
        if member not in f:
            return _not_measurable("EP8", member)
        value = numerator(member)
        if value < 0:
            return CheckEntry("EP8", False, _cx(event=member, value=facts.fraction(value)))
    return CheckEntry("EP8", True)


def _check_ep9(facts: _Facts) -> CheckEntry:
    note = "finitely vacuous: every strictly decreasing event chain is finite"
    space, empty = facts.space, Event()
    if empty not in space.f:
        return _not_measurable("EP9", empty, note)
    value = space._numerator(empty)
    if value != 0:
        return CheckEntry("EP9", False, _cx(event=empty, value=facts.fraction(value)), note=note)
    return CheckEntry("EP9", True, note=note)


def _check_ep10(facts: _Facts) -> CheckEntry:
    """P(A) == P(A+) + P(A-) for every probe, in canonical order when
    exhaustive.  The exhaustive pass runs on the packed family, where the
    parts of mask ``m`` are ``m & low`` and ``m & high``."""
    if facts.trials is None:
        family = facts.packed
        low, high = family.codec.low, family.codec.high
        index, numerators, events = family.index, family.numerators, family.events
        for i, mask in enumerate(family.masks):
            p, q = index.get(mask & low), index.get(mask & high)
            if p is None or q is None:
                return CheckEntry("EP10", False, _cx(event=events[i], reason="part not measurable"))
            total = numerators[p] + numerators[q]
            if total != numerators[i]:
                lhs, rhs = facts.fraction(total), facts.fraction(numerators[i])
                return CheckEntry("EP10", False, _cx(event=events[i], lhs=lhs, rhs=rhs))
        return CheckEntry("EP10", True)
    note, f, numerator = facts.sampled_note, facts.space.f, facts.space._numerator
    probes = [event for _, event in _sampled_members(facts, 0xDEC0)]
    members = f.events
    for event in probes:
        pos, neg = event.split()
        if pos not in members or neg not in members:
            return CheckEntry(
                "EP10", False, _cx(event=event, reason="part not measurable"), note=note
            )
        total, value = numerator(pos) + numerator(neg), numerator(event)
        if total != value:
            lhs, rhs = facts.fraction(total), facts.fraction(value)
            return CheckEntry("EP10", False, _cx(event=event, lhs=lhs, rhs=rhs), note=note)
    return CheckEntry("EP10", True, note=note)


# ---------------------------------------------------------------------------
# Per-report facts
# ---------------------------------------------------------------------------


class _Facts:
    """What the checks of one report read about its space.

    The packed full and positive families, the annihilation probes whose
    drafts move (EP6 and EP7), the mirror family, the positive family's
    algebra and field verdicts, and the EP3/EP5/EP5p/EP8/EP9/EP10 entries,
    which K1-K3, L10 and T5-T7 read too.  Each is computed on first read and
    kept for the rest of the report.  Every check compares integer
    numerators; :meth:`fraction` turns one into the ``Fraction`` a
    counterexample shows.  The packed families are what exhaustive EP5 and
    EP5p certify or, failing that, enumerate; sampled EP5 packs nothing.
    ``trials`` and ``seed`` select sampled probes for
    EP5, EP6, EP7 and EP10; the classical restriction and the suite never
    sample, so the entries they read are exhaustive.
    """

    def __init__(self, space: ExtendedSpace, trials: "int | None" = None, seed: int = 0):
        self.space = space
        self.trials = trials
        self.seed = seed
        self.sampled_note = "" if trials is None else f"sampled trials={trials} seed={seed}"

    def fraction(self, numerator: int) -> Fraction:
        """``numerator`` over the space's common denominator."""
        return Fraction(numerator, self.space._denominator)

    @cached_property
    def moved_probes(self) -> list:
        """``(event, label, normal form)`` of every annihilation probe, in
        probe order, whose draft does not normalize back to its event; each
        draft is normalized once, for EP6 and EP7 together."""
        moved = []
        for event, label, draft in _annihilation_insertions(self):
            normal = normalize(draft)
            if normal != event:
                moved.append((event, label, normal))
        return moved

    @cached_property
    def packed(self) -> _PackedFamily:
        return _PackedFamily(self.space, self.space.f)

    @cached_property
    def packed_plus(self) -> _PackedFamily:
        return _PackedFamily(self.space, self.space.fplus)

    @cached_property
    def mirror(self) -> Family:
        return mirror_family(self.space.fplus)

    @cached_property
    def algebra(self) -> tuple:
        """``(ok, unit)`` of :func:`is_set_algebra` on the positive family."""
        return is_set_algebra(self.space.fplus)

    @cached_property
    def field(self) -> bool:
        return is_set_field(self.space.fplus, self.space.omega_plus)

    ep3 = cached_property(_check_ep3)
    ep5 = cached_property(_check_ep5)
    ep5p = cached_property(_check_ep5p)
    ep8 = cached_property(_check_ep8)
    ep9 = cached_property(_check_ep9)
    ep10 = cached_property(_check_ep10)


def validate_axioms(space: ExtendedSpace, *, trials: "int | None" = None, seed: int = 0) -> ValidationReport:
    """Check every axiom; one entry per id in ``AXIOM_IDS``.

    ``trials=None`` means exhaustive.  With a trial count, the checks that
    quantify over the full measurable family (EP5, EP6, EP7, EP10) draw that
    many seeded probes instead; the structural and positive-family checks
    stay exhaustive either way.
    """
    facts = _Facts(space, trials, seed)
    return ValidationReport((
        _check_ep1(facts),
        _check_ep2(facts),
        facts.ep3,
        _check_ep4(facts),
        facts.ep5,
        facts.ep5p,
        _check_ep6(facts),
        _check_ep7(facts),
        facts.ep8,
        facts.ep9,
        facts.ep10,
    ))


# ---------------------------------------------------------------------------
# Classical restriction
# ---------------------------------------------------------------------------

KOLMOGOROV_IDS = ("K1", "K2", "K3")


def _kolmogorov(facts: _Facts) -> tuple:
    """K1-K3: the positive-family entries EP8, EP3 and EP5p under their classical ids."""
    axioms = (facts.ep8, facts.ep3, facts.ep5p)
    return tuple(replace(entry, check_id=k) for k, entry in zip(KOLMOGOROV_IDS, axioms))


def check_kolmogorov_restriction(space: ExtendedSpace) -> ValidationReport:
    """K1-K3 for the measure restricted to the positive family.

    The restriction of any valid space is an ordinary probability space, so
    all three must pass; failures indicate an injected fault.
    """
    return ValidationReport(_kolmogorov(_Facts(space)))


# ---------------------------------------------------------------------------
# Result suite
# ---------------------------------------------------------------------------

# check id -> (description, check), in report order.
_SUITE: dict = {}


def _suite(check_id: str, description: str):
    """Register the decorated function as the suite check ``check_id``."""

    def register(check):
        _SUITE[check_id] = (description, check)
        return check

    return register


@_suite("C1", "a label lies in the positive half-space iff its negation lies in the negative one")
def _suite_c1(facts):
    omega_plus, omega_minus = facts.space.omega_plus, facts.space.omega_minus
    for label in facts.space.ground.labels:
        if (Atom(label) in omega_plus) != (Atom(label, False) in omega_minus):
            return CheckEntry("C1", False, _cx(label=label))
    return CheckEntry("C1", True)


@_suite("C2", "atom negation is an involution")
def _suite_c2(facts):
    for label in facts.space.ground.labels:
        for atom in (Atom(label), Atom(label, False)):
            if -(-atom) != atom:
                return CheckEntry("C2", False, _cx(atom=atom.text))
    return CheckEntry("C2", True)


@_suite("C3", "event negation is an involution")
def _suite_c3(facts):
    for event in facts.space.f:
        if -(-event) != event:
            return CheckEntry("C3", False, _cx(event=event))
    return CheckEntry("C3", True)


@_suite("C4", "positive and mirror families share only the empty event")
def _suite_c4(facts):
    shared = facts.space.fplus.events & facts.mirror.events
    if shared != {Event()}:
        culprit = sorted(shared - {Event()}, key=lambda e: e.text())
        if not culprit:
            # A positive family built unchecked without the empty event.
            return CheckEntry("C4", False, _cx(missing=Event()))
        return CheckEntry("C4", False, _cx(shared=culprit[0]))
    return CheckEntry("C4", True, note="only shared member is the empty event")


@_suite("C5", "P(A) <= 1 on the measurable family")
def _suite_c5(facts):
    family, one = facts.packed, facts.space._denominator
    for i, value in enumerate(family.numerators):
        if value > one:
            return CheckEntry("C5", False, _cx(event=family.events[i], value=facts.fraction(value)))
    return CheckEntry("C5", True)


@_suite("L1", "negating a full half-space yields the other")
def _suite_l1(facts):
    space = facts.space
    if -space.omega_plus != space.omega_minus:
        return CheckEntry("L1", False, _cx(side="positive"))
    if -space.omega_minus != space.omega_plus:
        return CheckEntry("L1", False, _cx(side="negative"))
    return CheckEntry("L1", True)


@_suite("L2", "no atom equals its own negation")
def _suite_l2(facts):
    for label in facts.space.ground.labels:
        for atom in (Atom(label), Atom(label, False)):
            if -atom == atom:
                return CheckEntry("L2", False, _cx(atom=atom.text))
    return CheckEntry("L2", True)


@_suite("L3", "X + (-X) annihilates to the empty event")
def _suite_l3(facts):
    empty = Event()
    for event in facts.space.f:
        if annihilating_union(event, -event) != empty:
            return CheckEntry("L3", False, _cx(event=event))
        if not annihilated_equals((event, -event), empty):
            return CheckEntry("L3", False, _cx(event=event, reason="plain union draft"))
    return CheckEntry("L3", True)


@_suite("L4", "annihilating union is idempotent, commutative, has unit {}, is plain union on one sign, and associates when no label spans all three operands")
def _suite_l4(facts):
    # Unrestricted associativity is inconsistent with idempotence plus
    # annihilation: ({a}+{a})+{-a} = {} but {a}+({a}+{-a}) = {a}.  The law
    # holds whenever no label occurs in all three operands, so that is the
    # checked statement; the first refutation of the unrestricted form is
    # reported in the note.
    family = facts.packed
    codec, masks, events = family.codec, family.masks, family.events
    union = codec.union
    for i, x in enumerate(masks):
        if union(x, x) != x:
            return CheckEntry("L4", False, _cx(law="idempotent", X=events[i]))
        if union(x, 0) != x:
            return CheckEntry("L4", False, _cx(law="unit", X=events[i]))
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            if union(x, y) != union(y, x):
                return CheckEntry("L4", False, _cx(law="commutative", X=events[i], Y=events[j]))
    positives = [i for i, x in enumerate(masks) if not x & codec.high]
    negatives = [i for i, x in enumerate(masks) if not x & codec.low]
    for pool in (positives, negatives):
        for i in pool:
            for j in pool:
                pooled = masks[i] | masks[j]
                plain = None if pooled & pooled >> codec.n & codec.low else pooled
                if union(masks[i], masks[j]) != plain:
                    return CheckEntry(
                        "L4", False, _cx(law="same-sign-union", X=events[i], Y=events[j])
                    )

    # Triples run on an N x N table of member ids: table[i][k] is the id of
    # masks[i] + masks[k], and ids are unique per mask.  A union outside the
    # family (possible on a space built unchecked from a non-algebra) gets an
    # id past N, and rows that meet one take the join() path instead of the
    # table.  For each pair (x, y), the rows (x + y) + z and x + (y + z) over
    # every z are built (the latter by reading row x through row y) and
    # compared whole, first at the z that share no label with both x and y
    # (the checked law), then everywhere (the refutation).  Only a pair that
    # fails is walked z by z, in canonical order.
    ids = dict(family.index)
    joined = list(masks)
    size = len(masks)

    def join(a, b):
        mask = union(joined[a], joined[b])
        found = ids.get(mask)
        if found is None:
            found = ids[mask] = len(joined)
            joined.append(mask)
        return found

    table = [tuple(join(i, k) for k in range(size)) for i in range(size)]
    through = [_picker(row) if all(k < size for k in row) else None for row in table]
    support = [codec.support(x) for x in masks]
    pickers = {}
    refutation = None
    for i, row_i in enumerate(table):
        for j, row_j in enumerate(table):
            xy = row_i[j]
            left = table[xy] if xy < size else tuple(join(xy, k) for k in range(size))
            if through[j] is not None:
                right = through[j](row_i)
            else:
                right = tuple(row_i[yz] if yz < size else join(i, yz) for yz in row_j)
            if left == right:
                continue
            shared = support[i] & support[j]
            pick = pickers.get(shared)
            if pick is None:
                pick = pickers[shared] = _picker([k for k in range(size) if not shared & support[k]])
            if pick(left) != pick(right):
                k = next(k for k in range(size) if left[k] != right[k] and not shared & support[k])
                return CheckEntry(
                    "L4", False, _cx(law="associative", X=events[i], Y=events[j], Z=events[k])
                )
            if refutation is None:
                refutation = (i, j, next(k for k in range(size) if left[k] != right[k]))
    note = "associativity checked over triples with no label in all three operands"
    if refutation is not None:
        rx, ry, rz = (events[i] for i in refutation)
        note += (
            "; unrestricted form refuted by "
            f"X={rx.text()} Y={ry.text()} Z={rz.text()}"
        )
    return CheckEntry("L4", True, note=note)


@_suite("L5", "intersection does not distribute over annihilating union (witness search)")
def _suite_l5(facts):
    family = facts.packed
    codec, masks = family.codec, family.masks
    union, decode = codec.union, codec.decode
    witness_a = None
    for x in masks:
        for y in masks:
            xy = union(x, y)
            for z in masks:
                lhs = z & xy
                rhs = union(z & x, z & y)
                if lhs != rhs:
                    witness_a = (x, y, z, lhs, rhs)
                    break
            if witness_a:
                break
        if witness_a:
            break
    witness_b = None
    for x in masks:
        for y in masks:
            for z in masks:
                if union(x, y & z) != union(x & y, x & z):
                    witness_b = (x, y, z)
                    break
            if witness_b:
                break
        if witness_b:
            break
    if witness_a is None or witness_b is None:
        return CheckEntry(
            "L5", False, _cx(reason="no non-distributivity witness found")
        )
    x, y, z, lhs, rhs = (decode(mask) for mask in witness_a)
    bx, by, bz = (decode(mask) for mask in witness_b)
    return CheckEntry(
        "L5",
        True,
        _cx(X=x, Y=y, Z=z, lhs=lhs, rhs=rhs),
        note=f"second form witness X={bx.text()} Y={by.text()} Z={bz.text()}",
    )


@_suite("L6", "intersection decomposes through signed parts")
def _suite_l6(facts):
    family = facts.packed
    codec, masks = family.codec, family.masks
    union, low, high = codec.union, codec.low, codec.high
    for i, a in enumerate(masks):
        ap, an = a & low, a & high
        for j, b in enumerate(masks):
            if a & b != union(ap & b, an & b):
                return CheckEntry("L6", False, _cx(A=family.events[i], B=family.events[j]))
    return CheckEntry("L6", True)


@_suite("L7", "difference decomposes through signed parts")
def _suite_l7(facts):
    family = facts.packed
    codec, masks = family.codec, family.masks
    union, low, high = codec.union, codec.low, codec.high
    for i, a in enumerate(masks):
        ap, an = a & low, a & high
        for j, b in enumerate(masks):
            if a & ~b != union(ap & ~b, an & ~b):
                return CheckEntry("L7", False, _cx(A=family.events[i], B=family.events[j]))
    return CheckEntry("L7", True)


@_suite("L8", "an event is the (annihilating or plain) union of its signed parts")
def _suite_l8(facts):
    for event in facts.space.f:
        pos, neg = event.split()
        if pos + neg != event or plain_union(pos, neg) != event:
            return CheckEntry("L8", False, _cx(event=event))
    return CheckEntry("L8", True)


@_suite("L9", "annihilating union decomposes through signed parts")
def _suite_l9(facts):
    family = facts.packed
    codec, masks = family.codec, family.masks
    union, low, high = codec.union, codec.low, codec.high
    for i, a in enumerate(masks):
        ap, an = a & low, a & high
        for j, b in enumerate(masks):
            if union(a, b) != union(union(ap, b & low), union(an, b & high)):
                return CheckEntry("L9", False, _cx(A=family.events[i], B=family.events[j]))
    return CheckEntry("L9", True)


@_suite("L10", "P({}) = 0")
def _suite_l10(facts):
    ep9 = facts.ep9
    return CheckEntry("L10", ep9.passed, ep9.counterexample[1:])


@_suite("L11", "positive and negative parts are disjoint")
def _suite_l11(facts):
    for event in facts.space.f:
        pos, neg = event.split()
        if pos & neg != Event():
            return CheckEntry("L11", False, _cx(event=event))
    return CheckEntry("L11", True)


@_suite("P1", "negation is a bijection; the half-spaces have equal size")
def _suite_p1(facts):
    omega_plus, omega_minus = facts.space.omega_plus, facts.space.omega_minus
    if len(omega_plus) != len(omega_minus):
        return CheckEntry("P1", False, _cx(positive=len(omega_plus), negative=len(omega_minus)))
    negated = {-atom for atom in omega_plus} | {-atom for atom in omega_minus}
    if len(negated) != len(omega_plus) + len(omega_minus):
        return CheckEntry("P1", False, _cx(reason="negation is not injective"))
    return CheckEntry("P1", True)


@_suite("P2", "the half-spaces are disjoint")
def _suite_p2(facts):
    if intersection(facts.space.omega_plus, facts.space.omega_minus) != Event():
        return CheckEntry("P2", False, _cx(reason="half-spaces intersect"))
    return CheckEntry("P2", True)


@_suite("P3", "positive and mirror families embed in the measurable family, parts stay inside")
def _suite_p3(facts):
    space = facts.space
    if not space.fplus.events <= space.f.events:
        return CheckEntry("P3", False, _cx(reason="positive family escapes the composition"))
    mirror = facts.mirror
    if not mirror.events <= space.f.events:
        return CheckEntry("P3", False, _cx(reason="mirror family escapes the composition"))
    for member in space.f:
        pos, neg = member.split()
        if pos not in space.fplus or neg not in mirror:
            return CheckEntry("P3", False, _cx(event=member, reason="part outside its family"))
    return CheckEntry("P3", True)


@_suite("P4", "an event is positive iff its negation is negative")
def _suite_p4(facts):
    omega_plus, omega_minus = facts.space.omega_plus, facts.space.omega_minus
    for event in facts.space.f:
        if event.issubset(omega_plus) != (-event).issubset(omega_minus):
            return CheckEntry("P4", False, _cx(event=event))
    return CheckEntry("P4", True)


@_suite("P5", "the mirror family is exactly the negative-supported measurable events")
def _suite_p5(facts):
    members, mirror = facts.space.f.events, facts.mirror.events
    negative_members = {event for event in members if event.is_negative}
    if negative_members != mirror:
        return CheckEntry("P5", False, _cx(reason="negative-supported members differ from mirror"))
    restricted = {event.negative_part for event in members}
    if restricted != mirror:
        return CheckEntry("P5", False, _cx(reason="negative restrictions differ from mirror"))
    return CheckEntry("P5", True)


def _weight_sum(space: ExtendedSpace, event: Event) -> Fraction:
    """``P(event)`` summed from the weights as ``Fraction``s, bypassing the
    space's integer memo; a pinned event gives its pin."""
    pinned = space.overrides.get(event)
    if pinned is not None:
        return pinned
    w = space.weights
    return sum((w[l] for l in event.positive_labels), Fraction(0)) - sum(
        (w[l] for l in event.negative_labels), Fraction(0)
    )


@_suite("P6", "P of an annihilating union equals P of the plain-union draft")
def _suite_p6(facts):
    # Compares the union path (the space's integer measure) with the draft
    # path, where the plain-union draft is normalized and summed from the
    # weights without the memo; on packed ints, or through the memo, both
    # paths would be one operation.  The sides compare by cross-multiplying.
    space = facts.space
    members, numerator, one = space.f.events, space._numerator, space._denominator
    for x in space.f:
        for y in space.f:
            joined = x + y
            if joined not in members:
                return CheckEntry("P6", False, _cx(X=x, Y=y, reason="union not measurable"))
            value = numerator(joined)
            draft_value = _weight_sum(space, normalize(tuple(x) + tuple(y)))
            if value * draft_value.denominator != draft_value.numerator * one:
                return CheckEntry("P6", False, _cx(X=x, Y=y, lhs=facts.fraction(value), rhs=draft_value))
    return CheckEntry("P6", True)


@_suite("P7", "intersecting with a negation commutes with negating")
def _suite_p7(facts):
    family = facts.packed
    negate, masks = family.codec.negate, family.masks
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            if x & negate(y) != negate(negate(x) & y):
                return CheckEntry("P7", False, _cx(X=family.events[i], Y=family.events[j]))
    return CheckEntry("P7", True)


@_suite("P8", "P(A) = -P(-A)")
def _suite_p8(facts):
    family = facts.packed
    negate, index, numerators = family.codec.negate, family.index, family.numerators
    events = family.events
    for i, mask in enumerate(family.masks):
        k = index.get(negate(mask))
        if k is None:
            return CheckEntry("P8", False, _cx(event=events[i], reason="negation not measurable"))
        value, mirrored = numerators[i], numerators[k]
        if value != -mirrored:
            lhs, rhs = facts.fraction(value), facts.fraction(-mirrored)
            return CheckEntry("P8", False, _cx(event=events[i], lhs=lhs, rhs=rhs))
    return CheckEntry("P8", True)


@_suite("P9", "P of everything plus anti-everything is 0")
def _suite_p9(facts):
    space = facts.space
    draft = tuple(space.omega_plus) + tuple(space.omega_minus)
    try:
        value = space.draft_probability(draft)
    except EventNotMeasurableError:
        return _not_measurable("P9", normalize(draft))
    if value != 0:
        return CheckEntry("P9", False, _cx(value=value))
    return CheckEntry("P9", True, note="everything plus anti-everything annihilates")


@_suite("P10", "P(A) = -P(complement(A))")
def _suite_p10(facts):
    family = facts.packed
    complement, index, numerators = family.codec.complement, family.index, family.numerators
    events = family.events
    for i, mask in enumerate(family.masks):
        k = index.get(complement(mask))
        if k is None:
            return CheckEntry("P10", False, _cx(event=events[i], reason="complement not measurable"))
        if numerators[i] != -numerators[k]:
            lhs, rhs = facts.fraction(numerators[i]), facts.fraction(-numerators[k])
            return CheckEntry(
                "P10", False, _cx(event=events[i], complement=events[k], lhs=lhs, rhs=rhs)
            )
    return CheckEntry("P10", True)


@_suite("P11a", "P is additive over singleton members")
def _suite_p11a(facts):
    family = facts.packed
    index, numerators = family.index, family.numerators
    # Single-bit mask -> numerator, for the singleton members.
    bits = (1 << b for b in range(2 * family.codec.n))
    singles = {bit: numerators[index[bit]] for bit in bits if bit in index}
    for i, mask in enumerate(family.masks):
        total, rest = 0, mask
        while rest:
            value = singles.get(rest & -rest)
            if value is None:
                break
            total += value
            rest &= rest - 1
        # Bits left in ``rest``: an atom's singleton is not a member, so the
        # identity does not apply.
        if not rest and total != numerators[i]:
            lhs, rhs = facts.fraction(total), facts.fraction(numerators[i])
            return CheckEntry("P11a", False, _cx(event=family.events[i], lhs=lhs, rhs=rhs))
    return CheckEntry("P11a", True)


@_suite("P11b", "-1 <= P(A) <= 1")
def _suite_p11b(facts):
    family, one = facts.packed, facts.space._denominator
    for i, value in enumerate(family.numerators):
        if not -one <= value <= one:
            return CheckEntry("P11b", False, _cx(event=family.events[i], value=facts.fraction(value)))
    return CheckEntry("P11b", True)


@_suite("T1", "the mirror of a set algebra (field) is a set algebra (field)")
def _suite_t1(facts):
    mirror = facts.mirror
    plus_algebra, _ = facts.algebra
    minus_algebra, _ = is_set_algebra(mirror)
    if plus_algebra and not minus_algebra:
        return CheckEntry("T1", False, _cx(reason="mirror lost the algebra structure"))
    plus_field = facts.field
    minus_field = is_set_field(mirror, facts.space.omega_minus)
    if plus_field and not minus_field:
        return CheckEntry("T1", False, _cx(reason="mirror lost the field structure"))
    return CheckEntry("T1", True, note=f"algebra={plus_algebra} field={plus_field}")


@_suite("T2", "the measurable family is closed under +, &, -, and complement")
def _suite_t2(facts):
    family = facts.packed
    codec, masks, events, members = family.codec, family.masks, family.events, family.index
    union = codec.union
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            if union(x, y) not in members:
                return CheckEntry("T2", False, _cx(op="+", X=events[i], Y=events[j]))
            if x & y not in members:
                return CheckEntry("T2", False, _cx(op="&", X=events[i], Y=events[j]))
            if x & ~y not in members:
                return CheckEntry("T2", False, _cx(op="-", X=events[i], Y=events[j]))
    if facts.field:
        for i, x in enumerate(masks):
            if codec.complement(x) not in members:
                return CheckEntry("T2", False, _cx(op="complement", X=events[i]))
    return CheckEntry("T2", True)


@_suite("T3", "P(A) = P(A+) + P(A-) = P(A+) - P(-(A-))")
def _suite_t3(facts):
    # On the packed family, the parts of mask ``m`` are ``m & low`` and
    # ``m & high``, and ``-(A-)`` is ``m >> n``.
    family = facts.packed
    codec, index, numerators, events = family.codec, family.index, family.numerators, family.events
    low, high, n = codec.low, codec.high, codec.n
    for i, mask in enumerate(family.masks):
        p, q, r = index.get(mask & low), index.get(mask & high), index.get(mask >> n)
        if p is None or q is None or r is None:
            return CheckEntry("T3", False, _cx(event=events[i], reason="part not measurable"))
        value = numerators[i]
        by_sum, by_diff = numerators[p] + numerators[q], numerators[p] - numerators[r]
        if value != by_sum or value != by_diff:
            by_sum, by_diff, value = (facts.fraction(v) for v in (by_sum, by_diff, value))
            return CheckEntry("T3", False, _cx(event=events[i], sum=by_sum, diff=by_diff, value=value))
    return CheckEntry("T3", True)


@_suite("T4a", "P(complement(A)) decomposes through part complements")
def _suite_t4a(facts):
    # On the packed family, the complements of the parts of mask ``m`` in
    # the positive universe are ``low & ~m`` and ``low & ~(m >> n)``.
    family = facts.packed
    codec, index, numerators, events = family.codec, family.index, family.numerators, family.events
    low, n = codec.low, codec.n
    for i, mask in enumerate(family.masks):
        c = index.get(codec.complement(mask))
        if c is None:
            return CheckEntry("T4a", False, _cx(event=events[i], reason="complement not measurable"))
        p, q = index.get(low & ~mask), index.get(low & ~(mask >> n))
        if p is None or q is None:
            return CheckEntry("T4a", False, _cx(event=events[i], reason="part complement not measurable"))
        value, parts = numerators[c], numerators[p] - numerators[q]
        if value != parts:
            lhs, rhs = facts.fraction(value), facts.fraction(parts)
            return CheckEntry("T4a", False, _cx(event=events[i], lhs=lhs, rhs=rhs))
    return CheckEntry("T4a", True)


@_suite("T4b", "P is monotone on the positive family and antimonotone on the mirror")
def _suite_t4b(facts):
    # Each member is tested as it is read, in loop order: on a measurable
    # family that lacks one, the entry names the first missing member read.
    space = facts.space
    members, numerator, fraction = space.f.events, space._numerator, facts.fraction
    sides = (
        ("positive", space.fplus, 1, ("A", "B", "pa", "pb")),
        ("negative", facts.mirror, -1, ("H", "K", "ph", "pk")),
    )
    for side, family, sign, keys in sides:
        ordered = tuple(family)
        for a in ordered:
            for b in ordered:
                if not a.issubset(b):
                    continue
                for event in (a, b):
                    if event not in members:
                        return _not_measurable("T4b", event)
                pa, pb = numerator(a), numerator(b)
                if sign * pa > sign * pb:
                    values = (a, b, fraction(pa), fraction(pb))
                    return CheckEntry("T4b", False, _cx(side=side, **dict(zip(keys, values))))
    return CheckEntry("T4b", True)


@_suite("T5", "continuity on the measurable family (finitely vacuous)")
def _suite_t5(facts):
    # T5 shows the value EP9 reports and the event EP10 reports.
    note = "finite spaces: decreasing chains stabilize, continuity reduces to P({})=0"
    if not facts.ep9.passed:
        return CheckEntry("T5", False, facts.ep9.counterexample[1:], note=note)
    if not facts.ep10.passed:
        return CheckEntry("T5", False, facts.ep10.counterexample[:1], note=note)
    return CheckEntry("T5", True, note=note)


@_suite("T6", "positive additivity plus decomposition imply full additivity")
def _suite_t6(facts):
    ep5p, ep10, ep5 = facts.ep5p, facts.ep10, facts.ep5
    status = (
        f"EP5p={'PASS' if ep5p.passed else 'FAIL'} "
        f"EP10={'PASS' if ep10.passed else 'FAIL'} "
        f"EP5={'PASS' if ep5.passed else 'FAIL'}"
    )
    implication = not (ep5p.passed and ep10.passed and not ep5.passed)
    if not implication:
        return CheckEntry("T6", False, ep5.counterexample, note=status)
    return CheckEntry("T6", True, note=status)


@_suite("T7", "the restriction to the positive family satisfies K1-K3")
def _suite_t7(facts):
    for entry in _kolmogorov(facts):
        if not entry.passed:
            return CheckEntry("T7", False, entry.counterexample, note=f"{entry.check_id} failed")
    return CheckEntry("T7", True, note="restriction satisfies K1,K2,K3")


SUITE_CATALOG = tuple((check_id, description) for check_id, (description, _) in _SUITE.items())


def suite_ids() -> tuple:
    """All suite check ids in report order."""
    return tuple(_SUITE)


def run_theorem_suite(space: ExtendedSpace, ids: "Iterable[str] | None" = None) -> ValidationReport:
    """Run the catalogued identity checks (all of them, or a chosen subset).

    A chosen subset runs in report order, each id once however often it is
    named.

    Exhaustive over the space's measurable family of N members: L4
    enumerates all N**3 member triples, the pair checks all N**2 pairs.  The
    triple and most pair loops run on the packed family of the call's
    :class:`_Facts`, which builds only what the selected checks read.
    Every check compares integer numerators.  P6 normalizes and sums a draft
    per pair and is the slowest check from four atoms on.  Measured on a
    2-core x86 VM with CPython 3.11, the full suite on an n-atom powerset
    takes about 0.3 s at n = 4 (81 members), 3 s at n = 5 and 35 s at
    n = 6.
    """
    if ids is None:
        selected = list(_SUITE)
    else:
        selected = list(dict.fromkeys(ids))
        unknown = [check_id for check_id in selected if check_id not in _SUITE]
        if unknown:
            raise ValueError(f"unknown suite id(s): {', '.join(unknown)}")
        selected.sort(key=list(_SUITE).index)
    facts = _Facts(space)
    return ValidationReport(tuple(_SUITE[check_id][1](facts) for check_id in selected))
