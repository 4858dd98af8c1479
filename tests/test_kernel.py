"""Differential tests: the packed label-mask kernel against a frozenset reference.

The reference functions below are the plain frozenset forms of the split
enumeration, the additivity check and the ring predicate.  The library runs
the same quantifiers on packed ints (:class:`epspace.events.LabelMask`); every
verdict and every counterexample must agree byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
from hypothesis import given, settings

from epspace import (
    Event,
    Family,
    FuzzConfig,
    check_kolmogorov_restriction,
    generate_algebra,
    is_set_ring,
    mirror_family,
    random_space,
    validate_axioms,
)
from epspace.checks import CheckEntry, _cx, _pmap
from epspace.events import LabelMask, plain_symmetric_difference

from conftest import events

# --- frozenset reference ----------------------------------------------------


def reference_splits(event: Event):
    """All ordered two-part partitions ``(A, B)`` of an event's atoms."""
    atoms = tuple(event)
    for mask in range(1 << len(atoms)):
        a_pos, a_neg, b_pos, b_neg = [], [], [], []
        for i, atom in enumerate(atoms):
            if mask >> i & 1:
                (a_pos if atom.positive else a_neg).append(atom.label)
            else:
                (b_pos if atom.positive else b_neg).append(atom.label)
        yield (
            Event._raw(frozenset(a_pos), frozenset(a_neg)),
            Event._raw(frozenset(b_pos), frozenset(b_neg)),
        )


def reference_additivity(check_id: str, members: Family, ordered, pmap: dict) -> CheckEntry:
    universe = members.events
    for union_event in ordered:
        target = pmap[union_event]
        for a, b in reference_splits(union_event):
            if a in universe and b in universe:
                total = pmap[a] + pmap[b]
                if total != target:
                    return CheckEntry(
                        check_id,
                        False,
                        _cx(A=a, B=b, union=union_event, lhs=total, rhs=target),
                    )
    return CheckEntry(check_id, True)


def reference_is_set_ring(family: Family) -> bool:
    members = family.events
    for a in members:
        for b in members:
            if (a & b) not in members:
                return False
            delta = plain_symmetric_difference(a, b)
            if delta is None or delta not in members:
                return False
    return True


# --- strategies --------------------------------------------------------------


@st.composite
def damaged_spaces(draw):
    """A random 1-5 atom space (powerset or generated field) with 0-2 pins."""
    atoms = draw(st.integers(1, 5))
    algebra = draw(st.sampled_from(("powerset", "generated")))
    seed = draw(st.integers(0, 2 ** 32))
    space = random_space(FuzzConfig(atoms=atoms, trials=1, seed=seed), 0, algebra=algebra)
    ordered = space.events_in_order
    for _ in range(draw(st.integers(0, 2))):
        event = ordered[draw(st.integers(0, len(ordered) - 1))]
        value = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        space = space.with_override(event, value)
    return space


def subsets(labels):
    return [Event(",".join(c)) if c else Event()
            for r in range(len(labels) + 1) for c in combinations(labels, r)]


def xor_span(gens) -> Family:
    """Closure under symmetric difference alone: often not intersection-closed."""
    span = {Event()}
    for g in gens:
        span |= {plain_symmetric_difference(member, g) for member in span}
    return Family(frozenset(span))


@st.composite
def homogeneous_families(draw):
    """Positive or mirrored families over 1-4 labels: arbitrary, generated,
    generated with members dropped, or closed under symmetric difference only
    (so closed and open ones both occur)."""
    labels = draw(st.sampled_from(("a", "ab", "ba", "abc", "bdc", "abcd")))
    pool = subsets(labels)
    shape = draw(st.sampled_from(("arbitrary", "generated", "dropped", "xor-span")))
    if shape == "arbitrary":
        family = Family(frozenset(draw(st.sets(st.sampled_from(pool), max_size=8))))
    elif shape == "xor-span":
        family = xor_span(draw(st.lists(st.sampled_from(pool[1:]), min_size=2, max_size=3)))
    else:
        universe = Event(",".join(labels))
        gens = draw(st.lists(st.sampled_from(pool), max_size=3))
        family = generate_algebra(gens, universe)
        if shape == "dropped":
            ordered = tuple(family)
            dropped = draw(st.sets(st.integers(0, len(ordered) - 1), min_size=1, max_size=2))
            family = Family(frozenset(e for i, e in enumerate(ordered) if i not in dropped))
    if draw(st.booleans()):
        family = mirror_family(family)
    return family


# --- differential tests ---------------------------------------------------------


@settings(max_examples=60)
@given(damaged_spaces())
def test_additivity_entries_match_reference(space):
    pmap = _pmap(space)
    report = validate_axioms(space)
    expected_ep5 = reference_additivity("EP5", space.f, space.events_in_order, pmap)
    expected_ep5p = reference_additivity("EP5p", space.fplus, tuple(space.fplus), pmap)
    expected_k3 = reference_additivity("K3", space.fplus, tuple(space.fplus), pmap)
    assert report.entry("EP5") == expected_ep5
    assert report.entry("EP5p") == expected_ep5p
    k3 = check_kolmogorov_restriction(space).entry("K3")
    assert (k3.passed, k3.counterexample) == (expected_k3.passed, expected_k3.counterexample)


def test_additivity_least_counterexample_on_late_override():
    space = random_space(FuzzConfig(atoms=4, trials=1, seed=3), 0, algebra="powerset")
    last = space.events_in_order[-1]
    damaged = space.with_override(last, 0)
    pmap = _pmap(damaged)
    expected = reference_additivity("EP5", damaged.f, damaged.events_in_order, pmap)
    assert not expected.passed
    assert validate_axioms(damaged).entry("EP5") == expected


@settings(max_examples=300)
@given(homogeneous_families())
def test_is_set_ring_matches_reference(family):
    assert is_set_ring(family) == reference_is_set_ring(family)


def test_is_set_ring_matches_reference_on_every_three_label_family():
    pool = subsets("abc")
    for r in range(len(pool) + 1):
        for chosen in combinations(pool, r):
            family = Family(frozenset(chosen))
            assert is_set_ring(family) == reference_is_set_ring(family)
            mirrored = mirror_family(family)
            assert is_set_ring(mirrored) == reference_is_set_ring(mirrored)


@given(st.lists(events, max_size=6), st.permutations("abcd"))
def test_label_mask_round_trips(sample, order):
    codec = LabelMask(order)
    for event in sample:
        mask = codec.encode(event)
        assert codec.decode(mask) == event
        assert mask & (mask >> codec.n) == 0
        assert bin(mask).count("1") == len(event)
