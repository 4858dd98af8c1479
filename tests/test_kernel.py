"""Differential tests: the packed label-mask kernel against a frozenset reference.

The reference functions below are the plain frozenset forms of the split
enumeration, the additivity check, the ring predicate and the suite's pair
and triple loops (L4, L5, L6, L7, L9, P7, T2).  The library runs the same
quantifiers on packed ints (:class:`epspace.events.LabelMask`); every
verdict, counterexample and note must agree byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from epspace import (
    Event,
    Family,
    FuzzConfig,
    check_kolmogorov_restriction,
    generate_algebra,
    is_set_field,
    is_set_ring,
    make_space,
    mirror_family,
    random_space,
    run_theorem_suite,
    validate_axioms,
)
from epspace.checks import CheckEntry, _cx
from epspace.events import LabelMask, plain_symmetric_difference, plain_union

from conftest import events

# --- frozenset reference ----------------------------------------------------


def reference_pmap(space) -> dict:
    """The ``Fraction`` probability of every member of the measurable family."""
    return {event: space.probability(event) for event in space.f}


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


def reference_l4(space, pmap):
    events = tuple(space.f)
    empty = Event()
    for x in events:
        if x + x != x:
            return CheckEntry("L4", False, _cx(law="idempotent", X=x))
        if x + empty != x:
            return CheckEntry("L4", False, _cx(law="unit", X=x))
    for x in events:
        for y in events:
            if x + y != y + x:
                return CheckEntry("L4", False, _cx(law="commutative", X=x, Y=y))
    positives = [e for e in events if e.is_positive]
    negatives = [e for e in events if e.is_negative]
    for pool in (positives, negatives):
        for x in pool:
            for y in pool:
                if x + y != plain_union(x, y):
                    return CheckEntry("L4", False, _cx(law="same-sign-union", X=x, Y=y))
    support = {e: e.positive_labels | e.negative_labels for e in events}
    refutation = None
    for x in events:
        for y in events:
            xy = x + y
            shared_xy = support[x] & support[y]
            for z in events:
                left = xy + z
                right = x + (y + z)
                if shared_xy and shared_xy & support[z]:
                    if refutation is None and left != right:
                        refutation = (x, y, z)
                    continue
                if left != right:
                    return CheckEntry("L4", False, _cx(law="associative", X=x, Y=y, Z=z))
    note = "associativity checked over triples with no label in all three operands"
    if refutation is not None:
        rx, ry, rz = refutation
        note += (
            "; unrestricted form refuted by "
            f"X={rx.text()} Y={ry.text()} Z={rz.text()}"
        )
    return CheckEntry("L4", True, note=note)


def reference_l5(space, pmap):
    events = tuple(space.f)
    witness_a = None
    for x in events:
        for y in events:
            xy = x + y
            for z in events:
                lhs = z & xy
                rhs = (z & x) + (z & y)
                if lhs != rhs:
                    witness_a = (x, y, z, lhs, rhs)
                    break
            if witness_a:
                break
        if witness_a:
            break
    witness_b = None
    for x in events:
        for y in events:
            for z in events:
                if x + (y & z) != (x & y) + (x & z):
                    witness_b = (x, y, z)
                    break
            if witness_b:
                break
        if witness_b:
            break
    if witness_a is None or witness_b is None:
        return CheckEntry("L5", False, _cx(reason="no non-distributivity witness found"))
    x, y, z, lhs, rhs = witness_a
    bx, by, bz = witness_b
    return CheckEntry(
        "L5",
        True,
        _cx(X=x, Y=y, Z=z, lhs=lhs, rhs=rhs),
        note=f"second form witness X={bx.text()} Y={by.text()} Z={bz.text()}",
    )


def reference_l6(space, pmap):
    for a in space.f:
        ap, an = a.split()
        for b in space.f:
            bp, bn = b.split()
            if (a & b) != (ap & bp) + (an & bn):
                return CheckEntry("L6", False, _cx(A=a, B=b))
    return CheckEntry("L6", True)


def reference_l7(space, pmap):
    for a in space.f:
        ap, an = a.split()
        for b in space.f:
            bp, bn = b.split()
            if (a - b) != (ap - bp) + (an - bn):
                return CheckEntry("L7", False, _cx(A=a, B=b))
    return CheckEntry("L7", True)


def reference_l9(space, pmap):
    for a in space.f:
        ap, an = a.split()
        for b in space.f:
            bp, bn = b.split()
            if a + b != (ap + bp) + (an + bn):
                return CheckEntry("L9", False, _cx(A=a, B=b))
    return CheckEntry("L9", True)


def reference_p7(space, pmap):
    for x in space.f:
        for y in space.f:
            if (x & -y) != -((-x) & y):
                return CheckEntry("P7", False, _cx(X=x, Y=y))
    return CheckEntry("P7", True)


def reference_t2(space, pmap):
    members = space.f.events
    for x in space.f:
        for y in space.f:
            if x + y not in members:
                return CheckEntry("T2", False, _cx(op="+", X=x, Y=y))
            if x & y not in members:
                return CheckEntry("T2", False, _cx(op="&", X=x, Y=y))
            if x - y not in members:
                return CheckEntry("T2", False, _cx(op="-", X=x, Y=y))
    if is_set_field(space.fplus, space.omega_plus):
        for x in space.f:
            if space.complement(x) not in members:
                return CheckEntry("T2", False, _cx(op="complement", X=x))
    return CheckEntry("T2", True)


REFERENCE_SUITE = {
    "L4": reference_l4,
    "L5": reference_l5,
    "L6": reference_l6,
    "L7": reference_l7,
    "L9": reference_l9,
    "P7": reference_p7,
    "T2": reference_t2,
}


def assert_suite_matches_reference(space):
    pmap = reference_pmap(space)
    report = run_theorem_suite(space, REFERENCE_SUITE)
    for check_id, reference in REFERENCE_SUITE.items():
        assert report.entry(check_id) == reference(space, pmap), check_id


# --- strategies --------------------------------------------------------------


@st.composite
def damaged_spaces(draw, max_atoms=5):
    """A random space of 1 to ``max_atoms`` atoms (powerset or generated field)
    with 0-2 pins."""
    atoms = draw(st.integers(1, max_atoms))
    algebra = draw(st.sampled_from(("powerset", "generated")))
    seed = draw(st.integers(0, 2 ** 32))
    space = random_space(FuzzConfig(atoms=atoms, trials=1, seed=seed), 0, algebra=algebra)
    ordered = tuple(space.f)
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
def unchecked_spaces(draw):
    """A space built unchecked from any positive family over two or three
    labels: unions, intersections and differences can leave its family."""
    labels = draw(st.sampled_from(("ab", "abc")))
    members = draw(st.sets(st.sampled_from(subsets(labels)), min_size=1))
    weights = {label: Fraction(1, len(labels)) for label in labels}
    return make_space(tuple(labels), weights, members, check=False)


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
    pmap = reference_pmap(space)
    report = validate_axioms(space)
    expected_ep5 = reference_additivity("EP5", space.f, tuple(space.f), pmap)
    expected_ep5p = reference_additivity("EP5p", space.fplus, tuple(space.fplus), pmap)
    expected_k3 = reference_additivity("K3", space.fplus, tuple(space.fplus), pmap)
    assert report.entry("EP5") == expected_ep5
    assert report.entry("EP5p") == expected_ep5p
    k3 = check_kolmogorov_restriction(space).entry("K3")
    assert (k3.passed, k3.counterexample) == (expected_k3.passed, expected_k3.counterexample)


def test_additivity_least_counterexample_on_late_override():
    space = random_space(FuzzConfig(atoms=4, trials=1, seed=3), 0, algebra="powerset")
    last = tuple(space.f)[-1]
    damaged = space.with_override(last, 0)
    pmap = reference_pmap(damaged)
    expected = reference_additivity("EP5", damaged.f, tuple(damaged.f), pmap)
    assert not expected.passed
    assert validate_axioms(damaged).entry("EP5") == expected


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_suite_loops_match_reference_on_powersets(atoms):
    labels = tuple("abcd"[:atoms])
    assert_suite_matches_reference(make_space(labels, {label: Fraction(1, atoms) for label in labels}))


@pytest.mark.parametrize(
    "labels, generators",
    [("abcdef", ["a,b", "c,d"]), ("abcdefgh", ["a,b,c", "d,e"]), ("abcde", ["a,b,c,d,e"])],
)
def test_suite_loops_match_reference_on_generated_fields(labels, generators):
    universe = Event(",".join(labels))
    fplus = generate_algebra([Event(g) for g in generators], universe)
    weights = {label: Fraction(1, len(labels)) for label in labels}
    assert_suite_matches_reference(make_space(tuple(labels), weights, fplus))


@settings(max_examples=40)
@given(damaged_spaces(max_atoms=3))
def test_suite_loops_match_reference_on_damaged_spaces(space):
    assert_suite_matches_reference(space)


@settings(max_examples=40)
@given(unchecked_spaces())
def test_suite_loops_match_reference_on_unchecked_families(space):
    assert_suite_matches_reference(space)


def test_suite_loops_match_reference_when_unions_leave_the_family():
    # Built unchecked from a positive family that is not an algebra: a + (-a,-b)
    # is -b, which is not a member, so the union table meets ids past the family.
    space = make_space(
        ("a", "b"), {"a": "1/2", "b": "1/2"}, [Event(), Event("a"), Event("a,b")], check=False
    )
    assert Event("a") + Event("-a,-b") not in space.f
    assert_suite_matches_reference(space)
    report = run_theorem_suite(space, ["L4", "L5", "P6", "T2"])
    assert [e.check_id for e in report.failures()] == ["P6", "T2"]


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


def near_rings(labels, generators):
    """The algebra the generators span over ``labels``, then each family one
    member short of it and each one subset past it."""
    pool = subsets(labels)
    algebra = generate_algebra([Event(g) for g in generators], pool[-1])
    yield algebra
    for member in algebra.events:
        yield Family(algebra.events - {member})
    for extra in pool:
        if extra not in algebra.events:
            yield Family(algebra.events | {extra})


@pytest.mark.parametrize(
    "labels, generators",
    [
        ("abcd", []),
        ("abcd", ["a", "b", "c"]),
        ("abcd", ["a,b", "b,c"]),
        ("abcde", ["a,b", "c,d"]),
        ("abcde", ["a,b,c", "c,d", "e"]),
        ("abcde", ["a", "b", "c", "d"]),
    ],
)
def test_is_set_ring_matches_reference_on_rings_and_near_rings(labels, generators):
    for family in near_rings(labels, generators):
        for candidate in (family, mirror_family(family)):
            assert is_set_ring(candidate) == reference_is_set_ring(candidate), candidate


@given(st.lists(events, max_size=6), st.permutations("abcd"))
def test_label_mask_round_trips(sample, order):
    codec = LabelMask(order)
    for event in sample:
        mask = codec.encode(event)
        assert codec.decode(mask) == event
        assert mask & (mask >> codec.n) == 0
        assert bin(mask).count("1") == len(event)


@pytest.mark.parametrize("labels, generators", [("abcd", None), ("abcdef", ["a,b", "c,d"])])
def test_label_mask_complement_matches_space_complement(labels, generators):
    universe = Event(",".join(labels))
    fplus = None if generators is None else generate_algebra([Event(g) for g in generators], universe)
    space = make_space(tuple(labels), {label: Fraction(1, len(labels)) for label in labels}, fplus)
    codec = LabelMask(sorted(labels))
    for event in space.f:
        assert codec.decode(codec.complement(codec.encode(event))) == space.complement(event)
