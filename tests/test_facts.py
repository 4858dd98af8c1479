"""Differential tests: checks that read the per-report facts against their
stand-alone forms.

K1-K3 are the EP8/EP3/EP5p entries renamed, T5-T7 and L10 read the axiom
entries, EP2, P3, C4, P5, T1, T2 and T4b read the shared mirror family and
algebra/field verdicts, and EP4 compares one recomposition without walking
the parts.  The reference functions below compute
each of them on their own, from the space and its probability map, as the
checks did before they shared anything; every entry must agree byte for
byte.  The spaces are chosen to make them fail: unchecked spaces with
negative weights, bad normalization or a non-algebra positive family,
seeded spaces with 0-2 pins, and generated fields.

The axioms EP3, EP5, EP5p, EP6, EP7, EP8, EP9 and EP10 compare the space's
integer numerators and share one normalization pass between EP6 and EP7;
their references below read the ``Fraction`` probability map and evaluate
every annihilation draft, exhaustive and sampled, also under a
``normalize`` that leaves one label's pair standing.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from epspace import (
    Atom,
    Event,
    ExtendedSpace,
    Family,
    annihilated_equals,
    compose_family,
    check_kolmogorov_restriction,
    generate_algebra,
    is_set_algebra,
    is_set_field,
    make_space,
    mirror_family,
    run_theorem_suite,
    suite_ids,
    validate_axioms,
)
from epspace import checks, measure
from epspace.checks import CheckEntry, ValidationReport, _cx, _Facts, _PackedFamily
from epspace.errors import EventNotMeasurableError

from test_checks import UNMEASURABLE_SPACES
from test_kernel import damaged_spaces, reference_additivity, reference_t2, subsets

# --- stand-alone reference ----------------------------------------------------


def reference_pmap(space):
    return {event: space.probability(event) for event in space.f}


def reference_ep10(space, pmap):
    for event in space.f:
        pos, neg = event.split()
        total = pmap[pos] + pmap[neg]
        if total != pmap[event]:
            return CheckEntry("EP10", False, _cx(event=event, lhs=total, rhs=pmap[event]))
    return CheckEntry("EP10", True)


def reference_kolmogorov(space, pmap):
    k1 = CheckEntry("K1", True)
    for member in space.fplus:
        if pmap[member] < 0:
            k1 = CheckEntry("K1", False, _cx(event=member, value=pmap[member]))
            break
    value = pmap[space.omega_plus]
    if value != 1:
        k2 = CheckEntry("K2", False, _cx(event=space.omega_plus, value=value, expected=1))
    else:
        k2 = CheckEntry("K2", True)
    k3 = reference_additivity("K3", space.fplus, tuple(space.fplus), pmap)
    return ValidationReport((k1, k2, k3))


def reference_ep2(space, pmap):
    ok, unit = is_set_algebra(space.fplus)
    if not ok:
        return CheckEntry("EP2", False, _cx(reason="positive family is not a set algebra"))
    if space.omega_plus not in space.fplus:
        return CheckEntry(
            "EP2", False, _cx(reason="full positive event missing", expected=space.omega_plus)
        )
    field = is_set_field(space.fplus, space.omega_plus)
    return CheckEntry("EP2", True, note=f"unit={unit.text()} field={field}")


def reference_ep4(space, pmap):
    recomposed = compose_family(space.fplus)
    if recomposed.events != space.f.events:
        extra = sorted(space.f.events ^ recomposed.events, key=lambda e: e.text())
        return CheckEntry(
            "EP4", False, _cx(reason="family is not the disjoint composition", near=extra[0])
        )
    mirror = mirror_family(space.fplus)
    for member in space.f:
        pos, neg = member.split()
        if pos not in space.fplus or neg not in mirror:
            return CheckEntry("EP4", False, _cx(event=member, reason="part outside its family"))
        if not pos.isdisjoint(-neg):
            return CheckEntry("EP4", False, _cx(event=member, reason="sign clash between parts"))
    return CheckEntry("EP4", True)


def reference_c4(space, pmap):
    mirror = mirror_family(space.fplus)
    shared = space.fplus.events & mirror.events
    if shared != {Event()}:
        culprit = sorted(shared - {Event()}, key=lambda e: e.text())
        if not culprit:
            return CheckEntry("C4", False, _cx(missing=Event()))
        return CheckEntry("C4", False, _cx(shared=culprit[0]))
    return CheckEntry("C4", True, note="only shared member is the empty event")


def reference_l10(space, pmap):
    value = pmap[Event()]
    if value != 0:
        return CheckEntry("L10", False, _cx(value=value))
    return CheckEntry("L10", True)


def reference_p3(space, pmap):
    mirror = mirror_family(space.fplus)
    if not space.fplus.events <= space.f.events:
        return CheckEntry("P3", False, _cx(reason="positive family escapes the composition"))
    if not mirror.events <= space.f.events:
        return CheckEntry("P3", False, _cx(reason="mirror family escapes the composition"))
    for event in space.f:
        pos, neg = event.split()
        if pos not in space.fplus or neg not in mirror:
            return CheckEntry("P3", False, _cx(event=event, reason="part outside its family"))
    return CheckEntry("P3", True)


def reference_p5(space, pmap):
    mirror = mirror_family(space.fplus)
    negative_members = {event for event in space.f.events if event.is_negative}
    if negative_members != mirror.events:
        return CheckEntry("P5", False, _cx(reason="negative-supported members differ from mirror"))
    restricted = {event.negative_part for event in space.f.events}
    if restricted != mirror.events:
        return CheckEntry("P5", False, _cx(reason="negative restrictions differ from mirror"))
    return CheckEntry("P5", True)


def reference_t1(space, pmap):
    mirror = mirror_family(space.fplus)
    plus_algebra, _ = is_set_algebra(space.fplus)
    minus_algebra, _ = is_set_algebra(mirror)
    if plus_algebra and not minus_algebra:
        return CheckEntry("T1", False, _cx(reason="mirror lost the algebra structure"))
    plus_field = is_set_field(space.fplus, space.omega_plus)
    minus_field = is_set_field(mirror, space.omega_minus)
    if plus_field and not minus_field:
        return CheckEntry("T1", False, _cx(reason="mirror lost the field structure"))
    return CheckEntry("T1", True, note=f"algebra={plus_algebra} field={plus_field}")


def reference_c5(space, pmap):
    for event in space.f:
        if pmap[event] > 1:
            return CheckEntry("C5", False, _cx(event=event, value=pmap[event]))
    return CheckEntry("C5", True)


def reference_l3(space, pmap):
    empty = Event()
    for event in space.f:
        if event + -event != empty:
            return CheckEntry("L3", False, _cx(event=event))
        if not annihilated_equals(tuple(event) + tuple(-event), empty):
            return CheckEntry("L3", False, _cx(event=event, reason="plain union draft"))
    return CheckEntry("L3", True)


def reference_p8(space, pmap):
    for event in space.f:
        if pmap[event] != -pmap[-event]:
            return CheckEntry("P8", False, _cx(event=event, lhs=pmap[event], rhs=-pmap[-event]))
    return CheckEntry("P8", True)


def reference_p10(space, pmap):
    for event in space.f:
        comp = space.complement(event)
        if comp not in pmap:
            return CheckEntry("P10", False, _cx(event=event, reason="complement not measurable"))
        if pmap[event] != -pmap[comp]:
            return CheckEntry(
                "P10", False, _cx(event=event, complement=comp, lhs=pmap[event], rhs=-pmap[comp])
            )
    return CheckEntry("P10", True)


def reference_p11a(space, pmap):
    for event in space.f:
        singles = [Event([atom]) for atom in event]
        if all(single in pmap for single in singles):
            total = sum((pmap[s] for s in singles), Fraction(0))
            if total != pmap[event]:
                return CheckEntry("P11a", False, _cx(event=event, lhs=total, rhs=pmap[event]))
    return CheckEntry("P11a", True)


def reference_p11b(space, pmap):
    for event in space.f:
        if not -1 <= pmap[event] <= 1:
            return CheckEntry("P11b", False, _cx(event=event, value=pmap[event]))
    return CheckEntry("P11b", True)


def reference_t4b(space, pmap):
    positives = tuple(space.fplus)
    for a in positives:
        for b in positives:
            if a.issubset(b) and pmap[a] > pmap[b]:
                return CheckEntry("T4b", False, _cx(side="positive", A=a, B=b, pa=pmap[a], pb=pmap[b]))
    negatives = tuple(mirror_family(space.fplus))
    for h in negatives:
        for k in negatives:
            if h.issubset(k) and pmap[h] < pmap[k]:
                return CheckEntry("T4b", False, _cx(side="negative", H=h, K=k, ph=pmap[h], pk=pmap[k]))
    return CheckEntry("T4b", True)


def reference_t5(space, pmap):
    note = "finite spaces: decreasing chains stabilize, continuity reduces to P({})=0"
    if pmap[Event()] != 0:
        return CheckEntry("T5", False, _cx(value=pmap[Event()]), note=note)
    for event in space.f:
        pos, neg = event.split()
        if pmap[event] != pmap[pos] + pmap[neg]:
            return CheckEntry("T5", False, _cx(event=event), note=note)
    return CheckEntry("T5", True, note=note)


def reference_t6(space, pmap):
    ep5p = reference_additivity("EP5p", space.fplus, tuple(space.fplus), pmap)
    ep10 = reference_ep10(space, pmap)
    ep5 = reference_additivity("EP5", space.f, tuple(space.f), pmap)
    status = (
        f"EP5p={'PASS' if ep5p.passed else 'FAIL'} "
        f"EP10={'PASS' if ep10.passed else 'FAIL'} "
        f"EP5={'PASS' if ep5.passed else 'FAIL'}"
    )
    implication = not (ep5p.passed and ep10.passed and not ep5.passed)
    if not implication:
        return CheckEntry("T6", False, ep5.counterexample, note=status)
    return CheckEntry("T6", True, note=status)


def reference_t7(space, pmap):
    for entry in reference_kolmogorov(space, pmap):
        if not entry.passed:
            return CheckEntry("T7", False, entry.counterexample, note=f"{entry.check_id} failed")
    return CheckEntry("T7", True, note="restriction satisfies K1,K2,K3")


REFERENCE_AXIOMS = {"EP2": reference_ep2, "EP4": reference_ep4}


# --- axioms on the probability map ----------------------------------------------
#
# Each takes ``(facts, pmap)``: ``facts`` only supplies the probe streams
# (exhaustive, or sampled with its trials and seed), ``pmap`` every value.


def reference_packed_additivity(check_id, family, pmap):
    """The packed split loop with its counterexample read from ``pmap``."""
    codec = family.codec
    n = codec.n
    numerator = dict(zip(family.masks, family.numerators))
    label_bits = [(1 << i) | (1 << (n + i)) for i in range(n)]
    for union_mask, union_event in zip(family.masks, family.events):
        target = numerator[union_mask]
        subs = [0]
        for both in label_bits:
            bit = union_mask & both
            if bit:
                subs += [sub | bit for sub in subs]
        for a_mask in subs:
            x = numerator.get(a_mask)
            if x is None:
                continue
            y = numerator.get(union_mask ^ a_mask)
            if y is not None and x + y != target:
                a, b = codec.decode(a_mask), codec.decode(union_mask ^ a_mask)
                return CheckEntry(
                    check_id,
                    False,
                    _cx(A=a, B=b, union=union_event, lhs=pmap[a] + pmap[b], rhs=pmap[union_event]),
                )
    return CheckEntry(check_id, True)


def reference_axiom_ep3(facts, pmap):
    omega_plus = facts.space.omega_plus
    value = pmap.get(omega_plus)
    if value is None:
        return checks._not_measurable("EP3", omega_plus)
    if value != 1:
        return CheckEntry("EP3", False, _cx(event=omega_plus, value=value, expected=1))
    return CheckEntry("EP3", True)


def reference_axiom_ep5(facts, pmap):
    space = facts.space
    if facts.trials is None:
        return reference_packed_additivity("EP5", _PackedFamily(space, space.f), pmap)
    note = facts.sampled_note
    universe = space.f.events
    for rng, union_event in checks._sampled_members(facts, 0):
        atoms = tuple(union_event)
        mask = rng.getrandbits(len(atoms)) if atoms else 0
        a = Event([atom for i, atom in enumerate(atoms) if mask >> i & 1])
        b = Event([atom for i, atom in enumerate(atoms) if not mask >> i & 1])
        if a in universe and b in universe:
            total = pmap[a] + pmap[b]
            if total != pmap[union_event]:
                return CheckEntry(
                    "EP5",
                    False,
                    _cx(A=a, B=b, union=union_event, lhs=total, rhs=pmap[union_event]),
                    note=note,
                )
    return CheckEntry("EP5", True, note=note)


def reference_axiom_ep5p(facts, pmap):
    space = facts.space
    for member in space.fplus:
        if member not in space.f:
            return checks._not_measurable("EP5p", member)
    return reference_packed_additivity("EP5p", _PackedFamily(space, space.fplus), pmap)


def reference_axiom_ep6(facts, pmap):
    note = facts.sampled_note
    for event, label, draft in checks._annihilation_insertions(facts):
        if checks.normalize(draft) != event:
            return CheckEntry("EP6", False, _cx(event=event, label=label), note=note)
    return CheckEntry("EP6", True, note=note)


def reference_axiom_ep7(facts, pmap):
    space, note = facts.space, facts.sampled_note
    for event, label, draft in checks._annihilation_insertions(facts):
        try:
            value = space.draft_probability(draft)
        except EventNotMeasurableError:
            # Raised out of validate_axioms before EP7 reported it.
            normal = checks.normalize(draft)
            return CheckEntry(
                "EP7",
                False,
                _cx(event=event, label=label, normalized=normal, reason="not measurable"),
                note=note,
            )
        if value != pmap[event]:
            return CheckEntry(
                "EP7", False, _cx(event=event, label=label, lhs=value, rhs=pmap[event]), note=note
            )
    return CheckEntry("EP7", True, note=note)


def reference_axiom_ep8(facts, pmap):
    for member in facts.space.fplus:
        value = pmap.get(member)
        if value is None:
            return checks._not_measurable("EP8", member)
        if value < 0:
            return CheckEntry("EP8", False, _cx(event=member, value=value))
    return CheckEntry("EP8", True)


def reference_axiom_ep9(facts, pmap):
    note = "finitely vacuous: every strictly decreasing event chain is finite"
    value = pmap.get(Event())
    if value is None:
        return checks._not_measurable("EP9", Event(), note)
    if value != 0:
        return CheckEntry("EP9", False, _cx(event=Event(), value=value), note=note)
    return CheckEntry("EP9", True, note=note)


def reference_axiom_ep10(facts, pmap):
    note = facts.sampled_note
    if facts.trials is None:
        probes = facts.space.f
    else:
        probes = [event for _, event in checks._sampled_members(facts, 0xDEC0)]
    for event in probes:
        pos, neg = event.split()
        if pos not in pmap or neg not in pmap:
            return CheckEntry(
                "EP10", False, _cx(event=event, reason="part not measurable"), note=note
            )
        total = pmap[pos] + pmap[neg]
        if total != pmap[event]:
            return CheckEntry("EP10", False, _cx(event=event, lhs=total, rhs=pmap[event]), note=note)
    return CheckEntry("EP10", True, note=note)


REFERENCE_MEASURE_AXIOMS = {
    "EP3": reference_axiom_ep3,
    "EP5": reference_axiom_ep5,
    "EP5p": reference_axiom_ep5p,
    "EP6": reference_axiom_ep6,
    "EP7": reference_axiom_ep7,
    "EP8": reference_axiom_ep8,
    "EP9": reference_axiom_ep9,
    "EP10": reference_axiom_ep10,
}
SAMPLINGS = ((None, 0), (5, 1), (40, 7))


def assert_axioms_match_reference(space):
    """Every measure axiom, exhaustive and under two samplings."""
    for trials, seed in SAMPLINGS:
        report = validate_axioms(space, trials=trials, seed=seed)
        pmap = reference_pmap(space)
        facts = _Facts(space, trials, seed)
        for check_id, reference in REFERENCE_MEASURE_AXIOMS.items():
            assert report.entry(check_id) == reference(facts, pmap), (check_id, trials)


REFERENCE_SUITE = {
    "C4": reference_c4,
    "C5": reference_c5,
    "L3": reference_l3,
    "L10": reference_l10,
    "P3": reference_p3,
    "P5": reference_p5,
    "P8": reference_p8,
    "P10": reference_p10,
    "P11a": reference_p11a,
    "P11b": reference_p11b,
    "T1": reference_t1,
    "T2": reference_t2,
    "T4b": reference_t4b,
    "T5": reference_t5,
    "T6": reference_t6,
    "T7": reference_t7,
}


def assert_matches_reference(space):
    assert_axioms_match_reference(space)
    pmap = reference_pmap(space)
    axioms = validate_axioms(space)
    for check_id, reference in REFERENCE_AXIOMS.items():
        assert axioms.entry(check_id) == reference(space, pmap), check_id
    assert check_kolmogorov_restriction(space) == reference_kolmogorov(space, pmap)
    suite = run_theorem_suite(space, REFERENCE_SUITE)
    for check_id, reference in REFERENCE_SUITE.items():
        assert suite.entry(check_id) == reference(space, pmap), check_id
        assert run_theorem_suite(space, [check_id]).entries == (suite.entry(check_id),)


# --- spaces ---------------------------------------------------------------------

AB = ("a", "b")
ABC = ("a", "b", "c")

UNCHECKED = {
    "negative-weight": lambda: make_space(AB, {"a": "3/2", "b": "-1/2"}, check=False),
    "bad-normalization": lambda: make_space(AB, {"a": "1/2", "b": "1/3"}, check=False),
    "zero-total": lambda: make_space(ABC, {"a": "1/2", "b": "-1/2", "c": "0"}, check=False),
    "not-a-ring": lambda: make_space(
        AB, {"a": "1/2", "b": "1/2"}, [Event(), Event("a"), Event("a,b")], check=False
    ),
    "not-a-ring-3": lambda: make_space(
        ABC, {"a": "1/3", "b": "1/3", "c": "1/3"},
        [Event(), Event("a"), Event("b"), Event("a,b,c")], check=False,
    ),
    "not-a-ring-negative": lambda: make_space(
        ABC, {"a": "1/2", "b": "-1/4", "c": "3/4"},
        [Event(), Event("a,b"), Event("b,c"), Event("a,b,c")], check=False,
    ),
    "not-a-ring-4": lambda: make_space(
        ABC, {"a": "1/2", "b": "1/4", "c": "1/4"}, [Event(), Event("a"), Event("a,b,c")], check=False
    ),
}


@pytest.mark.parametrize("name", sorted(UNCHECKED))
def test_entries_match_reference_on_unchecked_spaces(name):
    assert_matches_reference(UNCHECKED[name]())


def test_pinned_full_negative_event_fails_t6_only_through_ep5():
    # No member has the full negative event as its negative part and a
    # non-empty positive part, so EP10 still holds; EP5 does not.
    space = make_space(AB, {"a": "1/2", "b": "1/2"}).with_override(Event("-a,-b"), Fraction(-1, 2))
    assert_matches_reference(space)
    t6 = run_theorem_suite(space, ["T6"]).entry("T6")
    assert t6.line() == "T6 FAIL A=-a B=-b union=-a,-b lhs=-1 rhs=-1/2 (EP5p=PASS EP10=PASS EP5=FAIL)"


def hand_built(drop=None, extra=None):
    """The field space generated by {a,b} over a,b,c, with a measurable family
    built by hand that lacks ``drop`` or holds ``extra`` beside the
    composition."""
    fplus = generate_algebra([Event("a,b")], Event("a,b,c"))
    space = make_space(ABC, {"a": "1/3", "b": "1/6", "c": "1/2"}, fplus)
    members = (space.f.events - {drop}) | ({extra} if extra is not None else set())
    return ExtendedSpace(space.ground, space.weights, space.fplus, Family(members))


@pytest.mark.parametrize(
    "drop, extra, ep10",
    [
        ("a,b", None, "EP10 FAIL event=a,b,-c reason=part not measurable"),
        ("-c", None, "EP10 FAIL event=a,b,-c reason=part not measurable"),
        ("a,b,-c", None, "EP10 PASS"),
        (None, "a", "EP10 PASS"),
        (None, "a,-c", "EP10 FAIL event=a,-c reason=part not measurable"),
    ],
)
def test_hand_built_families_fail_ep4_and_ep10_as_the_reference(drop, extra, ep10):
    space = hand_built(drop and Event(drop), extra and Event(extra))
    report, pmap = validate_axioms(space), reference_pmap(space)
    assert report.entry("EP4") == reference_ep4(space, pmap)
    assert report.entry("EP4").line() == (
        f"EP4 FAIL reason=family is not the disjoint composition near={drop or extra}"
    )
    assert report.entry("EP10").line() == ep10
    assert_axioms_match_reference(space)
    assert run_theorem_suite(space, ["P3"]).entry("P3") == reference_p3(space, pmap)


def test_an_override_that_breaks_ep10_fails_it_and_t5_as_the_reference():
    space = make_space(ABC, {"a": "1/3", "b": "1/6", "c": "1/2"}).with_override(Event("a,-b"), "1/7")
    assert validate_axioms(space).entry("EP10").line() == "EP10 FAIL event=a,-b lhs=1/6 rhs=1/7"
    assert run_theorem_suite(space, ["T5"]).entry("T5").line() == (
        "T5 FAIL event=a,-b (finite spaces: decreasing chains stabilize, "
        "continuity reduces to P({})=0)"
    )
    assert_matches_reference(space)


@pytest.mark.parametrize(
    "labels, generators",
    [("abcd", ["a,b"]), ("abcde", ["a,b", "c,d"]), ("abcdef", ["a,b,c", "d,e"])],
)
def test_entries_match_reference_on_generated_fields(labels, generators):
    universe = Event(",".join(labels))
    fplus = generate_algebra([Event(g) for g in generators], universe)
    weights = {label: Fraction(1, len(labels)) for label in labels}
    space = make_space(tuple(labels), weights, fplus)
    assert_matches_reference(space)
    assert_matches_reference(space.with_override(space.omega_minus, Fraction(-1, 2)))


def counter_measure(labels, p, q):
    """The powerset space over ``labels`` with P(A | -B) = P+(A) - Q(B): P+
    from the weights ``p``, and a second measure ``q`` on the negative
    parts, pinned on every member with a negative part.  With ``q != p`` it
    passes the axioms but breaks the antisymmetry the weight model builds in."""
    space = make_space(labels, p)
    for event in space.f:
        if event.negative_labels:
            value = sum((Fraction(p[l]) for l in event.positive_labels), Fraction(0)) - sum(
                (Fraction(q[l]) for l in event.negative_labels), Fraction(0)
            )
            space = space.with_override(event, value)
    return space


COUNTER_MEASURES = {
    "ab": lambda: counter_measure(AB, {"a": "1/4", "b": "3/4"}, {"a": "1/2", "b": "1/2"}),
    "abc": lambda: counter_measure(
        ABC, {"a": "1/2", "b": "1/4", "c": "1/4"}, {"a": "1/6", "b": "1/3", "c": "1/2"}
    ),
    # One atom and Q unnormalized: P(-a) leaves [-1, 1].
    "a-above": lambda: counter_measure(("a",), {"a": "1"}, {"a": "-2"}),
    "a-below": lambda: counter_measure(("a",), {"a": "1"}, {"a": "3"}),
}


@pytest.mark.parametrize("name", sorted(COUNTER_MEASURES))
def test_entries_match_reference_on_counter_measures(name):
    space = COUNTER_MEASURES[name]()
    assert_matches_reference(space)
    # The axioms do not imply the antisymmetry P8 and P10 check.
    assert validate_axioms(space).ok
    failed = {entry.check_id for entry in run_theorem_suite(space).failures()}
    assert {"P8", "P10"} <= failed
    if name == "a-above":
        assert {"C5", "P11b"} <= failed
    if name == "a-below":
        assert "P11b" in failed


@settings(max_examples=60)
@given(damaged_spaces(max_atoms=4), st.booleans())
def test_entries_match_reference_on_pinned_spaces(space, pin_full_negative):
    if pin_full_negative:
        space = space.with_override(space.omega_minus, Fraction(-1, 2))
    assert_matches_reference(space)


@st.composite
def unchecked_families(draw):
    """Unchecked spaces over any positive family that holds the empty and the
    full positive event, with weights of any sign and sum."""
    labels = draw(st.sampled_from(("ab", "abc")))
    pool = subsets(labels)
    members = draw(st.sets(st.sampled_from(pool[1:-1]))) | {pool[0], pool[-1]}
    weights = {label: Fraction(draw(st.integers(-3, 3)), 3) for label in labels}
    return make_space(tuple(labels), weights, members, check=False)


@settings(max_examples=60)
@given(unchecked_families())
def test_entries_match_reference_on_unchecked_families(space):
    assert_matches_reference(space)


# --- a normalize that leaves one pair standing ----------------------------------


def leaky_normalize(label):
    """``normalize``, except that a draft holding both of ``label``'s atoms
    keeps the positive one, so the annihilation probes on ``label`` move."""
    real = checks.normalize
    pair = {Atom(label), Atom(label, False)}

    def normalize(draft):
        normal = real(draft)
        if isinstance(draft, tuple) and pair <= set(draft):
            return normal + Event(label)
        return normal

    return normalize


def leak(monkeypatch, label):
    # EP6 and EP7 normalize through checks, draft_probability through measure.
    broken = leaky_normalize(label)
    monkeypatch.setattr(checks, "normalize", broken)
    monkeypatch.setattr(measure, "normalize", broken)


@settings(max_examples=40)
@given(damaged_spaces(max_atoms=4), st.data())
def test_axioms_match_reference_under_a_leaky_normalize(space, data):
    label = data.draw(st.sampled_from(space.ground.labels))
    with pytest.MonkeyPatch.context() as monkeypatch:
        leak(monkeypatch, label)
        assert_axioms_match_reference(space)
        assert not validate_axioms(space).entry("EP6").passed


@pytest.mark.parametrize("name", sorted(UNCHECKED))
@pytest.mark.parametrize("label", ["a", "b"])
def test_unchecked_axioms_match_reference_under_a_leaky_normalize(monkeypatch, name, label):
    leak(monkeypatch, label)
    assert_axioms_match_reference(UNCHECKED[name]())


@pytest.mark.parametrize("name", sorted(UNMEASURABLE_SPACES))
@pytest.mark.parametrize("label", [None, "a"])
def test_axioms_match_reference_without_full_or_empty_event(monkeypatch, name, label):
    if label is not None:
        leak(monkeypatch, label)
    assert_axioms_match_reference(UNMEASURABLE_SPACES[name]())


def test_leaky_normalize_fails_ep6_and_ep7_on_the_least_probe(monkeypatch):
    leak(monkeypatch, "b")
    report = validate_axioms(make_space(AB, {"a": "1/4", "b": "3/4"}))
    assert report.entry("EP6").line() == "EP6 FAIL event={} label=b"
    assert report.entry("EP7").line() == "EP7 FAIL event={} label=b lhs=3/4 rhs=0"


def test_ep7_reports_a_normal_form_outside_the_family(monkeypatch):
    # {a} is not a member of the field generated by {a,b} over a,b,c: the
    # probe ({}, a) normalizes to it under the leak.
    fplus = generate_algebra([Event("a,b")], Event("a,b,c"))
    space = make_space(ABC, {"a": "1/3", "b": "1/3", "c": "1/3"}, fplus)
    leak(monkeypatch, "a")
    exhaustive = validate_axioms(space).entry("EP7")
    assert exhaustive.line() == "EP7 FAIL event={} label=a normalized=a reason=not measurable"
    sampled = validate_axioms(space, trials=30, seed=2).entry("EP7")
    assert not sampled.passed
    assert sampled.counterexample[-1] == ("reason", "not measurable")


# --- what a report computes -------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("trials", [None, 25])
def test_axioms_and_restriction_evaluate_no_probability(monkeypatch, trials):
    fplus = generate_algebra([Event("a,b")], Event("a,b,c,d"))
    for space in (
        make_space(ABC, {"a": "1/2", "b": "1/4", "c": "1/4"}),
        make_space(tuple("abcd"), {label: "1/4" for label in "abcd"}, fplus),
    ):
        calls = count_calls(monkeypatch, ExtendedSpace, "probability")
        assert validate_axioms(space, trials=trials, seed=5).ok
        assert check_kolmogorov_restriction(space).ok
        assert calls == []


def test_restriction_stores_numerators_for_the_positive_family_only():
    fplus = generate_algebra([Event("a,b")], Event("a,b,c,d"))
    for space in (
        make_space(ABC, {"a": "1/2", "b": "1/4", "c": "1/4"}),
        make_space(tuple("abcd"), {label: "1/4" for label in "abcd"}, fplus),
    ):
        assert check_kolmogorov_restriction(space).ok
        assert set(space._numerators) == space.fplus.events


@pytest.mark.parametrize(
    "check_id", ["C1", "C2", "C5", "L1", "L2", "L3", "P1", "P2", "P8", "P9", "P10", "P11a", "P11b"]
)
def test_light_suite_ids_evaluate_no_probability_map(monkeypatch, check_id):
    space = make_space(ABC, {"a": "1/2", "b": "1/4", "c": "1/4"})
    calls = count_calls(monkeypatch, ExtendedSpace, "probability")
    assert run_theorem_suite(space, [check_id]).ok
    # P9 evaluates its one draft; nothing else is measured.
    assert len(calls) == (1 if check_id == "P9" else 0)


def test_only_four_suite_ids_read_the_probability_map(monkeypatch):
    space = make_space(AB, {"a": "1/2", "b": "1/2"})
    build = vars(_Facts)["pmap"].func
    readers = []

    def read_by(check_id):
        def pmap(facts):
            readers.append(check_id)
            return build(facts)
        return property(pmap)

    for check_id in suite_ids():
        monkeypatch.setattr(_Facts, "pmap", read_by(check_id))
        assert run_theorem_suite(space, [check_id]).ok
    assert sorted(set(readers)) == ["P6", "T3", "T4a", "T4b"]


def test_restriction_and_continuity_ids_share_one_probability_map(monkeypatch):
    space = make_space(ABC, {"a": "1/2", "b": "1/4", "c": "1/4"})
    calls = count_calls(monkeypatch, ExtendedSpace, "probability")
    additivity = count_calls(monkeypatch, checks, "_additivity")
    assert run_theorem_suite(space, ["T5", "T6", "T7"]).ok
    # The axiom entries they read compare integer numerators: no probability map.
    assert len(calls) == 0
    # EP5 for T6, EP5p once for both T6 and T7 (as K3).
    assert [args[0] for args in additivity] == ["EP5p", "EP5"]


def test_full_suite_builds_the_mirror_and_field_verdicts_once(monkeypatch):
    space = make_space(ABC, {"a": "1/2", "b": "1/4", "c": "1/4"})
    mirrors = count_calls(monkeypatch, checks, "mirror_family")
    fields = count_calls(monkeypatch, checks, "is_set_field")
    assert run_theorem_suite(space).ok
    assert len(mirrors) == 1
    # One verdict for the positive family, one for its mirror (T1).
    assert [args[0] for args in fields] == [space.fplus, mirror_family(space.fplus)]

