"""Differential tests: checks that read the per-report facts against their
stand-alone forms.

K1-K3 are the EP8/EP3/EP5p entries renamed, T5-T7 and L10 read the axiom
entries, and EP2, EP4, P3, C4, P5, T1, T2 and T4b read the shared mirror
family and algebra/field verdicts.  The reference functions below compute
each of them on their own, from the space and its probability map, as the
checks did before they shared anything; every entry must agree byte for
byte.  The spaces are chosen to make them fail: unchecked spaces with
negative weights, bad normalization or a non-algebra positive family,
seeded spaces with 0-2 pins, and generated fields.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from epspace import (
    Event,
    ExtendedSpace,
    compose_family,
    check_kolmogorov_restriction,
    generate_algebra,
    is_set_algebra,
    is_set_field,
    make_space,
    mirror_family,
    run_theorem_suite,
    validate_axioms,
)
from epspace import checks
from epspace.checks import CheckEntry, ValidationReport, _cx

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
        extra = culprit[0] if culprit else Event()
        return CheckEntry("C4", False, _cx(shared=extra))
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
REFERENCE_SUITE = {
    "C4": reference_c4,
    "L10": reference_l10,
    "P3": reference_p3,
    "P5": reference_p5,
    "T1": reference_t1,
    "T2": reference_t2,
    "T4b": reference_t4b,
    "T5": reference_t5,
    "T6": reference_t6,
    "T7": reference_t7,
}


def assert_matches_reference(space):
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


# --- what a report computes -------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("check_id", ["C1", "C2", "L1", "L2", "P1", "P2", "P9"])
def test_light_suite_ids_evaluate_no_probability_map(monkeypatch, check_id):
    space = make_space(ABC, {"a": "1/2", "b": "1/4", "c": "1/4"})
    calls = count_calls(monkeypatch, ExtendedSpace, "probability")
    assert run_theorem_suite(space, [check_id]).ok
    # P9 evaluates its one draft; nothing else is measured.
    assert len(calls) == (1 if check_id == "P9" else 0)


def test_restriction_and_continuity_ids_share_one_probability_map(monkeypatch):
    space = make_space(ABC, {"a": "1/2", "b": "1/4", "c": "1/4"})
    calls = count_calls(monkeypatch, ExtendedSpace, "probability")
    additivity = count_calls(monkeypatch, checks, "_additivity")
    assert run_theorem_suite(space, ["T5", "T6", "T7"]).ok
    assert len(calls) == len(space.f)
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

