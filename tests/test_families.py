"""Set rings/algebras/fields, closure generation, mirroring, composition."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from epspace import (
    AlgebraError,
    Event,
    Family,
    GroundSet,
    SchemaError,
    compose_family,
    generate_algebra,
    is_set_algebra,
    is_set_field,
    is_set_ring,
    make_space,
    mirror_family,
    positive_family_is_field,
    powerset_family,
    run_theorem_suite,
    validate_axioms,
)
from epspace.events import canonical_key

from test_facts import count_calls


def all_subsets(labels):
    items = [Event(",".join(c)) if c else Event() for r in range(len(labels) + 1)
             for c in combinations(labels, r)]
    return items


def all_families(labels):
    """Every family of subsets of the given positive universe."""
    members = all_subsets(labels)
    for r in range(len(members) + 1):
        for chosen in combinations(members, r):
            yield Family(frozenset(chosen))


def closed_under_union_inter_diff(family: Family) -> bool:
    """Independent oracle for ring-ness via the derived closure conditions."""
    members = family.events
    for a in members:
        for b in members:
            union = Event(frozenset(a) | frozenset(b))
            if union not in members:
                return False
            if (a & b) not in members or (a - b) not in members:
                return False
    return True


def bruteforce_closure(generators, universe: Event) -> frozenset:
    """Independent oracle: naive fixed-point closure under union, intersection, difference."""
    current = set(generators) | {universe}
    while True:
        added = set()
        for a in current:
            for b in current:
                candidates = [
                    Event(frozenset(a) | frozenset(b)),
                    a & b,
                    a - b,
                    b - a,
                ]
                for c in candidates:
                    if c not in current:
                        added.add(c)
        if not added:
            return frozenset(current)
        current |= added


# --- ring -------------------------------------------------------------------


def test_ring_trivial():
    assert is_set_ring(Family.of(Event()))


def test_ring_powerset_of_two():
    family = Family(frozenset(all_subsets("ab")))
    assert is_set_ring(family)


def test_ring_missing_empty():
    assert not is_set_ring(Family.of(Event("a"), Event("b")))


def test_ring_rejects_mixed_sign_member():
    with pytest.raises(ValueError):
        is_set_ring(Family.of(Event("a,-b")))


def test_rejections_name_the_least_offending_member():
    with pytest.raises(ValueError, match="^mixed-sign member 'a,-b':"):
        is_set_ring(Family.of(Event(), Event("c,-d"), Event("-a,b,c"), Event("a,-b")))
    with pytest.raises(AlgebraError, match="^family member '-a' is not a subset"):
        make_space(("a", "b"), {"a": "1/2", "b": "1/2"}, [Event(), Event("-b"), Event("a,-b"), Event("-a")])


def test_ring_equivalent_to_union_inter_diff_closure():
    for family in all_families("ab"):
        assert is_set_ring(family) == closed_under_union_inter_diff(family)


@given(st.sets(st.sampled_from(range(8)), max_size=5))
def test_ring_equivalence_sampled_three_labels(indices):
    members = all_subsets("abc")
    family = Family(frozenset(members[i] for i in indices))
    assert is_set_ring(family) == closed_under_union_inter_diff(family)


def test_ring_allows_negative_homogeneous_members():
    family = Family.of(Event(), Event("-a"))
    assert is_set_ring(family)


# --- algebra ----------------------------------------------------------------


def test_algebra_examples():
    assert is_set_algebra(Family.of(Event(), Event("a"))) == (True, Event("a"))
    powerset = Family(frozenset(all_subsets("ab")))
    assert is_set_algebra(powerset) == (True, Event("a,b"))
    assert is_set_algebra(Family.of(Event("a"))) == (False, None)


def test_algebra_of_empty_family():
    assert is_set_algebra(Family(frozenset())) == (False, None)


def test_algebra_with_unjoinable_members_has_no_unit():
    # {} , {a}, {-a} is intersection/difference closed but the member union
    # is not representable, so no unit exists.
    family = Family.of(Event(), Event("a"), Event("-a"))
    ok, unit = is_set_algebra(family)
    assert not ok and unit is None


# --- field ------------------------------------------------------------------


def test_field_powerset():
    assert is_set_field(Family(frozenset(all_subsets("ab"))), Event("a,b"))


def test_field_four_member():
    family = Family.of(Event(), Event("a"), Event("b,c"), Event("a,b,c"))
    assert is_set_field(family, Event("a,b,c"))


def test_field_missing_complement():
    family = Family.of(Event(), Event("a"), Event("a,b,c"))
    assert not is_set_field(family, Event("a,b,c"))


def test_field_requires_members_inside_universe():
    with pytest.raises(ValueError):
        is_set_field(Family.of(Event(), Event("z")), Event("a"))


# --- generate_algebra -------------------------------------------------------


def test_generate_empty_generators():
    family = generate_algebra([], Event("a,b"))
    assert family.events == {Event(), Event("a,b")}


def test_generate_single_generator():
    family = generate_algebra([Event("a")], Event("a,b"))
    assert family.events == {Event(), Event("a"), Event("b"), Event("a,b")}


def test_generate_singletons_gives_powerset():
    family = generate_algebra([Event("a"), Event("b")], Event("a,b"))
    assert family.events == frozenset(all_subsets("ab"))


def test_generate_rejects_outside_universe():
    with pytest.raises(ValueError):
        generate_algebra([Event("z")], Event("a,b"))


def test_generate_matches_bruteforce_closure_exhaustively():
    for labels in ("a", "ab", "abc"):
        universe = Event(",".join(labels))
        members = all_subsets(labels)
        for r in range(len(members) + 1):
            for gens in combinations(members, r):
                produced = generate_algebra(gens, universe)
                assert produced.events == bruteforce_closure(gens, universe)
                assert is_set_field(produced, universe)


def test_generate_output_is_minimal():
    # Removing any member that is neither a generator nor the universe breaks
    # closure (or drops a required member).
    for labels in ("a", "ab", "abc"):
        universe = Event(",".join(labels))
        members = all_subsets(labels)
        for r in range(len(members) + 1):
            for gens in combinations(members, r):
                produced = generate_algebra(gens, universe).events
                required = set(gens) | {universe}
                for member in produced - required:
                    trimmed = Family(produced - {member})
                    still_closed = closed_under_union_inter_diff(trimmed)
                    assert not (still_closed and required <= trimmed.events)


# --- mirror -----------------------------------------------------------------


def test_mirror_examples():
    family = Family.of(Event(), Event("a"))
    assert mirror_family(family).events == {Event(), Event("-a")}
    powerset = powerset_family(Event("a,b"))
    mirrored = mirror_family(powerset)
    assert all(member.is_negative for member in mirrored)
    assert len(mirrored) == 4


def test_mirror_is_involution():
    family = powerset_family(Event("a,b"))
    assert mirror_family(mirror_family(family)) == family


def test_mirror_preserves_algebra_and_field():
    for labels in ("a", "ab"):
        universe = Event(",".join(labels))
        members = all_subsets(labels)
        for r in range(len(members) + 1):
            for gens in combinations(members, r):
                family = generate_algebra(gens, universe)
                mirrored = mirror_family(family)
                ok, unit = is_set_algebra(family)
                mirrored_ok, mirrored_unit = is_set_algebra(mirrored)
                assert ok == mirrored_ok
                if ok:
                    assert mirrored_unit == -unit
                assert is_set_field(family, universe) == is_set_field(
                    mirrored, -universe
                )


# --- composition ------------------------------------------------------------


def test_compose_singleton_algebra():
    family = Family.of(Event(), Event("a"))
    assert compose_family(family).events == {Event(), Event("a"), Event("-a")}


def test_compose_trivial_algebra_over_two():
    family = Family.of(Event(), Event("a,b"))
    assert compose_family(family).events == {Event(), Event("a,b"), Event("-a,-b")}


def test_compose_powerset_of_two_has_nine_members():
    assert len(compose_family(powerset_family(Event("a,b")))) == 9


@pytest.mark.parametrize("n", range(1, 7))
def test_compose_powerset_count_is_three_to_the_n(n):
    # Count oracle: each label is independently present-positive,
    # present-negative, or absent.
    labels = [f"w{i}" for i in range(n)]
    universe = Event(",".join(labels))
    assert len(compose_family(powerset_family(universe))) == 3 ** n


def test_compose_rejects_negative_members():
    with pytest.raises(ValueError):
        compose_family(Family.of(Event(), Event("-a")))


def test_compose_contains_both_families():
    fplus = powerset_family(Event("a,b"))
    composed = compose_family(fplus)
    assert fplus.issubset(composed)
    assert mirror_family(fplus).issubset(composed)


def test_compose_members_are_valid_events():
    composed = compose_family(powerset_family(Event("a,b,c")))
    for member in composed:
        assert member.positive_labels.isdisjoint(member.negative_labels)


# --- composition on masks, in canonical order ------------------------------

# Labels whose string order differs from their ground order.
MIXED_LABELS = ("b", "a", "B", "_x", "a1")


def reference_compose(fplus: Family) -> tuple:
    """The frozenset pair loop, sorted by ``canonical_key``."""
    members = set()
    for a in fplus.events:
        for b in fplus.events:
            if a.positive_labels.isdisjoint(b.positive_labels):
                members.add(Event._raw(a.positive_labels, b.positive_labels))
    return tuple(sorted(members, key=canonical_key))


@st.composite
def positive_families(draw):
    labels = draw(st.sampled_from((("a",), ("a", "b", "c"), MIXED_LABELS, ("w2", "w10", "w1", "w3"))))
    universe = Event(",".join(labels))
    shape = draw(st.sampled_from(("powerset", "generated", "arbitrary", "empty")))
    if shape == "powerset":
        return powerset_family(universe)
    if shape == "empty":
        return Family(frozenset())
    subsets = all_subsets(labels)
    if shape == "generated":
        return generate_algebra(draw(st.lists(st.sampled_from(subsets), max_size=3)), universe)
    return Family(frozenset(draw(st.lists(st.sampled_from(subsets), max_size=12))))


@given(positive_families())
def test_compose_matches_the_sorted_pair_loop(fplus):
    composed = compose_family(fplus)
    expected = reference_compose(fplus)
    assert composed.events == frozenset(expected)
    assert tuple(composed) == expected
    assert tuple(Family(composed.events)) == expected


def test_compose_names_the_least_non_positive_member():
    with pytest.raises(ValueError, match="got member '-a'"):
        compose_family(Family.of(Event(), Event("-b,c"), Event("-a"), Event("a,-b")))


def test_iterating_a_fresh_measurable_family_sorts_nothing(monkeypatch):
    import epspace.families as families

    field = generate_algebra([Event("a,b"), Event("c")], Event("a,b,c,d,e"))
    for space in (
        make_space(MIXED_LABELS, {label: "1/5" for label in MIXED_LABELS}),
        make_space(tuple("abcde"), {label: "1/5" for label in "abcde"}, field),
    ):
        calls = count_calls(monkeypatch, families, "canonical_key")
        assert tuple(space.f) == reference_compose(space.fplus)
        assert calls == []


def test_the_positive_algebra_is_proved_once(monkeypatch):
    import epspace.families as families

    calls = count_calls(monkeypatch, families, "is_set_ring")
    space = make_space(("a", "b", "c"), {"a": "1/2", "b": "1/4", "c": "1/4"})
    pinned = space.with_override(Event("a,-b"), "1/3")
    assert validate_axioms(space).ok
    assert run_theorem_suite(space).ok
    assert not validate_axioms(pinned).ok
    assert positive_family_is_field(pinned)
    assert sum(args[0] is space.fplus for args in calls) == 1


def test_the_kept_algebra_verdict_is_invisible_to_equality_and_hash():
    import dataclasses

    proved, fresh = powerset_family(Event("a,b")), powerset_family(Event("a,b"))
    before = hash(proved)
    assert is_set_algebra(proved) == (True, Event("a,b"))
    assert is_set_algebra(proved) is is_set_algebra(proved)
    assert proved == fresh and hash(proved) == hash(fresh) == before
    assert repr(proved) == repr(fresh)
    assert [f.name for f in dataclasses.fields(Family)] == ["events", "kind"]
    # A failed proof is kept too.
    not_a_ring = Family.of(Event("a"))
    assert is_set_algebra(not_a_ring) == (False, None)
    assert is_set_algebra(not_a_ring) is is_set_algebra(not_a_ring)


# --- ground sets and serialization -------------------------------------------


def test_ground_set_validation():
    with pytest.raises(SchemaError):
        GroundSet(())
    with pytest.raises(SchemaError):
        GroundSet(("a", "a"))
    with pytest.raises(SchemaError):
        GroundSet(("a", "2bad"))


def test_ground_set_events():
    ground = GroundSet(("a", "b"))
    assert ground.omega_plus == Event("a,b")
    assert ground.omega_minus == Event("-a,-b")
    assert len(ground) == 2


def test_family_texts_are_sorted_canonically():
    family = Family.of(Event("a,b"), Event(), Event("-a"), Event("a"))
    assert family.texts() == ("{}", "a", "-a", "a,b")


def test_family_sorts_once_and_keeps_equality_and_hash(monkeypatch):
    import dataclasses

    import epspace.families as families

    calls = []

    def counting_key(event):
        calls.append(event)
        return canonical_key(event)

    monkeypatch.setattr(families, "canonical_key", counting_key)
    family = Family.of(Event("a,b"), Event(), Event("-a"), Event("a"))
    fresh = Family.of(Event("a"), Event("-a"), Event(), Event("a,b"))
    assert family.texts() == ("{}", "a", "-a", "a,b")
    assert tuple(family) == tuple(family)
    assert len(calls) == 4
    assert family == fresh and hash(family) == hash(fresh)
    assert [f.name for f in dataclasses.fields(Family)] == ["events", "kind"]


def test_family_equality_ignores_kind():
    left = Family(frozenset({Event("a")}), kind="plain")
    right = Family(frozenset({Event("a")}), kind="composed")
    assert left == right


def test_powerset_family_size():
    assert len(powerset_family(Event("a,b,c"))) == 8
    assert len(powerset_family(GroundSet(("a",)))) == 2
