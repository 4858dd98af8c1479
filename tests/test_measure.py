"""Space construction, exact evaluation, complements, overrides."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from epspace import (
    AlgebraError,
    Event,
    EventNotMeasurableError,
    Family,
    GroundSet,
    NonNegativityError,
    NormalizationError,
    SchemaError,
    make_space,
    positive_family_is_field,
    powerset_family,
)

from conftest import spaces


@pytest.fixture
def abc_space():
    return make_space(("a", "b", "c"), {"a": "1/2", "b": "3/10", "c": "1/5"})


# --- construction -----------------------------------------------------------


def test_make_space_valid():
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"})
    assert len(space.f) == 9
    assert space.fplus == powerset_family(Event("a,b"))


def test_make_space_rejects_bad_sum():
    with pytest.raises(NormalizationError):
        make_space(("a", "b"), {"a": "1/2", "b": "1/3"})


def test_make_space_rejects_negative_weight():
    with pytest.raises(NonNegativityError):
        make_space(("a", "b"), {"a": "3/2", "b": "-1/2"})


def test_make_space_rejects_unknown_label():
    with pytest.raises(SchemaError):
        make_space(("a", "b"), {"a": "1/2", "b": "1/4", "c": "1/4"})


def test_make_space_rejects_missing_label():
    with pytest.raises(SchemaError):
        make_space(("a", "b"), {"a": 1})


def test_make_space_rejects_float_weight():
    with pytest.raises(SchemaError):
        make_space(("a",), {"a": 1.0})


def test_make_space_rejects_garbage_literal():
    with pytest.raises(SchemaError):
        make_space(("a",), {"a": "one half"})


def test_make_space_rejects_oversized_literals():
    space = make_space(("a", "b"), {"a": "1e-99", "b": "." + "9" * 99})
    assert space.weights["a"] == Fraction(1, 10 ** 99)
    oversized = ("1e5000", "1e-5000", "1" * 5000, 10 ** 5000, "1e-100", "." + "0" * 100 + "1", 10 ** 100)
    for weight in oversized:
        with pytest.raises(SchemaError, match="^weight for 'a': .*too large"):
            make_space(("a", "b"), {"a": weight, "b": 1})


def test_make_space_accepts_exact_literals():
    space = make_space(("a", "b"), {"a": "0.7", "b": Fraction(3, 10)})
    assert space.weights["a"] == Fraction(7, 10)


def test_make_space_rejects_family_without_universe():
    fplus = Family.of(Event(), Event("a"))
    with pytest.raises(AlgebraError):
        make_space(("a", "b"), {"a": "1/2", "b": "1/2"}, fplus)


def test_make_space_rejects_non_algebra():
    fplus = Family.of(Event("a,b"))  # no empty event
    with pytest.raises(AlgebraError):
        make_space(("a", "b"), {"a": "1/2", "b": "1/2"}, fplus)


def test_make_space_rejects_family_outside_universe():
    fplus = Family.of(Event(), Event("z"))
    with pytest.raises(AlgebraError):
        make_space(("a",), {"a": 1}, fplus)


def test_unchecked_space_allows_injected_faults():
    space = make_space(("a", "b"), {"a": "3/2", "b": "-1/2"}, check=False)
    assert space.probability(Event("b")) == Fraction(-1, 2)


# --- evaluation -------------------------------------------------------------


def test_anchor_values(abc_space):
    assert abc_space.probability(abc_space.omega_plus) == 1
    assert abc_space.probability(abc_space.omega_minus) == -1
    assert abc_space.probability(Event()) == 0


def test_weighted_event(abc_space):
    # Oracle: direct summation, 1/2 - 3/10 = 1/5.
    expected = Fraction(1, 2) - Fraction(3, 10)
    assert expected == Fraction(1, 5)
    assert abc_space.probability(Event("a,-b")) == Fraction(1, 5)


def test_draft_probability(abc_space):
    assert abc_space.draft_probability("a,-a") == 0
    assert abc_space.draft_probability("a,-a,b") == Fraction(3, 10)
    assert abc_space.draft_probability("") == 0


def test_not_measurable_raises():
    fplus = Family.of(Event(), Event("a,b"))
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"}, fplus)
    assert len(space.f) == 3
    with pytest.raises(EventNotMeasurableError):
        space.probability(Event("a"))


def test_probability_outside_label_space():
    space = make_space(("a",), {"a": 1})
    with pytest.raises(EventNotMeasurableError):
        space.probability(Event("z"))


@given(spaces())
def test_probability_antisymmetric_under_negation(space):
    for event in space.f:
        assert space.probability(event) == -space.probability(-event)


@given(spaces())
def test_probability_bounds(space):
    for event in space.f:
        assert -1 <= space.probability(event) <= 1


@given(spaces())
def test_probability_decomposes(space):
    for event in space.f:
        pos, neg = event.split()
        assert space.probability(event) == space.probability(pos) + space.probability(neg)


@given(spaces())
def test_restriction_is_monotone(space):
    members = tuple(space.fplus)
    for a in members:
        for b in members:
            if a.issubset(b):
                assert space.probability(a) <= space.probability(b)


# --- complement -------------------------------------------------------------


def test_complement_examples():
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"})
    assert space.complement(Event("a")) == Event("-a")
    assert space.complement(Event()) == Event()  # omega annihilates itself
    assert space.complement(Event("a,-b")) == Event("-a,b")


@given(spaces())
def test_complement_is_negation_and_antisymmetric(space):
    for event in space.f:
        comp = space.complement(event)
        assert comp == -event
        assert space.probability(event) == -space.probability(comp)


def test_positive_family_is_field(abc_space):
    assert positive_family_is_field(abc_space)


# --- overrides --------------------------------------------------------------


def test_override_pins_single_event():
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"})
    broken = space.with_override(Event("a"), 2)
    assert broken.probability(Event("a")) == 2
    assert broken.probability(Event("b")) == Fraction(1, 2)
    assert space.probability(Event("a")) == Fraction(1, 2)  # original untouched


def test_weights_and_overrides_are_read_only():
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"})
    with pytest.raises(TypeError):
        space.weights["a"] = 5
    assert space.probability(Event("a")) == Fraction(1, 2)
    broken = space.with_override(Event("a"), 2)
    with pytest.raises(TypeError):
        broken.overrides[Event("b")] = 7
    assert broken.probability(Event("b")) == Fraction(1, 2)
    with pytest.raises(TypeError):
        space.overrides[Event("a")] = 7
    assert space.probability(Event("a")) == Fraction(1, 2)


def test_override_requires_measurable_event():
    space = make_space(("a",), {"a": 1})
    with pytest.raises(EventNotMeasurableError):
        space.with_override(Event("z"), 1)


def test_space_equality_and_ground():
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"})
    again = make_space(GroundSet(("a", "b")), {"a": Fraction(1, 2), "b": "0.5"})
    assert space == again
    assert space.ground.labels == ("a", "b")
