"""Space construction, exact evaluation, complements, overrides."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from epspace import (
    AlgebraError,
    Event,
    EventNotMeasurableError,
    Family,
    GroundSet,
    NonNegativityError,
    NormalizationError,
    SchemaError,
    check_kolmogorov_restriction,
    generate_algebra,
    make_space,
    positive_family_is_field,
    powerset_family,
    run_theorem_suite,
    validate_axioms,
)
from epspace.checks import _Facts
from epspace.events import Atom, LabelMask

from conftest import LABELS, spaces
from test_kernel import damaged_spaces, subsets


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


# --- the integer measure against a Fraction reference ----------------------


def reference_probability(space, event):
    """``P(event)`` as the weight model defines it, summed in ``Fraction``s:
    a pinned event gives its pin."""
    pinned = space.overrides.get(event)
    if pinned is not None:
        return pinned
    w = space.weights
    return sum((w[l] for l in event.positive_labels), Fraction(0)) - sum(
        (w[l] for l in event.negative_labels), Fraction(0)
    )


@st.composite
def measured_spaces(draw):
    """Checked spaces of 1-4 atoms (powersets and generated fields, already
    with 0-2 pins), or unchecked ones whose weights may be negative or sum to
    anything, over any positive family holding the empty event; then 0-2
    more pins to arbitrary values."""
    if draw(st.booleans()):
        space = draw(damaged_spaces(max_atoms=4))
    else:
        labels = LABELS[: draw(st.integers(1, 4))]
        weights = {
            label: Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 7))) for label in labels
        }
        members = draw(st.sets(st.sampled_from(subsets(labels)))) | {Event()}
        space = make_space(labels, weights, members, check=False)
    ordered = tuple(space.f)
    for _ in range(draw(st.integers(0, 2))):
        event = ordered[draw(st.integers(0, len(ordered) - 1))]
        space = space.with_override(event, Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
    return space


@settings(max_examples=150)
@given(measured_spaces(), st.randoms(use_true_random=False))
def test_integer_measure_matches_fraction_reference(space, rng):
    # Fill the memo in a random order, partly through drafts with event parts,
    # duplicates and annihilating pairs on fresh labels.
    order = list(space.f)
    rng.shuffle(order)
    for event in order:
        used = event.positive_labels | event.negative_labels
        fresh = [label for label in space.ground.labels if label not in used]
        if fresh and rng.random() < 0.5:
            label = rng.choice(fresh)
            draft = [event, Atom(label), Atom(label, False), *event][: rng.randint(3, 3 + len(event))]
            assert space.draft_probability(draft) == reference_probability(space, event)
        assert space.probability(event) == reference_probability(space, event)
    for event in space.f:
        assert space.probability(event) == reference_probability(space, event)
    facts = _Facts(space)
    for packed in (facts.packed, facts.packed_plus):
        ratios = [Fraction(n, space._denominator) for n in packed.numerators]
        assert ratios == [reference_probability(space, event) for event in packed.events]


def test_override_of_a_filled_memo_pins_only_the_new_space():
    space = make_space(("a", "b", "c"), {"a": "1/2", "b": "3/10", "c": "1/5"})
    before = {event: space.probability(event) for event in space.f}
    pinned = space.with_override(Event("a,-b"), "7/3")
    assert pinned.probability(Event("a,-b")) == Fraction(7, 3)
    assert pinned.draft_probability("a,-b,c,-c") == Fraction(7, 3)
    again = pinned.with_override(Event("-c"), 4)
    assert again.probability(Event("-c")) == 4
    assert again.probability(Event("a,-b")) == Fraction(7, 3)
    assert {event: space.probability(event) for event in space.f} == before
    for event in space.f:
        if event != Event("a,-b"):
            assert pinned.probability(event) == before[event]


class _RecordingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_each_numerator_is_computed_once_per_space():
    space = make_space(("a", "b", "c"), {"a": "1/2", "b": "1/4", "c": "1/4"})
    memo = _RecordingDict()
    object.__setattr__(space, "_numerators", memo)
    validate_axioms(space)
    validate_axioms(space, trials=50, seed=1)
    check_kolmogorov_restriction(space)
    run_theorem_suite(space)
    assert sorted(memo.stored, key=str) == sorted(space.f, key=str)


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


@pytest.mark.parametrize("generated", [False, True])
def test_complement_of_a_member_is_its_negation(generated):
    # Each label of the event changes sign and each absent label annihilates
    # with its anti-label, so on a composed family P10 restates P8 and T2's
    # complement pass cannot fail.
    labels = ("a", "b", "c", "d")
    fplus = generate_algebra([Event("a,b"), Event("c")], Event("a,b,c,d")) if generated else None
    space = make_space(labels, {label: "1/4" for label in labels}, fplus)
    codec = LabelMask(sorted(labels))
    assert len(space.f) == (27 if generated else 81)
    for event in space.f:
        assert space.complement(event) == -event
        mask = codec.encode(event)
        assert codec.complement(mask) == codec.negate(mask)


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
