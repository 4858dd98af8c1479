"""Space documents, enumeration order, and the seeded space generator."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from epspace import (
    Event,
    FuzzConfig,
    NormalizationError,
    ParseError,
    SchemaError,
    make_space,
    parse_document,
    parse_space,
    random_space,
    serialize_space,
    validate_axioms,
)

VALID_DOC = """
{
  "omega_plus": ["a", "b"],
  "weights": {"a": "1/2", "b": "0.5"},
  "algebra": "powerset"
}
"""


# --- parsing ----------------------------------------------------------------


def test_parse_valid_document():
    space = parse_space(VALID_DOC)
    assert space.ground.labels == ("a", "b")
    assert space.weights["b"] == Fraction(1, 2)
    assert len(space.f) == 9


def test_decimal_and_bare_number_literals_are_exact():
    doc = '{"omega_plus": ["a", "b"], "weights": {"a": 0.2, "b": "4/5"}, "algebra": "powerset"}'
    space = parse_space(doc)
    assert space.weights["a"] == Fraction(1, 5)
    doc = '{"omega_plus": ["a", "b"], "weights": {"a": 1e-1, "b": 9E-1}, "algebra": "powerset"}'
    assert parse_document(doc).weights == {"a": Fraction(1, 10), "b": Fraction(9, 10)}


def test_unknown_weight_label_is_schema_error():
    doc = '{"omega_plus": ["a", "b"], "weights": {"a": "1/2", "b": "1/4", "c": "1/4"}, "algebra": "powerset"}'
    with pytest.raises(SchemaError):
        parse_space(doc)


def test_bad_weight_sum_is_normalization_error():
    doc = '{"omega_plus": ["a", "b"], "weights": {"a": "1/3", "b": "1/3"}, "algebra": "powerset"}'
    with pytest.raises(NormalizationError):
        parse_space(doc)


def test_malformed_json_reports_location():
    with pytest.raises(ParseError) as excinfo:
        parse_space("{ nope")
    assert "line 1" in str(excinfo.value)


def test_wrong_shapes_are_parse_errors():
    cases = [
        '[1, 2]',
        '{"omega_plus": "a", "weights": {}, "algebra": "powerset"}',
        '{"omega_plus": [1], "weights": {}, "algebra": "powerset"}',
        '{"omega_plus": ["a"], "weights": [], "algebra": "powerset"}',
        '{"omega_plus": ["a"], "weights": {"a": 1}, "algebra": "lattice"}',
        '{"omega_plus": ["a"], "weights": {"a": 1}, "algebra": {"generators": "x"}}',
        '{"omega_plus": ["a"], "weights": {"a": 1}}',
        '{"omega_plus": ["a"], "weights": {"a": 1}, "algebra": "powerset", "extra": 1}',
        '{"omega_plus": ["a"], "weights": {"a": true}, "algebra": "powerset"}',
        '{"omega_plus": ["a"], "weights": {"a": "x/y"}, "algebra": "powerset"}',
    ]
    for doc in cases:
        with pytest.raises(ParseError):
            parse_document(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            '{"omega_plus": ["a", "b"], "weights": {"a": "1/2", "b": "1/2", "a": "1/2"}, "algebra": "powerset"}',
            "weights: duplicate key 'a'",
        ),
        (
            '{"omega_plus": ["a", "b"], "weights": {"a": "1/2", "b": "1/2"}, "algebra": "powerset", "algebra": "powerset"}',
            "document: duplicate key 'algebra'",
        ),
        (
            '{"omega_plus": ["a"], "weights": {"a": 1}, "algebra": {"generators": [], "generators": [["a"]]}}',
            "algebra: duplicate key 'generators'",
        ),
    ],
    ids=["weights", "top-level", "algebra"],
)
def test_duplicate_keys_are_parse_errors(doc, message):
    with pytest.raises(ParseError) as excinfo:
        parse_document(doc)
    assert str(excinfo.value) == message


def test_atom_ceiling_is_enforced():
    labels = json.dumps([f"w{i}" for i in range(9)])
    weights = json.dumps({f"w{i}": "1/9" for i in range(9)})
    doc = f'{{"omega_plus": {labels}, "weights": {weights}, "algebra": "powerset"}}'
    with pytest.raises(SchemaError):
        parse_space(doc)


def test_generator_algebra_document():
    doc = '{"omega_plus": ["a", "b"], "weights": {"a": "1/2", "b": "1/2"}, "algebra": {"generators": [["a"]]}}'
    space = parse_space(doc)
    assert len(space.fplus) == 4  # singletons generate the powerset here


def test_generator_with_unknown_label():
    doc = '{"omega_plus": ["a"], "weights": {"a": 1}, "algebra": {"generators": [["z"]]}}'
    with pytest.raises(SchemaError):
        parse_space(doc)


# --- serialization round trip -------------------------------------------------


def test_roundtrip_powerset():
    space = parse_space(VALID_DOC)
    assert parse_space(serialize_space(space)) == space


def test_roundtrip_generated_algebra():
    doc = (
        '{"omega_plus": ["a", "b", "c"], '
        '"weights": {"a": "1/2", "b": "1/4", "c": "1/4"}, '
        '"algebra": {"generators": [["a", "b"]]}}'
    )
    space = parse_space(doc)
    assert len(space.fplus) == 4
    again = parse_space(serialize_space(space))
    assert again == space
    assert serialize_space(again) == serialize_space(space)


def test_serialize_refuses_a_space_with_overrides():
    # A document has no field for pinned values: writing one without them
    # would parse back to a different space.
    pinned = parse_space(VALID_DOC).with_override(Event("a"), "7/10")
    with pytest.raises(SchemaError, match="overrides"):
        serialize_space(pinned)


# --- enumeration ------------------------------------------------------------


def test_enumerate_single_atom_order():
    space = make_space(("a",), {"a": 1})
    assert tuple(space.f) == (Event(), Event("a"), Event("-a"))


def test_enumerate_two_atoms_count():
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"})
    events = tuple(space.f)
    assert len(events) == 9
    assert len(set(events)) == 9


def test_enumerate_trivial_algebra():
    from epspace import Family

    fplus = Family.of(Event(), Event("a,b"))
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"}, fplus)
    assert tuple(space.f) == (Event(), Event("a,b"), Event("-a,-b"))


def test_enumeration_closed_under_negation():
    space = make_space(("a", "b", "c"), {"a": "1/2", "b": "1/4", "c": "1/4"})
    events = set(space.f)
    assert {-event for event in events} == events


# --- fuzz generator ----------------------------------------------------------


def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(atoms=0, trials=1)
    with pytest.raises(ValueError):
        FuzzConfig(atoms=9, trials=1)
    with pytest.raises(ValueError):
        FuzzConfig(atoms=1, trials=0)
    with pytest.raises(ValueError):
        FuzzConfig(atoms=1, trials=1, seed=-1)


def test_random_space_is_deterministic():
    config = FuzzConfig(atoms=3, trials=5, seed=99)
    assert random_space(config, 2) == random_space(config, 2)


def test_random_space_weights_sum_to_one():
    config = FuzzConfig(atoms=4, trials=10, seed=7)
    for trial in range(10):
        space = random_space(config, trial)
        assert sum(space.weights.values(), Fraction(0)) == 1
        assert all(w >= 0 for w in space.weights.values())


def test_random_space_trial_bounds():
    config = FuzzConfig(atoms=2, trials=3, seed=1)
    with pytest.raises(ValueError):
        random_space(config, 3)


def test_random_space_algebra_override():
    config = FuzzConfig(atoms=3, trials=4, seed=5)
    forced = random_space(config, 1, algebra="powerset")
    assert len(forced.fplus) == 8
    generated = random_space(config, 1, algebra="generated")
    assert len(generated.fplus) <= 8
    with pytest.raises(ValueError):
        random_space(config, 1, algebra="other")


def test_random_spaces_validate():
    config = FuzzConfig(atoms=3, trials=8, seed=21)
    for trial in range(8):
        assert validate_axioms(random_space(config, trial)).ok
