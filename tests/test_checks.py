"""Axiom validator, classical restriction, and the identity suite."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from epspace import (
    AXIOM_IDS,
    Event,
    Family,
    check_kolmogorov_restriction,
    make_space,
    run_theorem_suite,
    suite_ids,
    validate_axioms,
)

from conftest import spaces


@pytest.fixture
def half_space():
    return make_space(("a", "b"), {"a": "1/2", "b": "1/2"})


# --- validator on sound spaces ----------------------------------------------


def test_single_atom_space_passes_and_has_three_events():
    space = make_space(("a",), {"a": 1})
    assert len(space.f) == 3
    report = validate_axioms(space)
    assert report.ok
    assert [entry.check_id for entry in report] == list(AXIOM_IDS)


def test_validator_passes_on_weighted_space():
    space = make_space(("a", "b", "c"), {"a": "1/2", "b": "3/10", "c": "1/5"})
    assert validate_axioms(space).ok


def test_validator_passes_on_subalgebra_space():
    fplus = Family.of(Event(), Event("a,b"))
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"}, fplus)
    assert validate_axioms(space).ok


def test_validator_passes_with_zero_weight_atom():
    space = make_space(("a", "b"), {"a": 1, "b": 0})
    assert validate_axioms(space).ok


@given(spaces())
@settings(max_examples=25)
def test_validator_passes_on_generated_spaces(space):
    assert validate_axioms(space).ok


def test_sampled_mode_is_deterministic_and_sound(half_space):
    first = validate_axioms(half_space, trials=50, seed=11)
    second = validate_axioms(half_space, trials=50, seed=11)
    assert first.ok
    assert first.text() == second.text()
    assert "sampled trials=50 seed=11" in first.entry("EP5").note


def test_exhaustive_report_is_deterministic(half_space):
    assert validate_axioms(half_space).text() == validate_axioms(half_space).text()


# --- report shape -----------------------------------------------------------


def test_report_lines_and_json(half_space):
    report = validate_axioms(half_space)
    lines = report.lines()
    assert lines[0] == "EP1 PASS"
    assert lines[4] == "EP5 PASS"
    assert lines[5] == "EP5p PASS"
    payload = json.loads(report.as_json())
    assert [item["checkId"] for item in payload] == list(AXIOM_IDS)
    assert all(item["passed"] for item in payload)
    assert payload[0]["counterexample"] is None


def test_failed_entries_carry_counterexamples(half_space):
    broken = half_space.with_override(Event("a"), 2)
    report = validate_axioms(broken)
    for entry in report.failures():
        assert entry.counterexample


def test_report_entry_lookup(half_space):
    report = validate_axioms(half_space)
    assert report.entry("EP9").note.startswith("finitely vacuous")
    with pytest.raises(KeyError):
        report.entry("EP99")


# --- fault injection --------------------------------------------------------


def test_negative_weight_fails_nonnegativity():
    space = make_space(("a", "b"), {"a": "3/2", "b": "-1/2"}, check=False)
    report = validate_axioms(space)
    assert not report.ok
    entry = report.entry("EP8")
    assert not entry.passed
    assert entry.counterexample == (("event", "b"), ("value", "-1/2"))
    # normalization still holds: the weights sum to 1
    assert report.entry("EP3").passed


def test_negative_weight_fails_classical_restriction():
    space = make_space(("a", "b"), {"a": "3/2", "b": "-1/2"}, check=False)
    restriction = check_kolmogorov_restriction(space)
    assert not restriction.entry("K1").passed
    assert restriction.entry("K2").passed


def test_override_breaks_additivity(half_space):
    broken = half_space.with_override(Event("a"), 2)
    report = validate_axioms(broken)
    entry = report.entry("EP5")
    assert not entry.passed
    assert entry.counterexample == (
        ("A", "a"),
        ("B", "b"),
        ("union", "a,b"),
        ("lhs", "5/2"),
        ("rhs", "1"),
    )
    assert not report.entry("EP5p").passed
    assert not report.entry("EP10").passed


def test_override_keeps_implication_sound(half_space):
    # With the override, the additivity premises fail alongside the
    # conclusion, so the implication entry still passes.
    broken = half_space.with_override(Event("a"), 2)
    suite = run_theorem_suite(broken, ["T6"])
    assert suite.entry("T6").passed
    assert "EP5=FAIL" in suite.entry("T6").note


def test_bad_normalization_detected_when_unchecked():
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/3"}, check=False)
    report = validate_axioms(space)
    assert not report.entry("EP3").passed


# A positive family without the empty event composes to a family with no
# positive member at all: here only {a,-b; -a,b}.
def _space_without_empty_event():
    return make_space(
        ("a", "b", "c"), {"a": "1/2", "b": "1/4", "c": "1/4"},
        [Event("a"), Event("b"), Event("a,b,c")], check=False,
    )


UNMEASURABLE_SPACES = {
    "no-empty-event": _space_without_empty_event,
    "no-full-event": lambda: make_space(
        ("a", "b"), {"a": "1/2", "b": "1/2"}, [Event(), Event("a")], check=False
    ),
    # {a} has no disjoint partner, so the composed family is empty.
    "empty-composition": lambda: make_space(
        ("a", "b"), {"a": "1/2", "b": "1/2"}, [Event("a")], check=False
    ),
}


def test_unmeasurable_full_and_empty_events_are_report_failures():
    space = _space_without_empty_event()
    report = validate_axioms(space)
    assert report.entry("EP3").line() == "EP3 FAIL event=a,b,c reason=not measurable"
    assert report.entry("EP5p").line() == "EP5p FAIL event=a reason=not measurable"
    assert report.entry("EP8").line() == "EP8 FAIL event=a reason=not measurable"
    assert report.entry("EP9").line().startswith("EP9 FAIL event={} reason=not measurable (")
    assert report.entry("EP10").line() == "EP10 FAIL event=a,-b reason=part not measurable"
    assert check_kolmogorov_restriction(space).lines() == [
        "K1 FAIL event=a reason=not measurable",
        "K2 FAIL event=a,b,c reason=not measurable",
        "K3 FAIL event=a reason=not measurable",
    ]
    suite = run_theorem_suite(space)
    assert suite.entry("L10").line() == "L10 FAIL reason=not measurable"
    assert suite.entry("T5").line().startswith("T5 FAIL reason=not measurable (")
    assert suite.entry("T7").line() == "T7 FAIL event=a reason=not measurable (K1 failed)"
    assert suite.entry("P9").line() == "P9 FAIL event={} reason=not measurable"


def test_c4_reports_the_empty_event_missing_not_shared():
    # Without the empty event the positive and mirror families share nothing.
    entry = run_theorem_suite(_space_without_empty_event(), ["C4"]).entry("C4")
    assert entry.line() == "C4 FAIL missing={}"
    assert entry.as_json()["counterexample"] == {"missing": "{}"}


@pytest.mark.parametrize("name", sorted(UNMEASURABLE_SPACES))
def test_spaces_without_full_or_empty_event_report_every_check(name):
    space = UNMEASURABLE_SPACES[name]()
    reports = [
        validate_axioms(space),
        validate_axioms(space, trials=30, seed=5),
        check_kolmogorov_restriction(space),
        run_theorem_suite(space),
    ]
    for report in reports:
        assert not report.ok
        assert all(entry.counterexample for entry in report.failures())
    assert not reports[0].entry("EP3").passed
    suite = reports[-1]
    for check_id in suite_ids():
        assert run_theorem_suite(space, [check_id]).entries == (suite.entry(check_id),)


# --- classical restriction ---------------------------------------------------


def test_restriction_passes_on_valid_space(half_space):
    report = check_kolmogorov_restriction(half_space)
    assert report.ok
    assert [entry.check_id for entry in report] == ["K1", "K2", "K3"]


@given(spaces())
@settings(max_examples=25)
def test_restriction_passes_on_generated_spaces(space):
    assert check_kolmogorov_restriction(space).ok


# --- identity suite ----------------------------------------------------------


def test_suite_passes_on_small_spaces(half_space):
    report = run_theorem_suite(half_space)
    assert report.ok
    assert [entry.check_id for entry in report] == list(suite_ids())


def test_suite_passes_on_subalgebra_space():
    fplus = Family.of(Event(), Event("a,b"))
    space = make_space(("a", "b"), {"a": "1/2", "b": "1/2"}, fplus)
    assert run_theorem_suite(space).ok


def test_suite_reports_distributivity_witness():
    space = make_space(("a",), {"a": 1})
    entry = run_theorem_suite(space, ["L5"]).entry("L5")
    assert entry.passed
    assert entry.counterexample == (
        ("X", "a"),
        ("Y", "-a"),
        ("Z", "a"),
        ("lhs", "{}"),
        ("rhs", "a"),
    )


def test_suite_notes_associativity_refutation():
    space = make_space(("a",), {"a": 1})
    entry = run_theorem_suite(space, ["L4"]).entry("L4")
    assert entry.passed
    assert "refuted by X=a Y=a Z=-a" in entry.note


def test_suite_subset_selection(half_space):
    report = run_theorem_suite(half_space, ["P10"])
    assert len(report) == 1
    assert report.entry("P10").passed


def test_suite_runs_a_repeated_id_once(half_space):
    report = run_theorem_suite(half_space, ["P6", "L6", "P6", "L6"])
    assert [entry.check_id for entry in report] == ["L6", "P6"]
    assert report == run_theorem_suite(half_space, ["L6", "P6"])


def test_suite_rejects_unknown_id(half_space):
    with pytest.raises(ValueError):
        run_theorem_suite(half_space, ["P99"])


def test_suite_is_deterministic(half_space):
    assert run_theorem_suite(half_space).text() == run_theorem_suite(half_space).text()


def test_suite_catches_override_damage(half_space):
    broken = half_space.with_override(Event("a"), 2)
    report = run_theorem_suite(broken)
    failed = {entry.check_id for entry in report.failures()}
    # bounds, antisymmetry, and monotonicity all see the pinned value
    assert "P11b" in failed
    assert "P8" in failed
    assert "T4b" in failed


def test_suite_id_catalog_is_complete():
    ids = suite_ids()
    assert len(ids) == 36
    assert ids[0] == "C1"
    assert "T4a" in ids and "T4b" in ids
    assert "P11a" in ids and "P11b" in ids
