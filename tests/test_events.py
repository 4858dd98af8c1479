"""Signed atoms, events, annihilation, and the event-level algebra."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from epspace import (
    Atom,
    Event,
    InvalidEventError,
    ParseError,
    annihilated_equals,
    canonical_key,
    intersection,
    negate,
    normalize,
    parse_atom,
    parse_draft,
    plain_symmetric_difference,
    plain_union,
)

from conftest import LABELS, atoms, drafts, events, positive_events


def formula_union(x: Event, y: Event) -> frozenset:
    """Independent oracle: union minus the annihilating entities, on raw atom sets."""
    xs, ys = frozenset(x), frozenset(y)
    neg_xs = frozenset(-a for a in xs)
    neg_ys = frozenset(-a for a in ys)
    return (xs | ys) - ((xs & neg_ys) | (neg_xs & ys))


def signs_oracle(draft) -> Event:
    """Independent oracle for normalize: per-label sign census, keep single-sign labels."""
    seen: dict[str, set[bool]] = {}
    for atom in draft:
        seen.setdefault(atom.label, set()).add(atom.positive)
    kept = [Atom(lbl, sign.pop()) for lbl, sign in seen.items() if len(sign) == 1]
    return Event(kept)


# --- negation ---------------------------------------------------------------


def test_negate_flips_every_sign():
    assert -Event("a,-b") == Event("-a,b")


def test_negate_empty():
    assert -Event() == Event()


def test_negate_is_involution_on_example():
    assert negate(negate(Event("a,c"))) == Event("a,c")


@given(events)
def test_negate_is_involution(event):
    assert -(-event) == event


@given(events)
def test_negate_has_no_fixed_points(event):
    if event:
        assert -event != event


# --- split ------------------------------------------------------------------


def test_split_examples():
    assert Event("a,-b,c").split() == (Event("a,c"), Event("-b"))
    assert Event().split() == (Event(), Event())
    assert Event("-a,-b").split() == (Event(), Event("-a,-b"))


@given(events)
def test_split_partitions(event):
    pos, neg = event.split()
    assert intersection(pos, neg) == Event()
    assert plain_union(pos, neg) == event
    assert all(a.positive for a in pos)
    assert all(not a.positive for a in neg)


# --- normalize --------------------------------------------------------------


def test_normalize_cancels_pair():
    assert normalize([Atom("a"), Atom("a", False)]) == Event()


def test_normalize_keeps_survivors():
    assert normalize([Atom("a"), Atom("a", False), Atom("b")]) == Event("b")


def test_normalize_collapses_duplicates_before_cancelling():
    assert normalize([Atom("a"), Atom("a"), Atom("b", False)]) == Event("a,-b")


@given(drafts)
def test_normalize_matches_sign_census_oracle(draft):
    assert normalize(draft) == signs_oracle(draft)


@given(drafts)
def test_normalize_is_idempotent(draft):
    once = normalize(draft)
    assert normalize(once) == once


@given(events, st.sampled_from(LABELS))
def test_event_parts_pool_their_atoms(event, label):
    pair = (Atom(label), Atom(label, False))
    assert normalize((event, *pair)) == normalize(tuple(event) + pair)


@given(st.lists(st.one_of(atoms, events), max_size=6))
def test_drafts_with_event_parts_match_their_atoms(parts):
    flat = [atom for part in parts for atom in (part if isinstance(part, Event) else (part,))]
    assert normalize(parts) == signs_oracle(flat)


# --- annihilating union -----------------------------------------------------


def test_union_total_annihilation():
    assert Event("a") + Event("-a") == Event()


@given(events)
def test_union_empty_is_unit(event):
    assert event + Event() == event


def test_union_cancels_elementwise():
    assert Event("a,-b") + Event("b,c") == Event("a,c")


@given(events, events)
def test_union_matches_formula_oracle(x, y):
    assert frozenset(x + y) == formula_union(x, y)


@given(events, events)
def test_union_is_normalized_concatenation(x, y):
    assert x + y == normalize(tuple(x) + tuple(y))


@given(events)
def test_union_is_idempotent(x):
    assert x + x == x


@given(events, events)
def test_union_is_commutative(x, y):
    assert x + y == y + x


@given(events, events, events)
def test_union_associates_without_a_label_in_all_three(x, y, z):
    shared = (
        (x.positive_labels | x.negative_labels)
        & (y.positive_labels | y.negative_labels)
        & (z.positive_labels | z.negative_labels)
    )
    if not shared:
        assert (x + y) + z == x + (y + z)


def test_union_is_not_associative_in_general():
    # Idempotence plus annihilation rule associativity out; the minimal
    # refutation lives on one label.
    x, y, z = Event("a"), Event("a"), Event("-a")
    assert (x + y) + z == Event()
    assert x + (y + z) == Event("a")


@given(events)
def test_union_with_negation_annihilates(x):
    assert x + (-x) == Event()
    assert annihilated_equals(tuple(x) + tuple(-x), Event())


@given(positive_events, positive_events)
def test_union_is_plain_on_one_sign(x, y):
    assert x + y == plain_union(x, y)
    assert (-x) + (-y) == plain_union(-x, -y)


# --- intersection / difference ----------------------------------------------


def test_intersection_examples():
    assert Event("a,-b") & Event("a,b") == Event("a")
    assert Event("a,-b") & Event("-b,c") == Event("-b")
    assert Event("a,c") & Event() == Event()


def test_difference_examples():
    assert Event("a,-b") - Event("a") == Event("-b")
    assert Event("a,-b") - Event("a,-b") == Event()
    assert Event("a,-b,c") - Event("-b,c") == Event("a")


@given(events, events)
def test_intersection_is_plain_set_intersection(x, y):
    assert frozenset(x & y) == frozenset(x) & frozenset(y)


@given(events, events)
def test_difference_is_plain_set_difference(x, y):
    assert frozenset(x - y) == frozenset(x) - frozenset(y)


@given(events, events)
def test_intersection_decomposes_through_parts(a, b):
    ap, an = a.split()
    bp, bn = b.split()
    assert a & b == (ap & bp) + (an & bn)


@given(events, events)
def test_difference_decomposes_through_parts(a, b):
    ap, an = a.split()
    bp, bn = b.split()
    assert a - b == (ap - bp) + (an - bn)


# --- annihilated equality ---------------------------------------------------


def test_annihilated_equals_examples():
    assert annihilated_equals([Atom("a"), Atom("a", False)], Event())
    assert annihilated_equals(Event("a"), Event("a"))
    assert not annihilated_equals(Event("a"), Event("b"))


def test_annihilated_equals_accepts_text_drafts():
    assert annihilated_equals("a,-a", "{}")
    assert annihilated_equals("a,-a,b", "b")


@given(drafts)
def test_annihilated_equals_is_reflexive(draft):
    assert annihilated_equals(draft, draft)


@given(drafts, drafts)
def test_annihilated_equals_is_symmetric(x, y):
    assert annihilated_equals(x, y) == annihilated_equals(y, x)


@given(drafts, drafts, drafts)
def test_annihilated_equals_is_transitive(x, y, z):
    if annihilated_equals(x, y) and annihilated_equals(y, z):
        assert annihilated_equals(x, z)


@given(events, events)
def test_literal_equality_implies_annihilated(x, y):
    if x == y:
        assert annihilated_equals(x, y)


# --- construction, parsing, ordering ----------------------------------------


def test_event_rejects_label_with_both_signs():
    with pytest.raises(InvalidEventError):
        Event([Atom("a"), Atom("a", False)])


def test_atom_rejects_bad_label():
    with pytest.raises(InvalidEventError):
        Atom("1bad")
    with pytest.raises(InvalidEventError):
        Atom("")


def test_parse_atom():
    assert parse_atom("-x") == Atom("x", False)
    assert parse_atom(" a ") == Atom("a")
    with pytest.raises(ParseError):
        parse_atom("--a")
    with pytest.raises(ParseError):
        parse_atom("")


def test_parse_draft_and_text_roundtrip():
    assert parse_draft("") == ()
    assert parse_draft("{}") == ()
    assert Event("a,-b,c").text() == "a,-b,c"
    assert Event().text() == "{}"
    assert Event(Event("c,-b,a").text()) == Event("a,-b,c")


@given(events)
def test_text_matches_atom_form(event):
    # text() formats from the label sets; it must equal the text spelled
    # through the event's atoms.
    expected = ",".join(atom.text for atom in event) if event else "{}"
    assert event.text() == expected


def test_parse_draft_allows_annihilating_pairs():
    assert parse_draft("a,-a") == (Atom("a"), Atom("a", False))
    with pytest.raises(InvalidEventError):
        Event("a,-a")


def test_parse_rejects_empty_token():
    with pytest.raises(ParseError):
        parse_draft("a,,b")


def test_canonical_order_puts_positive_first():
    ordered = sorted([Event("-a"), Event("a"), Event()], key=canonical_key)
    assert ordered == [Event(), Event("a"), Event("-a")]


def test_canonical_order_by_size_then_labels():
    # label order dominates sign order across different labels
    ordered = sorted(
        [Event("a,-b"), Event("b"), Event("a,b"), Event("-a")], key=canonical_key
    )
    assert ordered == [Event("-a"), Event("b"), Event("a,b"), Event("a,-b")]


@given(events)
def test_canonical_key_matches_atom_form(event):
    # The key is built from the label sets; it must equal the key spelled
    # through the event's atoms.
    assert canonical_key(event) == (len(event), tuple(atom.key for atom in event))


def test_plain_union_none_on_sign_clash():
    assert plain_union(Event("a"), Event("-a")) is None
    assert plain_union(Event("a"), Event("b")) == Event("a,b")


def test_plain_symmetric_difference():
    assert plain_symmetric_difference(Event("a,b"), Event("b,c")) == Event("a,c")
    assert plain_symmetric_difference(Event("a"), Event("-a")) is None


@given(events, events)
def test_intersection_with_negation_commutes_with_negating(x, y):
    assert x & (-y) == -((-x) & y)
