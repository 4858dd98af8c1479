"""Signed atoms and events with annihilation semantics.

An event is a finite set of signed atoms: outcomes such as ``a`` and their
anti-outcomes such as ``-a``.  A well-formed :class:`Event` never carries both
signs of one label; bringing ``a`` and ``-a`` together annihilates both.
Raw collections that may still contain duplicates or annihilating pairs are
*drafts* (any iterable of atoms and whole events, or the ``a,-b`` text form);
:func:`normalize` collapses a draft to the event it denotes.

Two equality notions follow:

* literal equality -- ``Event.__eq__``, same atoms on both sides;
* annihilated equality -- :func:`annihilated_equals`, equality after
  cancelling opposite-sign pairs.  Literal equality implies it.

The central operation is the annihilating union ``X + Y``: the plain union
with every cross pair ``{w, -w}`` removed.  It is commutative, associative,
idempotent, has the empty event as unit, and collapses ``X + (-X)`` to the
empty event.  Plain union and symmetric difference are only partial on
events (the result may want both signs of a label), so :func:`plain_union`
and :func:`plain_symmetric_difference` return ``None`` in that case.

All values are immutable and all functions are pure; everything here is safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import InvalidEventError, ParseError

__all__ = [
    "Atom",
    "Event",
    "Draft",
    "parse_atom",
    "parse_draft",
    "normalize",
    "negate",
    "annihilating_union",
    "intersection",
    "difference",
    "annihilated_equals",
    "plain_union",
    "plain_symmetric_difference",
    "canonical_key",
]

LABEL_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_EMPTY = frozenset()


@dataclass(frozen=True)
class Atom:
    """A signed elementary outcome: ``Atom("a")`` or its anti-outcome ``Atom("a", False)``."""

    label: str
    positive: bool = True

    def __post_init__(self) -> None:
        if not LABEL_PATTERN.match(self.label):
            raise InvalidEventError(f"bad atom label {self.label!r}")

    def __neg__(self) -> "Atom":
        return Atom(self.label, not self.positive)

    @property
    def key(self) -> tuple[str, int]:
        """Sort key: by label, positive before negative."""
        return (self.label, 0 if self.positive else 1)

    @property
    def text(self) -> str:
        return self.label if self.positive else "-" + self.label

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Atom({self.text!r})"


def parse_atom(token: str) -> Atom:
    """Parse a signed label token such as ``a`` or ``-a``."""
    token = token.strip()
    if token.startswith("-"):
        label, positive = token[1:], False
    else:
        label, positive = token, True
    if not LABEL_PATTERN.match(label):
        raise ParseError(
            f"bad atom {token!r}: labels match [A-Za-z_][A-Za-z0-9_]* "
            "with an optional leading '-'"
        )
    return Atom(label, positive)


def parse_draft(text: str) -> tuple[Atom, ...]:
    """Parse comma-separated signed labels into a draft.

    Duplicates and annihilating pairs are allowed here; ``""`` and ``"{}"``
    both denote the empty draft.
    """
    stripped = text.strip()
    if stripped in ("", "{}"):
        return ()
    return tuple(parse_atom(token) for token in stripped.split(","))


class Event:
    """An immutable set of atoms in which no label carries both signs.

    Accepts an iterable of :class:`Atom` or the ``a,-b`` text form::

        Event("a,-b") == Event([Atom("a"), Atom("b", False)])

    Operators: ``-x`` negation, ``x + y`` annihilating union, ``x & y``
    intersection, ``x - y`` difference, ``x <= y`` subset.  ``==`` is literal
    set equality.
    """

    __slots__ = ("_pos", "_neg", "_hash")

    def __init__(self, atoms: "Iterable[Atom] | str" = ()):
        if isinstance(atoms, str):
            atoms = parse_draft(atoms)
        pos: set[str] = set()
        neg: set[str] = set()
        for atom in atoms:
            (pos if atom.positive else neg).add(atom.label)
        clash = pos & neg
        if clash:
            raise InvalidEventError(
                "label(s) carry both signs: " + ", ".join(sorted(clash))
            )
        self._pos = frozenset(pos)
        self._neg = frozenset(neg)
        self._hash = hash((self._pos, self._neg))

    @classmethod
    def _raw(cls, pos: frozenset, neg: frozenset) -> "Event":
        # Fast path for callers that already guarantee pos/neg are disjoint.
        ev = cls.__new__(cls)
        ev._pos = pos
        ev._neg = neg
        ev._hash = hash((pos, neg))
        return ev

    @property
    def positive_labels(self) -> frozenset:
        return self._pos

    @property
    def negative_labels(self) -> frozenset:
        return self._neg

    @property
    def positive_part(self) -> "Event":
        return Event._raw(self._pos, _EMPTY)

    @property
    def negative_part(self) -> "Event":
        return Event._raw(_EMPTY, self._neg)

    def split(self) -> "tuple[Event, Event]":
        """(positive part, negative part): disjoint, plain union gives the event back."""
        return (self.positive_part, self.negative_part)

    @property
    def is_positive(self) -> bool:
        """True when every atom is positive (the empty event counts)."""
        return not self._neg

    @property
    def is_negative(self) -> bool:
        return not self._pos

    def issubset(self, other: "Event") -> bool:
        return self._pos <= other._pos and self._neg <= other._neg

    __le__ = issubset

    def isdisjoint(self, other: "Event") -> bool:
        return self._pos.isdisjoint(other._pos) and self._neg.isdisjoint(other._neg)

    def __iter__(self) -> Iterator[Atom]:
        for label in sorted(self._pos | self._neg):
            yield Atom(label, label in self._pos)

    def __len__(self) -> int:
        return len(self._pos) + len(self._neg)

    def __bool__(self) -> bool:
        return bool(self._pos or self._neg)

    def __contains__(self, atom: Atom) -> bool:
        return atom.label in (self._pos if atom.positive else self._neg)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._pos == other._pos and self._neg == other._neg

    def __hash__(self) -> int:
        return self._hash

    def __neg__(self) -> "Event":
        return Event._raw(self._neg, self._pos)

    def __add__(self, other: "Event") -> "Event":
        if not isinstance(other, Event):
            return NotImplemented
        return annihilating_union(self, other)

    def __and__(self, other: "Event") -> "Event":
        if not isinstance(other, Event):
            return NotImplemented
        return intersection(self, other)

    def __sub__(self, other: "Event") -> "Event":
        if not isinstance(other, Event):
            return NotImplemented
        return difference(self, other)

    def text(self) -> str:
        """Canonical text form: ``a,-b,c`` sorted by label; ``{}`` when empty."""
        if not self:
            return "{}"
        pos = self._pos
        return ",".join(
            label if label in pos else "-" + label for label in sorted(pos | self._neg)
        )

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Event({self.text()!r})"


EMPTY_EVENT = Event()

# A draft: any collection of atoms and whole events that may still contain
# duplicates or annihilating pairs; an event part stands for all its atoms.
# Events and text forms are accepted wherever a draft is.
Draft = Iterable["Atom | Event"]


def _label_sets(source: "Event | Draft | str") -> tuple[frozenset, frozenset]:
    if isinstance(source, Event):
        return source._pos, source._neg
    if isinstance(source, str):
        source = parse_draft(source)
    pos: set[str] = set()
    neg: set[str] = set()
    for part in source:
        if isinstance(part, Event):
            pos |= part._pos
            neg |= part._neg
        else:
            (pos if part.positive else neg).add(part.label)
    return frozenset(pos), frozenset(neg)


def normalize(draft: "Event | Draft | str") -> Event:
    """Collapse a draft to the event it denotes.

    The parts of a draft are atoms or whole events, whose atoms are pooled:
    ``normalize((x, Atom("a"), Atom("a", False)))`` denotes the same event as
    ``normalize(tuple(x) + (Atom("a"), Atom("a", False)))``.  Duplicates
    collapse to set membership first; then every label present with both
    signs loses *both* occurrences.  Idempotent.
    """
    pos, neg = _label_sets(draft)
    clash = pos & neg
    return Event._raw(pos - clash, neg - clash)


def negate(event: Event) -> Event:
    """Flip the sign of every atom; an involution."""
    return -event


def annihilating_union(x: Event, y: Event) -> Event:
    """Union with annihilation: pool the atoms, then cancel opposite-sign pairs.

    Equals ``normalize`` of the concatenation of the two events.
    """
    pos = x._pos | y._pos
    neg = x._neg | y._neg
    clash = pos & neg
    return Event._raw(pos - clash, neg - clash)


def intersection(x: Event, y: Event) -> Event:
    """Plain set intersection (no annihilation can arise)."""
    return Event._raw(x._pos & y._pos, x._neg & y._neg)


def difference(x: Event, y: Event) -> Event:
    """Plain set difference (no annihilation can arise)."""
    return Event._raw(x._pos - y._pos, x._neg - y._neg)


def annihilated_equals(x: "Event | Draft | str", y: "Event | Draft | str") -> bool:
    """Equality after annihilation; an equivalence relation on drafts.

    On well-formed events it coincides with literal equality.
    """
    return normalize(x) == normalize(y)


def plain_union(x: Event, y: Event) -> "Event | None":
    """Set-theoretic union, or ``None`` if it would put both signs on a label."""
    pos = x._pos | y._pos
    neg = x._neg | y._neg
    if pos & neg:
        return None
    return Event._raw(pos, neg)


def plain_symmetric_difference(x: Event, y: Event) -> "Event | None":
    """Atoms in exactly one operand, or ``None`` when unrepresentable as an event."""
    pos = x._pos ^ y._pos
    neg = x._neg ^ y._neg
    if pos & neg:
        return None
    return Event._raw(pos, neg)


def canonical_key(event: Event):
    """Deterministic event ordering: by size, then signed-label order.

    Positive sorts before negative on the same label, so singletons order as
    ``{a}`` before ``{-a}``.
    """
    signed = [(label, 0) for label in event._pos] + [(label, 1) for label in event._neg]
    return (len(event), tuple(sorted(signed)))


class LabelMask:
    """Packs events over a fixed label order into ints, and back.

    Label ``labels[i]`` sets bit ``i`` when positive and bit ``n + i`` when
    negative, so an event packs to ``pos | neg << n``.  On packed events,
    intersection is ``&``, difference is ``x & ~y``, symmetric difference is
    ``^``, and ``m & low`` / ``m & high`` are the positive and negative parts;
    :meth:`union`, :meth:`negate` and :meth:`complement` do the rest.  Hot
    loops over a whole family work on these ints and decode only what they
    report.
    """

    __slots__ = ("labels", "n", "low", "high", "_bit")

    def __init__(self, labels: Iterable[str]):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.low = (1 << self.n) - 1
        self.high = self.low << self.n
        self._bit = {label: 1 << i for i, label in enumerate(self.labels)}

    def union(self, x: int, y: int) -> int:
        """Annihilating union: pool the bits, then clear every label set in both halves."""
        pooled = x | y
        clash = pooled & (pooled >> self.n) & self.low
        return pooled & ~(clash | clash << self.n)

    def negate(self, mask: int) -> int:
        return (mask & self.low) << self.n | mask >> self.n

    def complement(self, mask: int) -> int:
        """Part-wise complement joined with annihilation, as
        :meth:`ExtendedSpace.complement <epspace.measure.ExtendedSpace.complement>`."""
        return self.union(self.low & ~mask, self.high & ~mask)

    def support(self, mask: int) -> int:
        """The labels an event uses, as a bitmask over ``labels``."""
        return (mask | mask >> self.n) & self.low

    def encode(self, event: Event) -> int:
        bit = self._bit
        mask = 0
        for label in event._pos:
            mask |= bit[label]
        for label in event._neg:
            mask |= bit[label] << self.n
        return mask

    def decode(self, mask: int) -> Event:
        labels, n = self.labels, self.n
        return Event._raw(
            frozenset(label for i, label in enumerate(labels) if mask >> i & 1),
            frozenset(label for i, label in enumerate(labels) if mask >> (n + i) & 1),
        )
