"""Finite families of events: set rings, set algebras, set fields.

A *set ring* is a family closed under intersection and symmetric difference
(equivalently: under union, intersection, and difference).  A *set algebra*
is a ring with a unit member ``E`` satisfying ``A & E == A`` for every
member; a *set field* is an algebra over a universe that is also closed
under complement within that universe.

The ring/algebra/field predicates apply to families whose members are
sign-homogeneous (each member entirely positive or entirely negative).
:func:`is_set_algebra` keeps its verdict on the family it proves, so a
family's structure is proved once however many checks ask.
:func:`mirror_family` negates a positive family elementwise, and
:func:`compose_family` pairs each positive member with each disjoint
negative mirror member, producing the measurable events of a signed space:
``A | -B`` for disjoint ``A, B`` in the positive family.  For the full
powerset over ``n`` labels the composition has exactly ``3**n`` members
(each label independently present-positive, present-negative, or absent).
It pairs the members as packed ints (:class:`LabelMask`) and emits the
composition already in canonical order, so iterating it sorts nothing.

A space's composed family is built the first time it is read
(:meth:`Family._composed_on_read`).  Until then membership is answered from
the positive family alone, so evaluating one event never composes the
``3**n`` members.  Everything else is exhaustive over explicit finite
families; :func:`is_set_ring` decides from a family's atoms, its minimal
nonzero members.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

from .errors import SchemaError
from .events import (
    Atom,
    Event,
    LABEL_PATTERN,
    LabelMask,
    canonical_key,
    plain_union,
)

__all__ = [
    "GroundSet",
    "Family",
    "is_set_ring",
    "is_set_algebra",
    "is_set_field",
    "generate_algebra",
    "mirror_family",
    "compose_family",
    "powerset_family",
]


@dataclass(frozen=True)
class GroundSet:
    """The ordered positive labels; the negative half is its implicit mirror."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise SchemaError("ground set must contain at least one label")
        if len(set(labels)) != len(labels):
            raise SchemaError("ground set labels must be pairwise distinct")
        for label in labels:
            if not LABEL_PATTERN.match(label):
                raise SchemaError(f"bad ground label {label!r}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def omega_plus(self) -> Event:
        return Event(Atom(label) for label in self.labels)

    @property
    def omega_minus(self) -> Event:
        return Event(Atom(label, False) for label in self.labels)


@dataclass(frozen=True)
class Family:
    """An immutable finite collection of events, iterated in canonical order.

    ``kind`` is descriptive metadata ("plain", "positive-algebra",
    "negative-mirror", "composed") and does not take part in equality.
    A family from :meth:`_composed_on_read` has no ``events`` until it is
    first read; only membership is answered before that.
    """

    events: frozenset
    kind: str = field(default="plain", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", frozenset(self.events))

    @classmethod
    def of(cls, *events: Event, kind: str = "plain") -> "Family":
        return cls(frozenset(events), kind)

    @classmethod
    def _in_order(cls, ordered: tuple, kind: str) -> "Family":
        """A family of ``ordered``, whose members are already in canonical
        order: the order is kept as given and never sorted."""
        family = cls(frozenset(ordered), kind)
        object.__setattr__(family, "_ordered", ordered)
        return family

    @classmethod
    def _composed_on_read(cls, fplus: "Family", compose) -> "Family":
        """The composition of the positive family ``fplus``, built by
        ``compose(fplus)`` the first time it is read.

        Until then ``event in family`` is decided from ``fplus`` alone: the
        event's positive part and its negated negative part must both be
        members, which is :func:`compose_family`'s definition, whether or not
        ``fplus`` is an algebra.  Reading ``events``, iterating, ``len``,
        ``==``, ``hash`` and ``repr`` build the family and see exactly what
        ``compose(fplus)`` returns, in its order.
        """
        family = object.__new__(cls)
        object.__setattr__(family, "kind", "composed")
        object.__setattr__(family, "_unbuilt", (fplus, compose))
        return family

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks, which for a
        # composition not yet built includes its events and its order.
        unbuilt = self.__dict__.get("_unbuilt")
        if unbuilt is None or name not in ("events", "_ordered"):
            raise AttributeError(name)
        fplus, compose = unbuilt
        built = compose(fplus)
        object.__setattr__(self, "_ordered", tuple(built))
        object.__setattr__(self, "events", built.events)
        return getattr(self, name)

    def __iter__(self) -> Iterator[Event]:
        # The canonical order is sorted on first use (or given by _in_order)
        # and kept on the instance, outside the dataclass fields, so equality
        # and hash never see it.
        try:
            ordered = self._ordered
        except AttributeError:
            ordered = tuple(sorted(self.events, key=canonical_key))
            object.__setattr__(self, "_ordered", ordered)
        return iter(ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __contains__(self, event: Event) -> bool:
        try:
            events = self.__dict__["events"]
        except KeyError:
            members = self._unbuilt[0].events
            return event.positive_part in members and -event.negative_part in members
        return event in events

    def issubset(self, other: "Family") -> bool:
        return self.events <= other.events

    def texts(self) -> tuple[str, ...]:
        """Member texts in canonical order; the serialized form used in docs and tests."""
        return tuple(event.text() for event in self)

    def __repr__(self) -> str:
        return f"Family([{', '.join(self.texts())}], kind={self.kind!r})"


def _require_homogeneous(family: Family) -> None:
    mixed = [member for member in family.events if member.positive_labels and member.negative_labels]
    if mixed:
        raise ValueError(
            f"mixed-sign member {min(mixed, key=canonical_key).text()!r}: ring/algebra "
            "predicates apply to sign-homogeneous families"
        )


def is_set_ring(family: Family) -> bool:
    """True iff the family is closed under intersection and symmetric difference.

    For finite families this is equivalent to closure under union,
    intersection, and difference.  Members must be sign-homogeneous.

    Decided on packed members (:class:`LabelMask`) from the family's atoms,
    its minimal nonzero members, in ``O(|F| * k)`` for ``k`` atoms.  Taken
    in popcount order, a member with no earlier atom below it is an atom.
    A nonempty family is a ring iff its atoms are pairwise disjoint, every
    member is a union of atoms, and it has ``2**k`` members: then it holds
    every union of its atoms (the empty event too), and those are closed
    under ``&`` and ``^``.  A symmetric difference that would give a label
    both signs is never a member key, so that case needs no test of its own.
    """
    _require_homogeneous(family)
    labels: set[str] = set()
    for member in family.events:
        labels |= member.positive_labels | member.negative_labels
    codec = LabelMask(sorted(labels))
    keys = {codec.encode(member) for member in family.events}
    if not keys:
        return True
    atoms: list[int] = []
    covered = 0
    for key in sorted(keys, key=int.bit_count):
        below = 0
        for atom in atoms:
            if atom & key == atom:
                below |= atom
        if below:
            if below != key:
                return False
        elif key:
            if key & covered:
                return False
            atoms.append(key)
            covered |= key
    return len(keys) == 1 << len(atoms)


def is_set_algebra(family: Family) -> tuple[bool, Event | None]:
    """Ring-with-unit check; returns ``(ok, unit)``.

    The only possible unit is the union of all members (a unit must contain
    every member and itself be a member), so that candidate is computed and
    then verified explicitly.  The verdict is kept on the family instance,
    outside the dataclass fields, so equality and hash never see it and a
    second call proves nothing again.
    """
    try:
        return family._algebra
    except AttributeError:
        pass
    verdict = _algebra_verdict(family)
    object.__setattr__(family, "_algebra", verdict)
    return verdict


def _algebra_verdict(family: Family) -> tuple[bool, Event | None]:
    if not is_set_ring(family) or not family.events:
        return (False, None)
    candidate = reduce(
        lambda acc, e: None if acc is None else plain_union(acc, e),
        family.events,
        Event(),
    )
    if candidate is None or candidate not in family.events:
        return (False, None)
    for member in family.events:
        if (member & candidate) != member:
            return (False, None)
    return (True, candidate)


def is_set_field(family: Family, universe: Event) -> bool:
    """True iff the family is a set algebra with unit ``universe`` closed under
    complement relative to ``universe``."""
    for member in family:
        if not member.issubset(universe):
            raise ValueError(
                f"member {member.text()!r} is not a subset of the universe "
                f"{universe.text()!r}"
            )
    ok, unit = is_set_algebra(family)
    if not ok or unit != universe:
        return False
    return all((universe - member) in family.events for member in family)


def generate_algebra(generators: "Iterable[Event] | Family", universe: Event) -> Family:
    """Least family containing the generators and the universe, closed under
    union, intersection, and difference.

    Built from the partition the generators induce on the universe: two atoms
    fall in the same block iff they belong to exactly the same generators,
    and the closure is precisely the set of unions of blocks.  Since the
    universe is included, the result is a set field over it.
    """
    gens = sorted(generators, key=canonical_key)
    for g in gens:
        if not g.issubset(universe):
            raise ValueError(
                f"generator {g.text()!r} is not a subset of the universe "
                f"{universe.text()!r}"
            )
    atoms = tuple(universe)
    blocks: dict[tuple[bool, ...], list[Atom]] = {}
    for atom in atoms:
        signature = tuple(atom in g for g in gens)
        blocks.setdefault(signature, []).append(atom)
    block_list = list(blocks.values())
    members = set()
    for r in range(len(block_list) + 1):
        for chosen in combinations(range(len(block_list)), r):
            picked = [atom for i in chosen for atom in block_list[i]]
            members.add(Event(picked))
    kind = "positive-algebra" if universe.is_positive else "plain"
    return Family(frozenset(members), kind)


def mirror_family(fplus: Family) -> Family:
    """Negate every member; mirrors algebra/field structure (and is an involution)."""
    return Family(frozenset(-member for member in fplus.events), "negative-mirror")


def compose_family(fplus: Family) -> Family:
    """All events ``A | -B`` with ``A``, ``B`` disjoint members of the positive family.

    Disjointness is exactly the constraint that keeps one label from carrying
    both signs, so every composed pair is a valid event.

    The members are packed with :class:`LabelMask` over their sorted labels,
    and ``A``, ``B`` pair wherever their masks share no bit.  Each composed
    event gets an int key that sorts it into canonical order
    (:func:`canonical_key`): its size above its signed labels' rank bits,
    where label ``i`` sets bit ``2n-1-2i`` when positive and bit ``2n-2-2i``
    when negative, so among events of one size a larger rank (an earlier
    first signed label) sorts first.  The family keeps that order, and
    iterating it sorts nothing.
    """
    bad = [member for member in fplus.events if not member.is_positive]
    if bad:
        raise ValueError(
            f"compose_family expects a positive family; got member "
            f"{min(bad, key=canonical_key).text()!r}"
        )
    codec = LabelMask(sorted(set().union(*[member.positive_labels for member in fplus.events])))
    width = 2 * codec.n
    rank_bit = {label: 1 << (width - 1 - 2 * i) for i, label in enumerate(codec.labels)}
    # A composed key is (|A| + |B|) << width | full ^ (rank(A) | rank(B) >> 1):
    # rank(A) and rank(B) >> 1 occupy the odd and even bits, so the key is
    # the sum of a term for A and a term for B.
    full = (1 << width) - 1
    as_plus, as_minus = [], []
    for member in fplus.events:
        labels = member.positive_labels
        rank = sum([rank_bit[label] for label in labels])
        size = len(labels) << width
        mask = codec.encode(member)
        as_plus.append((mask, size + full - rank, labels))
        as_minus.append((mask, size - (rank >> 1), labels))
    keyed = {}
    for a, a_key, a_labels in as_plus:
        for b, b_key, b_labels in as_minus:
            if not a & b:
                keyed[a_key + b_key] = Event._raw(a_labels, b_labels)
    return Family._in_order(tuple([keyed[key] for key in sorted(keyed)]), "composed")


def powerset_family(universe: "Event | GroundSet") -> Family:
    """All subsets of the universe event."""
    if isinstance(universe, GroundSet):
        universe = universe.omega_plus
    atoms = tuple(universe)
    members = set()
    for r in range(len(atoms) + 1):
        for chosen in combinations(atoms, r):
            members.add(Event(chosen))
    kind = "positive-algebra" if universe.is_positive else "plain"
    return Family(frozenset(members), kind)
