"""Reference model of signed events and their measure, written without epspace.

The benchmark checks the program's outputs against this model.  It is kept
deliberately plain: an event is a pair ``(pos, neg)`` of disjoint frozensets
of labels, a measurable family is built from the blocks of a partition, and
every value is an exact ``Fraction``.

``self_check()`` compares each closed form used here against brute force on
every partition shape of at most three atoms; run this file to execute it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import product

EMPTY = (frozenset(), frozenset())


def parse_draft(text: str) -> list:
    """``"a,-b,a"`` -> ``[("a", 1), ("b", -1), ("a", 1)]``; ``""``/``"{}"`` -> ``[]``."""
    text = text.strip()
    if text in ("", "{}"):
        return []
    atoms = []
    for token in text.split(","):
        token = token.strip()
        atoms.append((token[1:], -1) if token.startswith("-") else (token, 1))
    return atoms


def normalize(draft) -> tuple:
    """Collapse duplicates, then drop both signs of every label that has both."""
    pos = {label for label, sign in draft if sign > 0}
    neg = {label for label, sign in draft if sign < 0}
    clash = pos & neg
    return (frozenset(pos - clash), frozenset(neg - clash))


def parse_event(text: str) -> tuple:
    return normalize(parse_draft(text))


def atoms_of(event) -> list:
    """Signed atoms ``(label, 0 for positive | 1 for negative)`` in label order."""
    pos, neg = event
    return sorted([(label, 0) for label in pos] + [(label, 1) for label in neg])


def text(event) -> str:
    atoms = atoms_of(event)
    if not atoms:
        return "{}"
    return ",".join(("-" if bit else "") + label for label, bit in atoms)


def key(event):
    """Canonical order: by size, then the signed-atom sequence (positive first)."""
    return (len(event[0]) + len(event[1]), tuple(atoms_of(event)))


def union(x, y):
    """Annihilating union: pool both events, then cancel opposite-sign pairs."""
    pos, neg = x[0] | y[0], x[1] | y[1]
    clash = pos & neg
    return (pos - clash, neg - clash)


def intersection(x, y):
    return (x[0] & y[0], x[1] & y[1])


def difference(x, y):
    return (x[0] - y[0], x[1] - y[1])


CALC = {"union": union, "intersect": intersection, "diff": difference}


def blocks_of(labels, generators) -> list:
    """Partition of ``labels`` by membership in the generators; ``None`` means powerset."""
    if generators is None:
        return [(label,) for label in labels]
    groups: dict = {}
    for label in labels:
        signature = tuple(label in gen for gen in generators)
        groups.setdefault(signature, []).append(label)
    return [tuple(group) for group in groups.values()]


def family_size(blocks) -> int:
    return 3 ** len(blocks)


def members(blocks) -> list:
    """Every measurable event: each block is absent, positive or negative."""
    out = []
    for signs in product((0, 1, -1), repeat=len(blocks)):
        pos = frozenset(l for block, s in zip(blocks, signs) if s > 0 for l in block)
        neg = frozenset(l for block, s in zip(blocks, signs) if s < 0 for l in block)
        out.append((pos, neg))
    return out


def canonical(events) -> list:
    return sorted(events, key=key)


def value(event, weights, overrides=None) -> Fraction:
    """Positive weight sum minus negative weight sum, unless the event is pinned."""
    if overrides and event in overrides:
        return overrides[event]
    pos, neg = event
    return sum((weights[l] for l in pos), Fraction(0)) - sum((weights[l] for l in neg), Fraction(0))


def draft_value(draft, weights) -> Fraction:
    return value(normalize(draft), weights)


def least_failing_union(order, weights, damaged, pinned):
    """The first union in canonical ``order`` with a split that breaks additivity
    once ``damaged`` is pinned to ``pinned`` (which must differ from its true value).

    The undamaged measure is additive, so a split ``(A, B)`` of ``U`` fails
    exactly when ``[A = D] + [B = D] != [U = D]``: either ``U = D`` has a split
    into two nonempty members (or ``D`` is empty), or ``D`` is a proper part of
    ``U`` whose remainder is a member.
    """
    if value(damaged, weights) == pinned:
        raise ValueError("the pinned value equals the true value; nothing fails")
    family = set(order)
    for union_event in order:
        if union_event == damaged:
            if damaged == EMPTY or any(
                a != EMPTY and b != EMPTY and a in family and b in family
                for a, b in splits(damaged)
            ):
                return union_event
        elif damaged[0] <= union_event[0] and damaged[1] <= union_event[1]:
            if difference(union_event, damaged) in family:
                return union_event
    return None


def splits(event):
    """Every ordered two-part partition ``(A, B)`` of an event's atoms."""
    atoms = atoms_of(event)
    for mask in range(1 << len(atoms)):
        a = [atoms[i] for i in range(len(atoms)) if mask >> i & 1]
        b = [atoms[i] for i in range(len(atoms)) if not mask >> i & 1]
        yield _from_atoms(a), _from_atoms(b)


def _from_atoms(atoms):
    return (
        frozenset(l for l, bit in atoms if bit == 0),
        frozenset(l for l, bit in atoms if bit == 1),
    )


# ---------------------------------------------------------------------------
# Brute force, used only by self_check
# ---------------------------------------------------------------------------


def _brute_members(labels, blocks) -> set:
    def is_union_of_blocks(part):
        return all(set(block) <= part or not (set(block) & part) for block in blocks)

    found = set()
    for signs in product((0, 1, -1), repeat=len(labels)):
        pos = frozenset(l for l, s in zip(labels, signs) if s > 0)
        neg = frozenset(l for l, s in zip(labels, signs) if s < 0)
        if is_union_of_blocks(pos) and is_union_of_blocks(neg):
            found.add((pos, neg))
    return found


def _compare(x, y) -> int:
    """Canonical order spelled out: size first, then the first differing
    (label, sign) pair, labels in string order and positive before negative."""
    sx, sy = len(x[0]) + len(x[1]), len(y[0]) + len(y[1])
    if sx != sy:
        return -1 if sx < sy else 1
    for lx, ly in zip(sorted(x[0] | x[1]), sorted(y[0] | y[1])):
        if lx != ly:
            return -1 if lx < ly else 1
        nx, ny = lx in x[1], ly in y[1]
        if nx != ny:
            return 1 if nx else -1
    return 0


def _as_atom_set(event) -> set:
    return {l for l in event[0]} | {"-" + l for l in event[1]}


def _brute_calc(op, x, y):
    sx, sy = _as_atom_set(x), _as_atom_set(y)
    if op == "union":
        pooled = sx | sy
        kept = {a for a in pooled if (a[1:] if a.startswith("-") else "-" + a) not in pooled}
    elif op == "intersect":
        kept = sx & sy
    else:
        kept = sx - sy
    return (
        frozenset(a for a in kept if not a.startswith("-")),
        frozenset(a[1:] for a in kept if a.startswith("-")),
    )


def _brute_draft_value(draft, weights) -> Fraction:
    present = {("-" if sign < 0 else "") + label for label, sign in draft}
    total = Fraction(0)
    for atom in present:
        opposite = atom[1:] if atom.startswith("-") else "-" + atom
        if opposite not in present:
            total += -weights[atom[1:]] if atom.startswith("-") else weights[atom]
    return total


def _brute_least_failing(order, weights, damaged, pinned):
    overrides = {damaged: pinned}
    family = set(order)
    for union_event in order:
        target = value(union_event, weights, overrides)
        for a, b in splits(union_event):
            if a in family and b in family:
                if value(a, weights, overrides) + value(b, weights, overrides) != target:
                    return union_event
    return None


def _small_spaces():
    """Every partition shape of one to three atoms, with uneven weights."""
    yield ("a",), [("a",)]
    yield ("a", "b"), [("a",), ("b",)]
    yield ("a", "b"), [("a", "b")]
    yield ("a", "b", "c"), [("a",), ("b",), ("c",)]
    yield ("a", "b", "c"), [("a", "c"), ("b",)]
    yield ("a", "b", "c"), [("a", "b", "c")]


def self_check() -> None:
    """Raise AssertionError if a closed form disagrees with brute force (n <= 3)."""
    for labels, blocks in _small_spaces():
        weights = {l: Fraction(i + 1, 6) for i, l in enumerate(labels)}
        total = sum(weights.values())
        weights = {l: w / total for l, w in weights.items()}
        built = members(blocks)
        if set(built) != _brute_members(labels, blocks) or len(built) != family_size(blocks):
            raise AssertionError(f"family of {blocks} disagrees with brute force")
        generators = [list(b) for b in blocks[:-1]]
        if sorted(map(sorted, blocks_of(labels, generators))) != sorted(map(sorted, blocks)):
            raise AssertionError(f"blocks of generators {generators} are wrong")
        order = canonical(built)
        if order != sorted(built, key=cmp_to_key(_compare)):
            raise AssertionError(f"canonical order of {blocks} disagrees with brute force")
        universe = canonical(members([(l,) for l in labels]))
        for x in universe:
            if normalize(parse_draft(text(x))) != x:
                raise AssertionError(f"text round trip fails for {x}")
            for y in universe:
                for op, fn in CALC.items():
                    if fn(x, y) != _brute_calc(op, x, y):
                        raise AssertionError(f"{op} of {text(x)} and {text(y)} is wrong")
                draft = parse_draft(text(x)) + parse_draft(text(y)) + parse_draft(text(x))
                if draft_value(draft, weights) != _brute_draft_value(draft, weights):
                    raise AssertionError(f"P of draft {text(x)},{text(y)} is wrong")
        for damaged in order:
            pinned = value(damaged, weights) + 1
            expected = _brute_least_failing(order, weights, damaged, pinned)
            if least_failing_union(order, weights, damaged, pinned) != expected:
                raise AssertionError(f"least failing union for {text(damaged)} is wrong")


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
