"""Extended probability spaces over signed events, with exact arithmetic.

A space is built from positive atom weights: nonnegative rationals summing
to exactly 1.  The probability of a measurable event is the weight sum of
its positive atoms minus the weight sum of its negated atoms, so values
range over [-1, 1] and the negative half-space genuinely carries negative
probability (the full negative event has probability -1, while the positive
family restricts to an ordinary probability measure).

The arithmetic is exact integers: a space keeps one common denominator, the
lcm of its weights' and overrides' denominators, and a memo from member to
integer numerator over it, filled on demand.  ``probability`` returns the
``Fraction`` ``numerator / denominator``, so ``Fraction``s appear only at the
API and in reports.  There is no floating point in this module, and every
identity the validator checks holds exactly or not at all.

``with_override`` pins chosen events to arbitrary values.  It exists only so
the axiom validator in :mod:`epspace.checks` can demonstrate failures on
purpose; overridden spaces are deliberately allowed to be inconsistent.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    AlgebraError,
    EventNotMeasurableError,
    NonNegativityError,
    NormalizationError,
    SchemaError,
)
from .events import Draft, Event, annihilating_union, normalize
from .families import Family, GroundSet, compose_family, is_set_algebra, is_set_field, powerset_family

__all__ = ["ExtendedSpace", "make_space", "as_fraction", "positive_family_is_field"]


# Literals are refused before ``Fraction()`` sees them when they could denote
# a numerator or denominator longer than this: a few such weights already sum
# to a rational too long to print.
MAX_LITERAL_DIGITS = 100


def _literal_digits(text: str) -> int:
    """Mantissa digits plus the exponent's magnitude, which bound the decimal
    length of the numerator and denominator ``text`` denotes."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(ch.isdecimal() for ch in mantissa)
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal():
        # int() refuses very long digit strings; any such exponent is too large.
        digits += int(exponent) if len(exponent) <= 9 else 10 ** 9
    return digits


def as_fraction(value, where: str = "weight", error: type = SchemaError) -> Fraction:
    """Convert an exact literal to ``Fraction``; the one literal parser.

    Accepts a ``Fraction``, an int, or literal text such as ``"1/2"``,
    ``"0.2"`` or ``"3e-2"``.  Floats are rejected as inexact, and ints or
    text that could denote more than :data:`MAX_LITERAL_DIGITS` digits
    (counting an exponent's magnitude) as oversized.  Rejections raise
    ``error`` with a message that starts with ``where``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) >= 10 ** MAX_LITERAL_DIGITS:
            raise error(f"{where}: integer is too large (more than {MAX_LITERAL_DIGITS} digits)")
        return Fraction(value)
    if isinstance(value, str):
        if _literal_digits(value) > MAX_LITERAL_DIGITS:
            shown = value if len(value) <= 24 else value[:20] + "..."
            raise error(
                f"{where}: literal {shown!r} is too large (more than "
                f"{MAX_LITERAL_DIGITS} digits, counting the exponent)"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise error(f"{where}: cannot parse {value!r} as a rational") from None
    if isinstance(value, float):
        raise error(
            f"{where}: floats are inexact; pass a string like '0.25', an int, "
            "or a Fraction"
        )
    raise error(f"{where}: unsupported weight type {type(value).__name__}")


@dataclass(frozen=True)
class ExtendedSpace:
    """A ground set, its positive algebra, the composed measurable family, and weights.

    Construct through :func:`make_space`, which validates every invariant and
    derives the composed family.  Immutable, ``weights`` and ``overrides``
    included (read-only mappings); safe to share between threads.

    The measure is kept as integers outside the dataclass fields, so equality
    and :meth:`with_override` never see it: ``_denominator`` is the lcm of
    the weights' and overrides' denominators, ``_weight_numerators`` maps
    each label to its weight over it, and ``_numerators`` memoizes each
    member's value over it (pinned values from the start, weight sums as
    they are first read).
    """

    ground: GroundSet
    weights: Mapping[str, Fraction]
    fplus: Family
    f: Family
    overrides: Mapping[Event, Fraction] = field(default_factory=lambda: MappingProxyType({}))

    def __post_init__(self) -> None:
        values = (*self.weights.values(), *self.overrides.values())
        denominator = math.lcm(*(value.denominator for value in values))

        def scaled(value: Fraction) -> int:
            return value.numerator * (denominator // value.denominator)

        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(
            self, "_weight_numerators", {label: scaled(w) for label, w in self.weights.items()}
        )
        object.__setattr__(
            self, "_numerators", {event: scaled(v) for event, v in self.overrides.items()}
        )

    @property
    def omega_plus(self) -> Event:
        return self.ground.omega_plus

    @property
    def omega_minus(self) -> Event:
        return self.ground.omega_minus

    def probability(self, event: Event) -> Fraction:
        """Exact probability of a measurable event.

        Raises :class:`EventNotMeasurableError` when the event is outside the
        composed family.
        """
        if event not in self.f:
            raise EventNotMeasurableError(
                f"event {event.text()!r} is not in the measurable family"
            )
        return Fraction(self._numerator(event), self._denominator)

    def _numerator(self, event: Event) -> int:
        """``P(event)`` times ``_denominator``; ``event`` must be a member."""
        memo = self._numerators
        value = memo.get(event)
        if value is None:
            w = self._weight_numerators
            value = memo[event] = sum([w[l] for l in event.positive_labels]) - sum(
                [w[l] for l in event.negative_labels]
            )
        return value

    def draft_probability(self, draft: "Event | Draft | str") -> Fraction:
        """Probability of a draft: annihilate first, then evaluate.

        Inserting a ``{w, -w}`` pair never changes the value, so e.g. the
        draft ``a,-a`` evaluates to 0.
        """
        return self.probability(normalize(draft))

    def complement(self, event: Event) -> Event:
        """Complement within the signed space.

        Computed part-wise -- positive part complemented in the positive
        universe, negative part in the negative one -- then joined with
        annihilation, which keeps the result measurable.
        """
        pos_comp = self.omega_plus - event.positive_part
        neg_comp = self.omega_minus - event.negative_part
        return annihilating_union(pos_comp, neg_comp)

    def with_override(self, event: Event, value) -> "ExtendedSpace":
        """Fault-injection hook: pin ``P(event)`` to an arbitrary exact value.

        Returns a new space; the validator is expected to flag the damage.
        """
        if event not in self.f:
            raise EventNotMeasurableError(
                f"cannot override non-measurable event {event.text()!r}"
            )
        pinned = dict(self.overrides)
        pinned[event] = as_fraction(value, where=f"override {event.text()!r}")
        return ExtendedSpace(
            ground=self.ground,
            weights=self.weights,
            fplus=self.fplus,
            f=self.f,
            overrides=MappingProxyType(pinned),
        )


def make_space(
    ground: "GroundSet | Iterable[str]",
    weights: Mapping[str, object],
    fplus: "Family | Iterable[Event] | None" = None,
    *,
    check: bool = True,
) -> ExtendedSpace:
    """Validate inputs and build a space; the one public constructor.

    ``fplus`` defaults to the full powerset of the positive universe.  With
    ``check=False`` the weight-sign, weight-sum, and algebra checks are
    skipped (schema consistency is still required); that path exists only to
    build broken spaces for validator fault-injection tests.
    """
    if not isinstance(ground, GroundSet):
        ground = GroundSet(tuple(ground))

    converted: dict[str, Fraction] = {}
    for label, value in weights.items():
        converted[label] = as_fraction(value, where=f"weight for {label!r}")
    missing = [l for l in ground.labels if l not in converted]
    if missing:
        raise SchemaError("missing weight(s) for label(s): " + ", ".join(missing))
    unknown = sorted(set(converted) - set(ground.labels))
    if unknown:
        raise SchemaError("weight(s) for unknown label(s): " + ", ".join(unknown))

    if check:
        for label in ground.labels:
            if converted[label] < 0:
                raise NonNegativityError(
                    f"negative weight for {label!r}: {converted[label]}"
                )
        total = sum(converted.values(), Fraction(0))
        if total != 1:
            raise NormalizationError(f"weights sum to {total}, expected exactly 1")

    if fplus is None:
        fplus = powerset_family(ground.omega_plus)
    elif not isinstance(fplus, Family):
        fplus = Family(frozenset(fplus), "positive-algebra")

    omega = ground.omega_plus
    for member in fplus:
        if not member.is_positive or not member.issubset(omega):
            raise AlgebraError(
                f"family member {member.text()!r} is not a subset of the "
                f"positive universe {omega.text()!r}"
            )
    if check:
        ok, _unit = is_set_algebra(fplus)
        if not ok:
            raise AlgebraError("positive family is not a set algebra")
        if omega not in fplus:
            raise AlgebraError(
                "positive family must contain the full positive event "
                f"{omega.text()!r}"
            )

    return ExtendedSpace(
        ground=ground,
        weights=MappingProxyType(converted),
        fplus=fplus,
        f=compose_family(fplus),
    )


def positive_family_is_field(space: ExtendedSpace) -> bool:
    """Whether the positive family is complement-closed over its universe.

    For finite families of subsets of the positive universe that contain the
    universe, algebra and field coincide (rings are difference-closed); this
    reports the fact explicitly rather than assuming it.
    """
    return is_set_field(space.fplus, space.omega_plus)
