"""Space documents and deterministic random spaces.

A space document is a UTF-8 JSON object::

    {
      "omega_plus": ["a", "b", "c"],
      "weights": {"a": "1/2", "b": "3/10", "c": "0.2"},
      "algebra": "powerset"
    }

Weight literals are exact: fraction strings like ``"1/2"``, decimal strings
like ``"0.2"``, integers, or bare JSON numbers (parsed from their literal
text, so ``0.1`` means exactly 1/10).  Every literal goes through
:func:`~epspace.measure.as_fraction`, so an oversized one such as
``"1e5000"`` is a :class:`ParseError` naming ``weights.<label>``.
``algebra`` is either the token ``"powerset"`` or
``{"generators": [["a"], ["b", "c"]]}``, in which case the positive family
is the generated set field over ``omega_plus``.

Spaces parsed or generated here are capped at :data:`MAX_ATOMS` atoms; the
measurable family has ``3**n`` members for the powerset algebra, and
validation, enumeration and the full suite build it in full (evaluating an
event or the classical restriction builds none of it), so enumeration past
eight atoms is not useful and the sampled validator mode is the documented
route for anything bigger.
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SchemaError
from .events import Atom, Event
from .families import Family, GroundSet, generate_algebra, powerset_family
from .measure import ExtendedSpace, as_fraction, make_space

__all__ = [
    "MAX_ATOMS",
    "SpaceDocument",
    "parse_document",
    "build_space",
    "parse_space",
    "serialize_space",
    "FuzzConfig",
    "random_space",
]

MAX_ATOMS = 8

_DOCUMENT_FIELDS = ("omega_plus", "weights", "algebra")


@dataclass(frozen=True)
class SpaceDocument:
    """Validated document contents; ``algebra`` is ``"powerset"`` or generator label tuples."""

    omega_plus: tuple
    weights: Mapping[str, Fraction]
    algebra: "str | tuple"


class _NumberLiteral:
    """A bare JSON number, kept as its literal text for :func:`as_fraction`."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class _JsonObject(dict):
    """A JSON object that remembers the first key it was given twice, which
    plain ``json.loads`` would drop silently (the last value wins)."""

    __slots__ = ("duplicate",)

    def __init__(self, pairs):
        super().__init__()
        self.duplicate = None
        for key, value in pairs:
            if key in self and self.duplicate is None:
                self.duplicate = key
            self[key] = value


def _reject_duplicate(obj: _JsonObject, location: str) -> None:
    if obj.duplicate is not None:
        raise ParseError(f"duplicate key {obj.duplicate!r}", location=location)


def parse_document(text: str) -> SpaceDocument:
    """Parse and shape-check a space document.

    Malformed structure, a key given twice in one object included, raises
    :class:`ParseError` naming the offending location; semantic problems
    (unknown labels, bad sums) surface later, from :func:`build_space`.
    """
    try:
        raw = json.loads(
            text,
            object_pairs_hook=_JsonObject,
            parse_float=_NumberLiteral,
            parse_int=_NumberLiteral,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None

    if not isinstance(raw, dict):
        raise ParseError("expected a JSON object", location="document")
    _reject_duplicate(raw, "document")
    for key in raw:
        if key not in _DOCUMENT_FIELDS:
            raise ParseError(f"unknown field {key!r}", location="document")
    for key in _DOCUMENT_FIELDS:
        if key not in raw:
            raise ParseError(f"missing field {key!r}", location="document")

    omega = raw["omega_plus"]
    if not isinstance(omega, list) or not all(isinstance(l, str) for l in omega):
        raise ParseError("expected an array of strings", location="omega_plus")
    if len(omega) > MAX_ATOMS:
        raise SchemaError(
            f"{len(omega)} atoms exceeds the enumeration ceiling of {MAX_ATOMS}; "
            "split the model or use sampled validation"
        )

    weights_raw = raw["weights"]
    if not isinstance(weights_raw, dict):
        raise ParseError("expected an object", location="weights")
    _reject_duplicate(weights_raw, "weights")
    weights = {
        label: as_fraction(
            value.text if isinstance(value, _NumberLiteral) else value,
            f"weights.{label}",
            ParseError,
        )
        for label, value in weights_raw.items()
    }

    algebra = raw["algebra"]
    if algebra == "powerset":
        parsed_algebra: "str | tuple" = "powerset"
    elif isinstance(algebra, dict):
        _reject_duplicate(algebra, "algebra")
        for key in algebra:
            if key != "generators":
                raise ParseError(f"unknown field {key!r}", location="algebra")
        generators = algebra.get("generators")
        if not isinstance(generators, list):
            raise ParseError("expected an array of label arrays", location="algebra.generators")
        shaped = []
        for i, gen in enumerate(generators):
            if not isinstance(gen, list) or not all(isinstance(l, str) for l in gen):
                raise ParseError(
                    "expected an array of labels", location=f"algebra.generators[{i}]"
                )
            unknown = sorted(set(gen) - set(omega))
            if unknown:
                raise SchemaError(
                    f"generator {i} references unknown label(s): " + ", ".join(unknown)
                )
            shaped.append(tuple(gen))
        parsed_algebra = tuple(shaped)
    else:
        raise ParseError(
            'expected "powerset" or {"generators": [...]}', location="algebra"
        )

    return SpaceDocument(omega_plus=tuple(omega), weights=weights, algebra=parsed_algebra)


def build_space(document: SpaceDocument) -> ExtendedSpace:
    """Build the space a document describes; semantic violations raise here."""
    ground = GroundSet(document.omega_plus)
    if document.algebra == "powerset":
        fplus = powerset_family(ground.omega_plus)
    else:
        generators = [
            Event(Atom(label) for label in gen) for gen in document.algebra
        ]
        fplus = generate_algebra(generators, ground.omega_plus)
    return make_space(ground, document.weights, fplus)


def parse_space(text: str) -> ExtendedSpace:
    """Parse a document and build its space."""
    return build_space(parse_document(text))


def serialize_space(space: ExtendedSpace) -> str:
    """Canonical document text for a space; parsing it back gives an equal space.

    The algebra serializes as ``"powerset"`` when the positive family is the
    full powerset, otherwise as the explicit member list (whose closure is
    itself).  A document has no field for pinned values, so a space with
    overrides raises :class:`SchemaError` rather than lose them.
    """
    if space.overrides:
        pinned = ", ".join(sorted(event.text() for event in space.overrides))
        raise SchemaError(f"cannot serialize a space with overrides (pinned: {pinned})")
    n = len(space.ground)
    if len(space.fplus) == 2 ** n:
        algebra: object = "powerset"
    else:
        algebra = {
            "generators": [
                sorted(member.positive_labels) for member in space.fplus
            ]
        }
    document = {
        "omega_plus": list(space.ground.labels),
        "weights": {label: str(space.weights[label]) for label in space.ground.labels},
        "algebra": algebra,
    }
    return json.dumps(document, indent=2) + "\n"


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic random-space generation parameters."""

    atoms: int
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.atoms <= MAX_ATOMS:
            raise ValueError(f"atoms must be in 1..{MAX_ATOMS}, got {self.atoms}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def random_space(config: FuzzConfig, trial: int, *, algebra: str = "auto") -> ExtendedSpace:
    """A seeded random space; identical for identical ``(seed, trial, algebra)``.

    Labels are ``w1..wN``.  Weights are random rationals with denominator at
    most ``16 * atoms``, normalized to sum to exactly 1.  The positive family
    is the powerset or a generated sub-field, chosen by the generator unless
    ``algebra`` pins it to ``"powerset"`` or ``"generated"``.
    """
    if not 0 <= trial < config.trials:
        raise ValueError(f"trial must be in 0..{config.trials - 1}, got {trial}")
    if algebra not in ("auto", "powerset", "generated"):
        raise ValueError(f"algebra must be auto, powerset, or generated, got {algebra!r}")
    rng = random.Random((config.seed * 1_000_003 + trial) % 2 ** 64)
    labels = tuple(f"w{i + 1}" for i in range(config.atoms))

    numerators = [rng.randrange(0, 17) for _ in labels]
    if not any(numerators):
        numerators[0] = 1
    total = sum(numerators)
    weights = {label: Fraction(numerators[i], total) for i, label in enumerate(labels)}

    ground = GroundSet(labels)
    use_powerset = rng.random() < 0.5 if algebra == "auto" else algebra == "powerset"
    if use_powerset:
        fplus: Family = powerset_family(ground.omega_plus)
    else:
        count = rng.randrange(0, config.atoms + 1)
        generators = []
        for _ in range(count):
            chosen = [label for label in labels if rng.random() < 0.5]
            generators.append(Event(Atom(label) for label in chosen))
        fplus = generate_algebra(generators, ground.omega_plus)
    return make_space(ground, weights, fplus)
