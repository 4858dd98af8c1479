"""Finite signed sample spaces with annihilation and exact extended probabilities.

Every outcome ``w`` has an anti-outcome ``-w``; when both enter one
collection they annihilate.  Probability is generated by nonnegative atom
weights summing to 1 and extends to negative values on the mirrored
half-space, while its restriction to the positive side remains an ordinary
probability measure.  Everything is exact rational arithmetic, and the
package ships an executable validator for the axioms plus a suite for every
catalogued identity.
"""

from .checks import (
    AXIOM_IDS,
    KOLMOGOROV_IDS,
    SUITE_CATALOG,
    CheckEntry,
    ValidationReport,
    check_kolmogorov_restriction,
    run_theorem_suite,
    suite_ids,
    validate_axioms,
)
from .errors import (
    AlgebraError,
    EpspaceError,
    EventNotMeasurableError,
    InvalidEventError,
    NonNegativityError,
    NormalizationError,
    ParseError,
    SchemaError,
)
from .events import (
    Atom,
    Event,
    annihilated_equals,
    annihilating_union,
    canonical_key,
    difference,
    intersection,
    negate,
    normalize,
    parse_atom,
    parse_draft,
    plain_symmetric_difference,
    plain_union,
)
from .families import (
    Family,
    GroundSet,
    compose_family,
    generate_algebra,
    is_set_algebra,
    is_set_field,
    is_set_ring,
    mirror_family,
    powerset_family,
)
from .harness import (
    MAX_ATOMS,
    FuzzConfig,
    SpaceDocument,
    build_space,
    parse_document,
    parse_space,
    random_space,
    serialize_space,
)
from .measure import ExtendedSpace, as_fraction, make_space, positive_family_is_field

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Event",
    "Family",
    "GroundSet",
    "ExtendedSpace",
    "SpaceDocument",
    "FuzzConfig",
    "CheckEntry",
    "ValidationReport",
    "normalize",
    "negate",
    "annihilating_union",
    "intersection",
    "difference",
    "annihilated_equals",
    "plain_union",
    "plain_symmetric_difference",
    "canonical_key",
    "parse_atom",
    "parse_draft",
    "is_set_ring",
    "is_set_algebra",
    "is_set_field",
    "generate_algebra",
    "mirror_family",
    "compose_family",
    "powerset_family",
    "make_space",
    "as_fraction",
    "positive_family_is_field",
    "validate_axioms",
    "check_kolmogorov_restriction",
    "run_theorem_suite",
    "suite_ids",
    "AXIOM_IDS",
    "KOLMOGOROV_IDS",
    "SUITE_CATALOG",
    "parse_document",
    "build_space",
    "parse_space",
    "serialize_space",
    "random_space",
    "MAX_ATOMS",
    "EpspaceError",
    "ParseError",
    "InvalidEventError",
    "SchemaError",
    "NormalizationError",
    "NonNegativityError",
    "AlgebraError",
    "EventNotMeasurableError",
]
