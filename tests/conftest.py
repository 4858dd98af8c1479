"""Shared strategies and builders for the test suite."""

from __future__ import annotations

import os
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

from epspace import Atom, make_space, normalize

# HYPOTHESIS_PROFILE=ci (set in CI) runs every property test on a fixed
# example stream and prints the reproduction blob of a failing example.
settings.register_profile("default", deadline=None)
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

LABELS = ("a", "b", "c", "d")

atoms = st.builds(Atom, st.sampled_from(LABELS), st.booleans())

# Drafts may repeat atoms and contain annihilating pairs.
drafts = st.lists(atoms, max_size=10)

# Valid events: normalize an arbitrary draft.
events = drafts.map(normalize)

positive_events = st.lists(
    st.builds(Atom, st.sampled_from(LABELS)), max_size=4
).map(normalize)


@st.composite
def weight_vectors(draw, n: int):
    numerators = draw(
        st.lists(st.integers(0, 8), min_size=n, max_size=n).filter(lambda xs: sum(xs) > 0)
    )
    total = sum(numerators)
    return [Fraction(k, total) for k in numerators]


@st.composite
def spaces(draw, max_atoms: int = 3):
    n = draw(st.integers(1, max_atoms))
    labels = LABELS[:n]
    weights = dict(zip(labels, draw(weight_vectors(n))))
    return make_space(labels, weights)
