"""Property-based fuzzing of document parsing and the command line.

Whatever the input, ``parse_document`` either returns a document or raises
an :class:`EpspaceError`, and ``run_cli`` returns 0, 1 or 2 without letting
an exception out: no input reaches a Python traceback.  On any token list
``run_cli``, which builds only the named command's parser, prints and exits
exactly as a dispatch through the full ``build_parser()``.  Valid spaces
survive a ``serialize_space`` -> ``parse_space`` round trip, and sampled
validation of a valid document passes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from epspace import (
    EpspaceError,
    Event,
    SpaceDocument,
    generate_algebra,
    make_space,
    parse_document,
    parse_space,
    serialize_space,
)
from epspace import cli
from epspace.cli import run_cli

FUZZ = settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])

labels = st.sampled_from(("a", "b", "c", "w1", "_x"))

# JSON values shaped like space documents, with the wrong type anywhere.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.sampled_from(("1/2", "0.25", "1", "0", "-1/3", "3e-1", "1e5000", "x", "", "1/0", "nan")),
    labels,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(labels | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
documents = st.fixed_dictionaries(
    {},
    optional={
        "omega_plus": st.lists(labels, max_size=4) | json_values,
        "weights": st.dictionaries(labels, json_scalars, max_size=4) | json_values,
        "algebra": st.sampled_from(("powerset",))
        | st.fixed_dictionaries({"generators": st.lists(st.lists(labels, max_size=3), max_size=3)})
        | json_values,
        "extra": json_values,
    },
)
document_texts = st.one_of(
    documents.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=60),
    st.text(alphabet='{}[]":,0123456789abe/-. ', max_size=60),
)


@st.composite
def valid_spaces(draw):
    """Spaces of 1-4 atoms over the powerset or a generated field."""
    names = draw(st.lists(st.sampled_from(("a", "b", "c", "d", "w1", "_x")), min_size=1, max_size=4, unique=True))
    numerators = draw(st.lists(st.integers(0, 6), min_size=len(names), max_size=len(names)).filter(any))
    weights = {name: Fraction(k, sum(numerators)) for name, k in zip(names, numerators)}
    universe = Event(",".join(names))
    if draw(st.booleans()):
        return make_space(tuple(names), weights)
    gens = draw(st.lists(st.sets(st.sampled_from(names)), max_size=3))
    fplus = generate_algebra([Event(",".join(sorted(g))) for g in gens], universe)
    return make_space(tuple(names), weights, fplus)


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


@FUZZ
@given(document_texts)
def test_parse_document_returns_a_document_or_an_epspace_error(text):
    try:
        document = parse_document(text)
    except EpspaceError:
        return
    assert isinstance(document, SpaceDocument)


@FUZZ
@given(document_texts, st.sampled_from((["validate"], ["validate", "--sample", "3"], ["check"],
                                        ["check", "--suite", "kolmogorov"], ["enumerate"],
                                        ["eval", "--event", "a,-b"])))
def test_cli_on_any_document_exits_cleanly(capsys, tmp_path, text, command):
    path = tmp_path / "space.json"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, command[:1] + [str(path)] + command[1:])
    if code == 2:
        assert err.startswith("epspace: ")


@FUZZ
@given(st.binary(max_size=64))
def test_cli_on_any_bytes_exits_cleanly(capsys, tmp_path, data):
    path = tmp_path / "space.json"
    path.write_bytes(data)
    run(capsys, ["validate", str(path)])


tokens = st.sampled_from((
    "validate", "eval", "check", "enumerate", "calc", "fuzz", "FILE", "--json", "--sample",
    "--seed", "--event", "--suite", "--limit", "--op", "--left", "--right", "--atoms", "--trials",
    "union", "diff", "all", "kolmogorov", "T7,p10", "a,-b", "-a", "{}", "a,,b", "0", "1", "3",
    "-2", "x", "--help",
))

TWO_ATOMS = '{"omega_plus": ["a", "b"], "weights": {"a": "1/2", "b": "1/2"}, "algebra": "powerset"}'


@FUZZ
@given(st.lists(tokens, max_size=7))
def test_cli_on_any_arguments_exits_cleanly(capsys, tmp_path, argv):
    path = tmp_path / "space.json"
    path.write_text(TWO_ATOMS, encoding="utf-8")
    run(capsys, [str(path) if token == "FILE" else token for token in argv])


def full_parser_cli(argv):
    """``run_cli`` dispatching through ``build_parser().parse_args(argv)``:
    the reference for the one-command parser."""
    with mock.patch.object(cli, "_parse_arguments", lambda argv: cli.build_parser().parse_args(argv)):
        return run_cli(argv)


@st.composite
def command_lines(draw):
    """Token lists, led by a command and ``FILE`` when a drawn digit is below 7."""
    argv = draw(st.lists(tokens, max_size=7))
    if draw(st.integers(0, 9)) < 7:
        argv = [draw(st.sampled_from(sorted(cli._COMMANDS))), "FILE", *argv]
    return argv


@FUZZ
@given(command_lines())
@example(["validate", "FILE", "--bogus"])
@example(["--", "validate", "FILE"])
@example(["validate", "--help"])
@example(["--help"])
@example([])
@example(["frobnicate"])
@example(["validate", "FILE", "--json=3"])
def test_cli_parses_as_the_full_parser(capsys, tmp_path, argv):
    path = tmp_path / "space.json"
    path.write_text(TWO_ATOMS, encoding="utf-8")
    argv = [str(path) if token == "FILE" else token for token in argv]
    got = (run_cli(argv), *capsys.readouterr())
    assert got == (full_parser_cli(argv), *capsys.readouterr()), argv


@settings(max_examples=80)
@given(valid_spaces())
def test_serialized_space_parses_back_to_an_equal_space(space):
    assert parse_space(serialize_space(space)) == space


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(valid_spaces(), st.integers(1, 40), st.integers(0, 2 ** 32))
def test_sampled_validation_of_a_valid_document_passes(capsys, tmp_path, space, trials, seed):
    path = tmp_path / "space.json"
    path.write_text(serialize_space(space), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path), "--sample", str(trials), "--seed", str(seed)])
    assert code == 0, out
