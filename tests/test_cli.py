"""Command-line golden tests: fixed inputs and seeds give byte-identical output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epspace.cli import run_cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

SPACE_DOC = """{
  "omega_plus": ["a", "b", "c"],
  "weights": {"a": "1/2", "b": "3/10", "c": "1/5"},
  "algebra": "powerset"
}
"""

SUB_DOC = """{
  "omega_plus": ["a", "b"],
  "weights": {"a": "1/2", "b": "1/2"},
  "algebra": {"generators": []}
}
"""

VALIDATE_GOLDEN = """EP1 PASS
EP2 PASS (unit=a,b,c field=True)
EP3 PASS
EP4 PASS
EP5 PASS
EP5p PASS
EP6 PASS
EP7 PASS
EP8 PASS
EP9 PASS (finitely vacuous: every strictly decreasing event chain is finite)
EP10 PASS
"""


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(SPACE_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def sub_file(tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(SUB_DOC, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval -------------------------------------------------------------------


def test_eval_golden(capsys, space_file):
    code, out, _ = run(capsys, "eval", space_file, "--event", "a,-b")
    assert code == 0
    assert out == "1/5 (= 0.2)\n"


def test_eval_accepts_annihilating_draft(capsys, space_file):
    code, out, _ = run(capsys, "eval", space_file, "--event", "a,-a")
    assert code == 0
    assert out == "0 (= 0.0)\n"


def test_eval_full_positive(capsys, space_file):
    code, out, _ = run(capsys, "eval", space_file, "--event", "a,b,c")
    assert code == 0
    assert out == "1 (= 1.0)\n"


def test_eval_not_measurable_exits_one(capsys, sub_file):
    code, out, err = run(capsys, "eval", sub_file, "--event", "a")
    assert code == 1
    assert out == ""
    assert "not in the measurable family" in err


def test_eval_bad_event_text_exits_two(capsys, space_file):
    code, _, err = run(capsys, "eval", space_file, "--event", "a,,b")
    assert code == 2
    assert "bad atom" in err


# --- validate ---------------------------------------------------------------


def test_validate_golden(capsys, space_file):
    code, out, _ = run(capsys, "validate", space_file)
    assert code == 0
    assert out == VALIDATE_GOLDEN


def test_validate_byte_identical_across_runs(capsys, space_file):
    _, first, _ = run(capsys, "validate", space_file)
    _, second, _ = run(capsys, "validate", space_file)
    assert first == second


def test_validate_json(capsys, space_file):
    code, out, _ = run(capsys, "validate", space_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 11
    assert payload[0] == {"checkId": "EP1", "passed": True, "counterexample": None}


def test_validate_sampled(capsys, space_file):
    code, out, _ = run(capsys, "validate", space_file, "--sample", "20", "--seed", "3")
    assert code == 0
    assert "EP5 PASS (sampled trials=20 seed=3)" in out


def test_validate_semantic_error_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"omega_plus": ["a"], "weights": {"a": "1/2"}, "algebra": "powerset"}',
        encoding="utf-8",
    )
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "sum" in err


def test_validate_malformed_file_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "weight",
    ['"1e5000"', '"1e-5000"', "1" * 5000, '"' + "1" * 5000 + '/3"', "1e5000"],
    ids=["text-exponent", "text-negative-exponent", "bare-integer", "text-fraction", "bare-exponent"],
)
def test_validate_oversized_weight_literal_exits_two(capsys, tmp_path, weight):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"omega_plus": ["a", "b"], "weights": {"a": %s, "b": "0"}, "algebra": "powerset"}'
        % weight,
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("epspace: weights.a: ")
    assert "too large" in err
    assert len(err) < 300


def test_validate_deeply_nested_document_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("epspace: invalid JSON")


def test_validate_duplicate_weight_key_exits_two(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"omega_plus": ["a", "b"], "weights": {"a": "1/2", "b": "1/2", "a": "1/2"}, '
        '"algebra": "powerset"}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == "epspace: weights: duplicate key 'a'\n"


def test_non_utf8_file_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == f"epspace: cannot read {str(path)!r}: not UTF-8 text\n"


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/space.json")
    assert code == 2
    assert "cannot read" in err


# --- check ------------------------------------------------------------------


def test_check_single_suite_id(capsys, space_file):
    code, out, _ = run(capsys, "check", space_file, "--suite", "P10")
    assert code == 0
    assert out == "P10 PASS\n"


def test_check_multiple_ids_case_insensitive(capsys, space_file):
    code, out, _ = run(capsys, "check", space_file, "--suite", "l6,p8")
    assert code == 0
    assert out == "L6 PASS\nP8 PASS\n"


def test_check_repeated_id_runs_once(capsys, space_file):
    code, out, _ = run(capsys, "check", space_file, "--suite", "P6,p6,L6")
    assert code == 0
    assert out == "L6 PASS\nP6 PASS\n"


def test_check_all(capsys, space_file):
    code, out, _ = run(capsys, "check", space_file)
    assert code == 0
    assert len(out.strip().splitlines()) == 36


def test_check_kolmogorov(capsys, space_file):
    code, out, _ = run(capsys, "check", space_file, "--suite", "kolmogorov")
    assert code == 0
    assert out == "K1 PASS\nK2 PASS\nK3 PASS\n"


def test_check_unknown_id_exits_two(capsys, space_file):
    code, _, err = run(capsys, "check", space_file, "--suite", "Q7")
    assert code == 2
    assert "unknown suite id" in err


# --- enumerate ----------------------------------------------------------------


def test_enumerate_golden(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        '{"omega_plus": ["a"], "weights": {"a": 1}, "algebra": "powerset"}',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "enumerate", str(path))
    assert code == 0
    assert out == "{}\na\n-a\n"


def test_enumerate_limit(capsys, space_file):
    code, out, _ = run(capsys, "enumerate", space_file, "--limit", "4")
    assert code == 0
    assert out == "{}\na\n-a\nb\n"


def test_enumerate_negative_limit_exits_two(capsys, space_file):
    code, _, err = run(capsys, "enumerate", space_file, "--limit", "-1")
    assert code == 2
    assert "non-negative" in err


def test_enumerate_into_a_closed_pipe_exits_quietly(tmp_path):
    # 6,561 events overflow a 64 KiB pipe buffer, so the writer still has
    # output when the reader closes the pipe after one line.
    labels = [f"atom{i}" for i in range(8)]
    path = tmp_path / "eight.json"
    path.write_text(
        json.dumps({
            "omega_plus": labels,
            "weights": {label: "1/8" for label in labels},
            "algebra": "powerset",
        }),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    err = tmp_path / "stderr"
    with err.open("wb") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "epspace.cli", "enumerate", str(path)],
            stdout=subprocess.PIPE,
            stderr=sink,
            env=env,
        )
        assert proc.stdout.readline() == b"{}\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert err.read_bytes() == b""


# --- calc ---------------------------------------------------------------------


def test_calc_union(capsys):
    code, out, _ = run(capsys, "calc", "--op", "union", "--left", "a,-b", "--right", "b,c")
    assert code == 0
    assert out == "a,c\n"


def test_calc_union_annihilates(capsys):
    code, out, _ = run(capsys, "calc", "--op", "union", "--left", "a", "--right=-a")
    assert code == 0
    assert out == "{}\n"


def test_calc_intersect(capsys):
    code, out, _ = run(capsys, "calc", "--op", "intersect", "--left", "a,-b", "--right=-b,c")
    assert code == 0
    assert out == "-b\n"


def test_calc_diff(capsys):
    code, out, _ = run(capsys, "calc", "--op", "diff", "--left", "a,-b,c", "--right=-b,c")
    assert code == 0
    assert out == "a\n"


def test_calc_rejects_invalid_event(capsys):
    code, _, err = run(capsys, "calc", "--op", "union", "--left", "a,-a", "--right", "b")
    assert code == 2
    assert "both signs" in err


# --- fuzz ---------------------------------------------------------------------


def test_fuzz_deterministic_stream(capsys):
    code, first, _ = run(capsys, "fuzz", "--atoms", "2", "--trials", "3", "--seed", "7")
    assert code == 0
    code, second, _ = run(capsys, "fuzz", "--atoms", "2", "--trials", "3", "--seed", "7")
    assert code == 0
    assert first == second
    assert first == (
        "trial 0 PASS\n"
        "trial 1 PASS\n"
        "trial 2 PASS\n"
        "fuzz atoms=2 trials=3 seed=7 failures=0\n"
    )


def test_fuzz_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("EPSPACE_SEED", "7")
    _, from_env, _ = run(capsys, "fuzz", "--atoms", "2", "--trials", "3")
    _, explicit, _ = run(capsys, "fuzz", "--atoms", "2", "--trials", "3", "--seed", "7")
    assert from_env == explicit


def test_fuzz_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("EPSPACE_SEED", "not-a-number")
    code, _, err = run(capsys, "fuzz", "--atoms", "2", "--trials", "1")
    assert code == 2
    assert "EPSPACE_SEED" in err


def test_fuzz_rejects_out_of_range_atoms(capsys):
    code, _, err = run(capsys, "fuzz", "--atoms", "9", "--trials", "1")
    assert code == 2
    assert "atoms" in err


# --- usage --------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert "validate" in out
