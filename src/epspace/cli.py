"""Command-line interface.

Subcommands::

    epspace validate <file> [--json] [--sample N] [--seed S]
    epspace eval <file> --event TEXT
    epspace check <file> [--suite all|ID[,ID...]] [--json]
    epspace enumerate <file> [--limit N]
    epspace calc --op union|intersect|diff --left TEXT --right TEXT
    epspace fuzz --atoms N --trials T [--seed S]

Exit codes: 0 on success / all-pass, 1 on any FAIL or evaluation error,
2 on usage or parse errors.  ``fuzz`` takes its default seed from the
``EPSPACE_SEED`` environment variable when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import (
    check_kolmogorov_restriction,
    run_theorem_suite,
    suite_ids,
    validate_axioms,
)
from .errors import EpspaceError, InvalidEventError, ParseError
from .events import Event, annihilating_union, difference, intersection, parse_draft
from .harness import FuzzConfig, parse_space, random_space

_CALC_OPS = {
    "union": annihilating_union,
    "intersect": intersection,
    "diff": difference,
}

# Fuzz trials switch the validator to sampling past this size; exhaustive
# additivity enumerates 5**n split pairs.
_EXHAUSTIVE_ATOM_LIMIT = 5
_SAMPLED_TRIALS = 400


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epspace",
        description="Signed sample spaces with annihilation and exact extended probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the axioms on a space file")
    p_validate.add_argument("file")
    p_validate.add_argument("--json", action="store_true", help="structured report")
    p_validate.add_argument("--sample", type=int, metavar="N", default=None,
                            help="sample N probes instead of exhausting the family")
    p_validate.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_validate.set_defaults(func=_cmd_validate)

    p_eval = sub.add_parser("eval", help="evaluate the probability of an event")
    p_eval.add_argument("file")
    p_eval.add_argument("--event", required=True, metavar="TEXT",
                        help="comma-separated signed labels, e.g. a,-b")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", help="run the identity suite on a space file")
    p_check.add_argument("file")
    p_check.add_argument("--suite", default="all", metavar="IDS",
                         help='"all", "kolmogorov", or comma-separated ids like P10,L6')
    p_check.add_argument("--json", action="store_true", help="structured report")
    p_check.set_defaults(func=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="list every measurable event in canonical order")
    p_enum.add_argument("file")
    p_enum.add_argument("--limit", type=int, default=None, metavar="N")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_calc = sub.add_parser("calc", help="pure event algebra, no space file needed")
    p_calc.add_argument("--op", required=True, choices=sorted(_CALC_OPS))
    p_calc.add_argument("--left", required=True, metavar="TEXT")
    p_calc.add_argument("--right", required=True, metavar="TEXT")
    p_calc.set_defaults(func=_cmd_calc)

    p_fuzz = sub.add_parser("fuzz", help="validate seeded random spaces")
    p_fuzz.add_argument("--atoms", type=int, required=True, metavar="N")
    p_fuzz.add_argument("--trials", type=int, required=True, metavar="T")
    p_fuzz.add_argument("--seed", type=int, default=None,
                        help="defaults to $EPSPACE_SEED, then 0")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path!r}: not UTF-8 text") from None
    return parse_space(text)


def _print_report(report, as_json: bool) -> int:
    if as_json:
        print(report.as_json())
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    if args.sample is not None and args.sample < 1:
        print("epspace: --sample must be at least 1", file=sys.stderr)
        return 2
    space = _load(args.file)
    report = validate_axioms(space, trials=args.sample, seed=args.seed)
    return _print_report(report, args.json)


def _cmd_eval(args) -> int:
    space = _load(args.file)
    value = space.draft_probability(parse_draft(args.event))
    print(f"{value} (= {float(value)})")
    return 0


def _cmd_check(args) -> int:
    space = _load(args.file)
    token = args.suite.strip()
    if token.lower() == "all":
        report = run_theorem_suite(space)
    elif token.lower() == "kolmogorov":
        report = check_kolmogorov_restriction(space)
    else:
        known = {check_id.lower(): check_id for check_id in suite_ids()}
        ids = []
        for piece in token.split(","):
            piece = piece.strip().lower()
            if piece not in known:
                print(f"epspace: unknown suite id {piece!r}", file=sys.stderr)
                return 2
            ids.append(known[piece])
        report = run_theorem_suite(space, ids)
    return _print_report(report, args.json)


def _cmd_enumerate(args) -> int:
    space = _load(args.file)
    events = tuple(space.f)
    if args.limit is not None:
        if args.limit < 0:
            print("epspace: --limit must be non-negative", file=sys.stderr)
            return 2
        events = events[: args.limit]
    for event in events:
        print(event.text())
    return 0


def _cmd_calc(args) -> int:
    left = Event(args.left)
    right = Event(args.right)
    result = _CALC_OPS[args.op](left, right)
    print(result.text())
    return 0


def _cmd_fuzz(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get("EPSPACE_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            print(f"epspace: EPSPACE_SEED is not an integer: {raw!r}", file=sys.stderr)
            return 2
    try:
        config = FuzzConfig(atoms=args.atoms, trials=args.trials, seed=seed)
    except ValueError as exc:
        print(f"epspace: {exc}", file=sys.stderr)
        return 2

    sample = None if config.atoms <= _EXHAUSTIVE_ATOM_LIMIT else _SAMPLED_TRIALS
    failures = 0
    for trial in range(config.trials):
        space = random_space(config, trial)
        report = validate_axioms(space, trials=sample, seed=config.seed + trial)
        if report.ok:
            print(f"trial {trial} PASS")
        else:
            failures += 1
            print(f"trial {trial} FAIL")
            for entry in report.failures():
                print(f"  {entry.line()}")
    print(
        f"fuzz atoms={config.atoms} trials={config.trials} seed={config.seed} "
        f"failures={failures}"
    )
    return 0 if failures == 0 else 1


def run_cli(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ParseError, InvalidEventError) as exc:
        print(f"epspace: {exc}", file=sys.stderr)
        return 2
    except EpspaceError as exc:
        print(f"epspace: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
