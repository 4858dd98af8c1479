"""Command-line interface.

Subcommands::

    epspace validate <file> [--json] [--sample N] [--seed S]
    epspace eval <file> --event TEXT
    epspace check <file> [--suite all|ID[,ID...]] [--json]
    epspace enumerate <file> [--limit N]
    epspace calc --op union|intersect|diff --left TEXT --right TEXT
    epspace fuzz --atoms N --trials T [--seed S]

Exit codes: 0 on success / all-pass, 1 on any FAIL or evaluation error
(and, from :func:`main`, when the reader closes stdout early), 2 on usage
or parse errors.  ``fuzz`` takes its default seed from the
``EPSPACE_SEED`` environment variable when ``--seed`` is absent.

A call builds only the parser of the command it runs; usage errors and
``--help`` read exactly as from the full parser (:func:`build_parser`).
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
# additivity enumerates 5**n split pairs on any space its certificate does
# not pass.
_EXHAUSTIVE_ATOM_LIMIT = 5
_SAMPLED_TRIALS = 400


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


def _validate_arguments(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--json", action="store_true", help="structured report")
    parser.add_argument("--sample", type=int, metavar="N", default=None,
                        help="sample N probes instead of exhausting the family")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")


def _cmd_validate(args) -> int:
    if args.sample is not None and args.sample < 1:
        print("epspace: --sample must be at least 1", file=sys.stderr)
        return 2
    space = _load(args.file)
    report = validate_axioms(space, trials=args.sample, seed=args.seed)
    return _print_report(report, args.json)


def _eval_arguments(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--event", required=True, metavar="TEXT",
                        help="comma-separated signed labels, e.g. a,-b")


def _cmd_eval(args) -> int:
    space = _load(args.file)
    value = space.draft_probability(parse_draft(args.event))
    print(f"{value} (= {float(value)})")
    return 0


def _check_arguments(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--suite", default="all", metavar="IDS",
                        help='"all", "kolmogorov", or comma-separated ids like P10,L6')
    parser.add_argument("--json", action="store_true", help="structured report")


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


def _enumerate_arguments(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--limit", type=int, default=None, metavar="N")


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        print("epspace: --limit must be non-negative", file=sys.stderr)
        return 2
    space = _load(args.file)
    for event in tuple(space.f)[: args.limit]:
        print(event.text())
    return 0


def _calc_arguments(parser) -> None:
    parser.add_argument("--op", required=True, choices=sorted(_CALC_OPS))
    parser.add_argument("--left", required=True, metavar="TEXT")
    parser.add_argument("--right", required=True, metavar="TEXT")


def _cmd_calc(args) -> int:
    left = Event(args.left)
    right = Event(args.right)
    result = _CALC_OPS[args.op](left, right)
    print(result.text())
    return 0


def _fuzz_arguments(parser) -> None:
    parser.add_argument("--atoms", type=int, required=True, metavar="N")
    parser.add_argument("--trials", type=int, required=True, metavar="T")
    parser.add_argument("--seed", type=int, default=None,
                        help="defaults to $EPSPACE_SEED, then 0")


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


# name -> (help, add_arguments, handler): the one place each command's
# arguments are declared, in the order the usage lists the commands.
_COMMANDS = {
    "validate": ("check the axioms on a space file", _validate_arguments, _cmd_validate),
    "eval": ("evaluate the probability of an event", _eval_arguments, _cmd_eval),
    "check": ("run the identity suite on a space file", _check_arguments, _cmd_check),
    "enumerate": ("list every measurable event in canonical order", _enumerate_arguments, _cmd_enumerate),
    "calc": ("pure event algebra, no space file needed", _calc_arguments, _cmd_calc),
    "fuzz": ("validate seeded random spaces", _fuzz_arguments, _cmd_fuzz),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epspace",
        description="Signed sample spaces with annihilation and exact extended probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(func=handler)
    return parser


def _parse_arguments(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, building only
    the named command's parser when ``argv`` starts with one.

    That parser is the one ``add_parser`` makes (same prog, usage, help and
    errors).  Arguments it leaves over, and any argv that does not start with
    a command, go to the full parser, whose usage and errors they report.
    """
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        _, add_arguments, handler = _COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"epspace {name}")
        add_arguments(parser)
        parser.set_defaults(command=name, func=handler)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def run_cli(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_arguments(argv)
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
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``epspace enumerate ... | head``).
        # Point stdout at devnull so the flush at shutdown cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
