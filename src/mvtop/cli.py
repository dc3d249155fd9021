"""Command-line front end: JSON documents in, verdicts and documents out.

`main` writes each command's report and picks the exit code: 1 when a verdict
or feasibility is false or a suite case failed, else 0; 2 on a usage or input
error and 3 on an exceeded cap, each with one `error:` line on stderr (the
README has the whole contract).

A request is a fresh process, which compiles what it imports, so this module
is a dispatcher: a `COMMANDS` runner is "module:function", and `main` imports
its module only to run it.  `topology` is loaded here while the benchmark's
tracer wraps `cli.generate_from_subbase`.  A well-formed argv is read off
`COMMANDS`, any other goes to argparse (`build_parser`): a well-formed request
imports no argparse, `gettext` or `locale`.  `run` ends the process with
`os._exit` once `main` has flushed its report; profile `main` in process.
"""

from __future__ import annotations

import importlib
import os
import sys

from .core import Record
from .errors import InputError, PreconditionError, ResourceLimitError
from .topology import DEFAULT_MAX_OPENS, generate_from_subbase

CHECK_KINDS = ("topology", "compact", "strong-compact", "hausdorff", "zerodim", "stone", "large-subbase")


def _positive_int(text: str) -> int:
    """The converter of caps and case counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def gen(args) -> dict:
    from .documents import _space_document, _space_report

    doc = _space_document(args.input)
    cap = args.max_opens or doc.caps.get("max_opens") or DEFAULT_MAX_OPENS
    topology = generate_from_subbase(doc.family, max_size=cap)
    return _space_report("opens", topology.opens, doc.name, doc.caps)


def verify(args):
    from . import suites

    names = ", ".join(sorted(suites.SUITES))
    if args.suite not in suites.SUITES:
        raise InputError(f"unknown suite {args.suite!r}; choose from {names}")
    return suites.run_suite(args.suite, args.seed, args.cases)


# -- the command table: both parsers read every command from here ------------------


class Command(Record):
    """A command's runner, as "module:function", help, positionals and flags.  A
    positional is (dest, help, choices, many): any value if `choices` is None,
    one or more if `many` (then the only one).  A flag is (option, dest,
    convert, default, help), store-true if `convert` is None."""

    __slots__ = ("run", "help", "positionals", "flags")


INPUT = ("input", "input document path, or - for stdin", None, False)
MAX_OPENS = ("--max-opens", "max_opens", _positive_int, None, "opens size cap")
MAX_NODES = ("--max-nodes", "max_nodes", _positive_int, None, "solver node cap")
ORACLE_CAP = "oracle opens cap, with --oracle (default: the oracle's own cap)"

COMMANDS = {
    "gen": Command("cli:gen", "generate a topology from a subbase document", (INPUT,), (MAX_OPENS,)),
    "check": Command(
        "cli_spaces:check",
        "decide a property of a space document",
        (("kind", None, CHECK_KINDS, False), INPUT),
        (
            ("--oracle", "oracle", None, False, "force brute-force compactness"),
            ("--max-opens", "max_opens", _positive_int, None, ORACLE_CAP),
        ),
    ),
    "product": Command(
        "cli_spaces:product",
        "build the product of space documents",
        (("inputs", "factor space documents", None, True),),
        (("--subbase-only", "subbase_only", None, False, "emit the canonical subbase"), MAX_OPENS),
    ),
    "mincover": Command(
        "cli_covers:mincover", "least-total additive cover of a family document", (INPUT,), (MAX_NODES,)
    ),
    "subcover": Command(
        "cli_covers:subcover", "smallest covering subfamily of a family document", (INPUT,), (MAX_NODES,)
    ),
    "metric": Command(
        "cli_spaces:metric",
        "build the topology induced by a metric document",
        (INPUT,),
        (("--subbase-only", "subbase_only", None, False, "emit the ball family"), MAX_OPENS),
    ),
    "continuity": Command("cli_spaces:continuity", "check a map document for continuity", (INPUT,), ()),
    "verify": Command(
        "cli:verify",
        "run a randomized verification suite",
        (("suite", "suite to run; an unknown name lists them", None, False),),
        (("--seed", "seed", int, 0, None), ("--cases", "cases", _positive_int, 20, None)),
    ),
}


def _option_like(token: str) -> bool:
    r"""Whether argparse may read the token as an option: "-" and more, but not a
    negative number by its rule `^-\d+$|^-\d*\.\d+$` (`\d` is `isdecimal`; a
    trailing newline, which `$` accepts, is left to argparse)."""
    whole, dot, fraction = token[1:].partition(".")
    number = (whole + fraction).isdecimal() and (fraction or not dot)
    return token[:1] == "-" and token != "-" and not number


class Arguments:
    """A parsed argv: `command` and one attribute per positional and flag."""

    def __init__(self, values: dict[str, object]):
        self.__dict__.update(values)


def parse_args(argv: list[str]) -> Arguments | None:
    """The arguments of a well-formed argv, read off the table, else None: the
    command, its positionals and each of its flags at most once, in any order
    that argparse reads the same way."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0], **{flag[1]: flag[3] for flag in command.flags}}
    flags = {flag[0]: flag for flag in command.flags}  # popped when given: a repeat is refused
    found: list[str] = []
    runs = 0  # of positionals, which flags separate
    after_flag = True
    tokens = iter(argv[1:])
    for token in tokens:
        flag = flags.pop(token, None)
        if flag is None:
            if _option_like(token):
                return None
            runs += after_flag
            after_flag = False
            found.append(token)
            continue
        _, dest, convert, _, _ = flag
        after_flag = True
        if convert is None:
            values[dest] = True
            continue
        text = next(tokens, None)
        if text is None or _option_like(text):
            return None
        try:
            values[dest] = convert(text)
        except Exception:  # a refused value: argparse words the error
            return None
    if command.positionals[-1][3]:
        if runs != 1:  # argparse takes the values of a many positional from one run
            return None
        found = [found]
    if len(found) != len(command.positionals):
        return None
    for (dest, _, choices, _), value in zip(command.positionals, found):
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return Arguments(values)


def build_parser():
    """The argparse parser of the table, which answers every argv `parse_args` does not."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mvtop",
        description="Exact workbench for finite MV-topological spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest, help, choices, many in command.positionals:
            p.add_argument(dest, nargs="+" if many else None, choices=choices, help=help)
        for option, dest, convert, default, help in command.flags:
            how = {"action": "store_true"} if convert is None else {"type": convert}
            p.add_argument(option, dest=dest, default=default, help=help, **how)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error already on stderr
            return _emit("", int(exc.code or 0))
    module, _, name = COMMANDS[args.command].run.partition(":")
    if module == "cli":  # this module, which may run as __main__
        runner = globals()[name]
    else:
        runner = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    try:
        report = runner(args)
    except (InputError, PreconditionError) as exc:
        return _error(exc, 2)
    except ResourceLimitError as exc:
        return _error(exc, 3)
    if isinstance(report, dict):
        from .documents import dumps_canonical

        code = 0 if report.get("verdict", True) and report.get("feasible", True) else 1
        return _emit(dumps_canonical(report), code)
    from . import suites  # only verify, which has loaded it, returns a suite report

    return _emit(suites.render_report(report), 0 if report.all_passed else 1)


def _emit(text: str, code: int) -> int:
    """Write the report and flush stdout; `code`, or 2 if stdout cannot take it."""
    try:
        if sys.stdout is None:  # the process started with stdout closed
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        return _error(f"cannot write the output: {exc}", 2)
    return code


def _error(message: object, code: int) -> int:
    """Report an error on one stderr line, if stderr takes it; returns the exit code."""
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        pass
    return code


def run() -> None:
    """The `mvtop` entry: `main`, then the process ends without interpreter teardown.

    `main` has flushed its report, so nothing is lost; an exception escaping it
    still leaves through the normal exit, with its traceback.
    """
    os._exit(main())


if __name__ == "__main__":
    run()
