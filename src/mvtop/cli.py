"""Command-line front end: JSON documents in, verdicts and documents out.

Each subcommand returns its report; `main` alone writes it and picks the exit
code: 1 when its verdict or feasibility is false or a suite case failed, else
0; 2 on a usage or input error and 3 on an exceeded cap, reported on stderr
with nothing on stdout.  No result exceeds its cap: `gen`, `product` and
`metric` exit 3 rather than print more opens than `--max-opens`, else the
document cap of `gen`, allows.  A flag that would be ignored is refused (exit
2): `--oracle` on `check` kinds other than compact and strong-compact, `check
--max-opens` without `--oracle`, and `--max-opens` with `--subbase-only`.
Output is canonical, so a rerun on identical input produces byte-identical
bytes.  A report that cannot be written (a full disk, a closed pipe, no
stdout) is one `error: cannot write the output: ...` line on stderr and exit
2; an error line that stderr cannot take is dropped, and the exit code stays.

Every command runs in a fresh process, where importing the package can cost
more than the computation, so a command imports what only it runs inside its
function: the solvers, maps, products, metrics and suites, and `documents`
(with `json`), which the helpers that read or write a document import; `verify`
reads and writes none.  At module level the CLI loads only the topology core,
and must: a benchmark self-test wraps `cli.generate_from_subbase`.  `main`
reads a well-formed argv off the table `COMMANDS` and leaves any other, help
and usage errors included, to `build_parser`, its argparse parser: a
well-formed request imports neither argparse nor `gettext` and `locale`.

For the same reason `run`, the entry of `python -m mvtop.cli` and of the
`mvtop` script, ends the process with `os._exit` once `main` has written and
flushed its report: the interpreter does not tear down its modules and objects.
An exception that escapes `main` still takes the normal exit, with its
traceback.  To profile a command, wrap `main` in process: `python -m cProfile
-m mvtop.cli` prints the report, but the process ends before the profile.
"""

from __future__ import annotations

import os
import sys

from .core import Record
from .errors import InputError, PreconditionError, ResourceLimitError
from .topology import (
    DEFAULT_MAX_OPENS,
    Topology,
    base_witness,
    check_hausdorff,
    clopens,
    generate_from_subbase,
    is_compact,
    is_strongly_compact,
    is_zero_dimensional,
    large_subbase_witness,
    topology_violation,
)


def _load(path: str) -> object:
    from .documents import loads_document, read_document

    if path != "-":
        return read_document(path, repr(path))
    try:
        if sys.stdin is None:  # the process started with stdin closed
            raise OSError("stdin is closed")
        text = sys.stdin.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, a closed stream
        raise InputError(f"cannot read '-': {exc}") from None
    return loads_document(text, "'-'")


def _space_document(path: str) -> SpaceDocument:
    from .documents import parse_space_document

    return parse_space_document(_load(path))


def _require_opens(doc: SpaceDocument, what: str) -> None:
    if doc.kind != "opens":
        raise InputError(f"{what} requires a document with explicit opens")


def _topology_from(doc: SpaceDocument, what: str) -> Topology:
    _require_opens(doc, what)
    violation = topology_violation(doc.family)
    if violation is not None:
        raise InputError(f"{what} requires a valid topology: {violation}")
    return Topology(doc.carrier, doc.chain, doc.family)


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


def _max_opens(args, caps: dict[str, int]) -> int:
    """The closure cap: the --max-opens flag, else the document cap, else the default."""
    return args.max_opens or caps.get("max_opens") or DEFAULT_MAX_OPENS


def _max_nodes(args) -> int:
    """The solver node cap: the --max-nodes flag, else the solvers' default."""
    from .covers import DEFAULT_MAX_NODES

    return args.max_nodes or DEFAULT_MAX_NODES


def _subbase_only(args) -> bool:
    """Whether to stop at the subbase; a cap on a closure that is not built is refused."""
    if args.subbase_only and args.max_opens is not None:
        raise InputError("--max-opens bounds the closure, which --subbase-only does not build")
    return args.subbase_only


def _verdict(witness, render) -> dict:
    """The report of a check that finds a witness of failure or none."""
    if witness is None:
        return {"verdict": True}
    return {"verdict": False, "witness": render(witness)}


def _space_report(space, kind: str, family, name: str | None, caps: dict[str, int]) -> dict:
    """The family as a space document of the kind, on the chain and carrier of the space."""
    from .documents import SpaceDocument, space_document_to_obj

    doc = SpaceDocument(space.chain, space.carrier, kind, family, name, caps)
    return space_document_to_obj(doc)


# -- check kinds: each returns its report fields -----------------------------------


def _check_topology(doc: SpaceDocument, args) -> dict:
    _require_opens(doc, "check topology")
    return _verdict(topology_violation(doc.family), str)


def _check_large_subbase(doc: SpaceDocument, args) -> dict:
    def render(witness) -> dict:
        member, k, multiple = witness
        return {"member": list(member.values), "multiplicity": k, "missing": list(multiple.values)}

    return _verdict(large_subbase_witness(doc.family), render)


def _on_topology(check):
    """A check of a valid topology as a check of a document with explicit opens."""

    def on_document(doc: SpaceDocument, args) -> dict:
        return check(_topology_from(doc, f"check {args.kind}"), args)

    return on_document


def _check_compact(topology: Topology, args) -> dict:
    strong = args.kind == "strong-compact"
    if not args.oracle:
        verdict = is_strongly_compact(topology) if strong else is_compact(topology)
        return {"verdict": verdict, "method": "finite-model-criterion"}
    from . import oracles

    search = oracles.brute_force_strong_compactness if strong else oracles.brute_force_compactness
    oracle = search(topology, max_opens=args.max_opens or oracles.DEFAULT_ORACLE_OPENS)
    report = {"verdict": oracle.compact, "method": "brute-force"}
    report["covers_checked"] = oracle.covers_checked
    if oracle.counterexample is not None:
        report["witness"] = [list(o.values) for o in oracle.counterexample]
    return report


def _check_hausdorff(topology: Topology, args) -> dict:
    def labels(pair) -> list[str]:
        return [topology.carrier.label(x) for x in pair]

    separation = check_hausdorff(topology)
    if not separation.hausdorff:
        return _verdict(separation.failing_pair, lambda pair: {"pair": labels(pair)})
    witnesses = [
        {"pair": labels(pair), "first": list(ox.values), "second": list(oy.values)}
        for pair, (ox, oy) in separation.witnesses
    ]
    return {"verdict": True, "witnesses": witnesses}


def _check_zerodim(topology: Topology, args) -> dict:
    return _verdict(base_witness(clopens(topology), topology), lambda w: list(w.values))


def _check_stone(topology: Topology, args) -> dict:
    compact = is_compact(topology)
    hausdorff = check_hausdorff(topology).hausdorff
    zerodim = is_zero_dimensional(topology)
    verdict = compact and hausdorff and zerodim
    return {"verdict": verdict, "compact": compact, "hausdorff": hausdorff, "zerodim": zerodim}


CHECKS = {
    "topology": _check_topology,
    "compact": _on_topology(_check_compact),
    "strong-compact": _on_topology(_check_compact),
    "hausdorff": _on_topology(_check_hausdorff),
    "zerodim": _on_topology(_check_zerodim),
    "stone": _on_topology(_check_stone),
    "large-subbase": _check_large_subbase,
}
CHECK_KINDS = tuple(CHECKS)


# -- subcommands: each returns its report ------------------------------------------


def _cmd_gen(args) -> dict:
    doc = _space_document(args.input)
    topology = generate_from_subbase(doc.family, max_size=_max_opens(args, doc.caps))
    return _space_report(doc, "opens", topology.opens, doc.name, doc.caps)


def _cmd_check(args) -> dict:
    if args.oracle and args.kind not in ("compact", "strong-compact"):
        raise InputError(f"--oracle applies to compact and strong-compact, not {args.kind}")
    if args.max_opens is not None and not args.oracle:
        raise InputError("--max-opens bounds the brute-force oracle and requires --oracle")
    doc = _space_document(args.input)
    return {"check": args.kind, **CHECKS[args.kind](doc, args)}


def _cmd_product(args) -> dict:
    from .product import product

    subbase_only = _subbase_only(args)
    docs = [_space_document(path) for path in args.inputs]
    factors = [_topology_from(doc, "product") for doc in docs]
    space = product(factors, max_opens=_max_opens(args, {}))
    if subbase_only:
        return _space_report(space, "subbase", space.subbase, None, {})
    return _space_report(space, "opens", space.topology().opens, None, {})


def _cmd_mincover(args) -> dict:
    from .covers import minimal_additive_cover_search
    from .documents import parse_family_document

    doc = parse_family_document(_load(args.input))
    certificate = minimal_additive_cover_search(doc.family, max_nodes=_max_nodes(args)).certificate
    report: dict = {"chain": doc.chain.n, "points": list(doc.carrier.points)}
    report["feasible"] = certificate is not None
    if certificate is not None:
        report["entries"] = [
            {"vector": list(member.values), "multiplicity": mult}
            for member, mult in certificate.entries
        ]
        report["total"] = certificate.total_multiplicity
    return report


def _cmd_subcover(args) -> dict:
    from .covers import minimal_subcover_search
    from .documents import parse_family_document

    doc = parse_family_document(_load(args.input))
    subcover = minimal_subcover_search(doc.family, max_nodes=_max_nodes(args)).subcover
    report: dict = {"chain": doc.chain.n, "points": list(doc.carrier.points)}
    report["feasible"] = subcover is not None
    if subcover is not None:
        report["family"] = [list(m.values) for m in subcover.members]
        report["size"] = len(subcover)
    return report


def _cmd_metric(args) -> dict:
    from .documents import parse_metric_document
    from .metric import metric_ball_family, metric_induced

    subbase_only = _subbase_only(args)
    doc = parse_metric_document(_load(args.input))
    metric = doc.metric
    if subbase_only:
        balls = metric_ball_family(metric, doc.centers, doc.radii)
        return _space_report(metric, "subbase", balls, doc.name, {})
    topology = metric_induced(metric, doc.centers, doc.radii, max_size=_max_opens(args, {}))
    return _space_report(metric, "opens", topology.opens, doc.name, {})


def _cmd_continuity(args) -> dict:
    from pathlib import Path

    from .documents import parse_map_document
    from .maps import continuity_counterexample

    doc = parse_map_document(_load(args.input), base_dir=Path(args.input).parent)
    domain = _topology_from(doc.domain, "continuity domain")
    codomain = _topology_from(doc.codomain, "continuity codomain")
    witness = continuity_counterexample(doc.map, domain, codomain)
    return {"check": "continuity", **_verdict(witness, lambda w: list(w.values))}


def _cmd_verify(args):
    from . import suites

    names = ", ".join(sorted(suites.SUITES))
    if args.suite not in suites.SUITES:
        raise InputError(f"unknown suite {args.suite!r}; choose from {names}")
    return suites.run_suite(args.suite, args.seed, args.cases)


# -- the command table: both parsers read every command from here ------------------


class Command(Record):
    """A command's runner, help, positionals and flags.  A positional is (dest,
    help, choices, many): any value if `choices` is None, one or more if `many`
    (then the only one).  A flag is (option, dest, convert, default, help),
    store-true if `convert` is None."""

    __slots__ = ("run", "help", "positionals", "flags")


INPUT = ("input", "input document path, or - for stdin", None, False)
MAX_OPENS = ("--max-opens", "max_opens", _positive_int, None, "opens size cap")
MAX_NODES = ("--max-nodes", "max_nodes", _positive_int, None, "solver node cap")
ORACLE_CAP = "oracle opens cap, with --oracle (default: the oracle's own cap)"

COMMANDS = {
    "gen": Command(_cmd_gen, "generate a topology from a subbase document", (INPUT,), (MAX_OPENS,)),
    "check": Command(
        _cmd_check,
        "decide a property of a space document",
        (("kind", None, CHECK_KINDS, False), INPUT),
        (
            ("--oracle", "oracle", None, False, "force brute-force compactness"),
            ("--max-opens", "max_opens", _positive_int, None, ORACLE_CAP),
        ),
    ),
    "product": Command(
        _cmd_product,
        "build the product of space documents",
        (("inputs", "factor space documents", None, True),),
        (("--subbase-only", "subbase_only", None, False, "emit the canonical subbase"), MAX_OPENS),
    ),
    "mincover": Command(
        _cmd_mincover, "least-total additive cover of a family document", (INPUT,), (MAX_NODES,)
    ),
    "subcover": Command(
        _cmd_subcover, "smallest covering subfamily of a family document", (INPUT,), (MAX_NODES,)
    ),
    "metric": Command(
        _cmd_metric,
        "build the topology induced by a metric document",
        (INPUT,),
        (("--subbase-only", "subbase_only", None, False, "emit the ball family"), MAX_OPENS),
    ),
    "continuity": Command(_cmd_continuity, "check a map document for continuity", (INPUT,), ()),
    "verify": Command(
        _cmd_verify,
        "run a randomized verification suite",
        (("suite", "suite to run; an unknown name lists them", None, False),),
        (("--seed", "seed", int, 0, None), ("--cases", "cases", _positive_int, 20, None)),
    ),
}


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
            if token.startswith("-") and token != "-":
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
        if text is None or text.startswith("-"):
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
    try:
        report = COMMANDS[args.command].run(args)
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
