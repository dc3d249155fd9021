"""Command-line front end: JSON documents in, verdicts and documents out.

Exit codes: 0 verdict true / all cases pass, 1 verdict false / failure found,
2 usage or input error, 3 resource cap exceeded.  No result exceeds its cap:
`gen`, `product` and `metric` exit 3 instead of printing more opens than
`--max-opens` or the document cap allows.  `check` takes `--oracle` only for
compact and strong-compact, and `--max-opens` only with `--oracle`; it refuses
a flag it would ignore (exit 2).  Output is canonical, so a rerun on identical
input produces byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .covers import (
    DEFAULT_MAX_NODES,
    is_compact,
    is_strongly_compact,
    minimal_additive_cover_search,
    minimal_subcover_search,
)
from .documents import (
    SpaceDocument,
    dumps_canonical,
    loads_document,
    parse_family_document,
    parse_map_document,
    parse_metric_document,
    parse_space_document,
    read_document,
    space_document_to_obj,
)
from .errors import InputError, PreconditionError, ResourceLimitError
from .maps import continuity_counterexample
from .product import product
from .topology import (
    DEFAULT_MAX_OPENS,
    Topology,
    base_witness,
    check_hausdorff,
    clopens,
    generate_from_subbase,
    is_zero_dimensional,
    large_subbase_witness,
    metric_ball_family,
    metric_induced,
    topology_violation,
)

CHECK_KINDS = (
    "topology",
    "compact",
    "strong-compact",
    "hausdorff",
    "zerodim",
    "stone",
    "large-subbase",
)


def _load(path: str) -> object:
    if path != "-":
        return read_document(path, repr(path))
    try:
        text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read '-': {exc}") from None
    return loads_document(text, "'-'")


def _space_document(path: str) -> SpaceDocument:
    return parse_space_document(_load(path))


def _topology_from(doc: SpaceDocument, what: str) -> Topology:
    if doc.kind != "opens":
        raise InputError(f"{what} requires a document with explicit opens")
    violation = topology_violation(doc.family)
    if violation is not None:
        raise InputError(f"{what} requires a valid topology: {violation}")
    return Topology(doc.carrier, doc.chain, doc.family)


def _positive_int(text: str) -> int:
    """Argparse type for caps and case counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _emit(obj: dict) -> None:
    sys.stdout.write(dumps_canonical(obj))


# -- subcommands -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    doc = _space_document(args.input)
    max_opens = args.max_opens or doc.caps.get("max_opens") or DEFAULT_MAX_OPENS
    topology = generate_from_subbase(doc.family, max_size=max_opens)
    out = SpaceDocument(doc.chain, doc.carrier, "opens", topology.opens, doc.name, doc.caps)
    _emit(space_document_to_obj(out))
    return 0


def _cmd_check(args) -> int:
    kind = args.kind
    if args.oracle and kind not in ("compact", "strong-compact"):
        raise InputError(f"--oracle applies to compact and strong-compact, not {kind}")
    if args.max_opens is not None and not args.oracle:
        raise InputError("--max-opens bounds the brute-force oracle and requires --oracle")
    doc = _space_document(args.input)
    report: dict = {"check": kind}

    if kind == "topology":
        if doc.kind != "opens":
            raise InputError("check topology requires a document with explicit opens")
        violation = topology_violation(doc.family)
        report["verdict"] = violation is None
        if violation is not None:
            report["witness"] = violation
    elif kind == "large-subbase":
        witness = large_subbase_witness(doc.family)
        report["verdict"] = witness is None
        if witness is not None:
            member, k, multiple = witness
            report["witness"] = {
                "member": list(member.values),
                "multiplicity": k,
                "missing": list(multiple.values),
            }
    else:
        topology = _topology_from(doc, f"check {kind}")
        if kind in ("compact", "strong-compact"):
            strong = kind == "strong-compact"
            if args.oracle:
                from . import oracles

                search = (
                    oracles.brute_force_strong_compactness
                    if strong
                    else oracles.brute_force_compactness
                )
                oracle = search(topology, max_opens=args.max_opens or oracles.DEFAULT_ORACLE_OPENS)
                report["verdict"] = oracle.compact
                report["method"] = "brute-force"
                report["covers_checked"] = oracle.covers_checked
                if oracle.counterexample is not None:
                    report["witness"] = [list(o.values) for o in oracle.counterexample]
            else:
                report["verdict"] = (
                    is_strongly_compact(topology) if strong else is_compact(topology)
                )
                report["method"] = "finite-model-criterion"
        elif kind == "hausdorff":
            separation = check_hausdorff(topology)
            report["verdict"] = separation.hausdorff
            if separation.hausdorff:
                report["witnesses"] = [
                    {
                        "pair": [topology.carrier.label(x), topology.carrier.label(y)],
                        "first": list(ox.values),
                        "second": list(oy.values),
                    }
                    for (x, y), (ox, oy) in separation.witnesses
                ]
            else:
                x, y = separation.failing_pair
                report["witness"] = {
                    "pair": [topology.carrier.label(x), topology.carrier.label(y)]
                }
        elif kind == "zerodim":
            witness = base_witness(clopens(topology), topology)
            report["verdict"] = witness is None
            if witness is not None:
                report["witness"] = list(witness.values)
        elif kind == "stone":
            compact = is_compact(topology)
            hausdorff = check_hausdorff(topology).hausdorff
            zerodim = is_zero_dimensional(topology)
            report["verdict"] = compact and hausdorff and zerodim
            report["compact"] = compact
            report["hausdorff"] = hausdorff
            report["zerodim"] = zerodim

    _emit(report)
    return 0 if report["verdict"] else 1


def _cmd_product(args) -> int:
    docs = [_space_document(path) for path in args.inputs]
    factors = [_topology_from(doc, "product") for doc in docs]
    space = product(factors, max_opens=args.max_opens)
    if args.subbase_only:
        out = SpaceDocument(space.chain, space.carrier, "subbase", space.subbase)
    else:
        out = SpaceDocument(space.chain, space.carrier, "opens", space.topology().opens)
    _emit(space_document_to_obj(out))
    return 0


def _cmd_mincover(args) -> int:
    doc = parse_family_document(_load(args.input))
    search = minimal_additive_cover_search(doc.family, max_nodes=args.max_nodes)
    report: dict = {"chain": doc.chain.n, "points": list(doc.carrier.points)}
    if search.certificate is None:
        report["feasible"] = False
        _emit(report)
        return 1
    report["feasible"] = True
    report["entries"] = [
        {"vector": list(member.values), "multiplicity": mult}
        for member, mult in search.certificate.entries
    ]
    report["total"] = search.certificate.total_multiplicity
    _emit(report)
    return 0


def _cmd_subcover(args) -> int:
    doc = parse_family_document(_load(args.input))
    search = minimal_subcover_search(doc.family, max_nodes=args.max_nodes)
    report: dict = {"chain": doc.chain.n, "points": list(doc.carrier.points)}
    if search.subcover is None:
        report["feasible"] = False
        _emit(report)
        return 1
    report["feasible"] = True
    report["family"] = [list(m.values) for m in search.subcover.members]
    report["size"] = len(search.subcover)
    _emit(report)
    return 0


def _cmd_metric(args) -> int:
    doc = parse_metric_document(_load(args.input))
    if args.subbase_only:
        balls = metric_ball_family(doc.metric, doc.centers, doc.radii)
        out = SpaceDocument(doc.metric.chain, doc.metric.carrier, "subbase", balls, doc.name)
    else:
        topology = metric_induced(doc.metric, doc.centers, doc.radii, max_size=args.max_opens)
        out = SpaceDocument(doc.metric.chain, doc.metric.carrier, "opens", topology.opens, doc.name)
    _emit(space_document_to_obj(out))
    return 0


def _cmd_continuity(args) -> int:
    doc = parse_map_document(_load(args.input), base_dir=Path(args.input).parent)
    domain = _topology_from(doc.domain, "continuity domain")
    codomain = _topology_from(doc.codomain, "continuity codomain")
    witness = continuity_counterexample(doc.map, domain, codomain)
    report: dict = {"check": "continuity", "verdict": witness is None}
    if witness is not None:
        report["witness"] = list(witness.values)
    _emit(report)
    return 0 if witness is None else 1


def _cmd_verify(args) -> int:
    from . import suites  # loads generators and oracles; imported here to keep other commands lean

    names = ", ".join(sorted(suites.SUITES))
    if args.suite not in suites.SUITES:
        raise InputError(f"unknown suite {args.suite!r}; choose from {names}")
    report = suites.run_suite(args.suite, args.seed, args.cases)
    sys.stdout.write(suites.render_report(report))
    return 0 if report.all_passed else 1


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvtop",
        description="Exact workbench for finite MV-topological spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="input document path, or - for stdin")

    def add_max_opens(p, default=DEFAULT_MAX_OPENS):
        p.add_argument("--max-opens", type=_positive_int, default=default, help="opens size cap")

    def add_max_nodes(p):
        p.add_argument(
            "--max-nodes", type=_positive_int, default=DEFAULT_MAX_NODES, help="solver node cap"
        )

    p = sub.add_parser("gen", help="generate a topology from a subbase document")
    add_input(p)
    add_max_opens(p, None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="decide a property of a space document")
    p.add_argument("kind", choices=CHECK_KINDS)
    add_input(p)
    p.add_argument("--oracle", action="store_true", help="force brute-force compactness")
    p.add_argument(
        "--max-opens",
        type=_positive_int,
        default=None,
        help="oracle opens cap, with --oracle (default: the oracle's own cap)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("product", help="build the product of space documents")
    p.add_argument("inputs", nargs="+", help="factor space documents")
    p.add_argument("--subbase-only", action="store_true", help="emit the canonical subbase")
    add_max_opens(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("mincover", help="least-total additive cover of a family document")
    add_input(p)
    add_max_nodes(p)
    p.set_defaults(func=_cmd_mincover)

    p = sub.add_parser("subcover", help="smallest covering subfamily of a family document")
    add_input(p)
    add_max_nodes(p)
    p.set_defaults(func=_cmd_subcover)

    p = sub.add_parser("metric", help="build the topology induced by a metric document")
    add_input(p)
    p.add_argument("--subbase-only", action="store_true", help="emit the ball family")
    add_max_opens(p)
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("continuity", help="check a map document for continuity")
    add_input(p)
    p.set_defaults(func=_cmd_continuity)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", help="suite to run; an unknown name lists them")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=20)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
