"""The CLI commands `check`, `product`, `metric` and `continuity`; each
imports the products, metrics, maps or oracles it runs."""

from __future__ import annotations

from .documents import _load, _space_document, _space_report, parse_map_document
from .errors import InputError
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


def _require_opens(doc: SpaceDocument, what: str) -> None:
    if doc.kind != "opens":
        raise InputError(f"{what} requires a document with explicit opens")


def _topology_from(doc: SpaceDocument, what: str) -> Topology:
    _require_opens(doc, what)
    violation = topology_violation(doc.family)
    if violation is not None:
        raise InputError(f"{what} requires a valid topology: {violation}")
    return Topology(doc.family)


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


def check(args) -> dict:
    if args.oracle and args.kind not in ("compact", "strong-compact"):
        raise InputError(f"--oracle applies to compact and strong-compact, not {args.kind}")
    if args.max_opens is not None and not args.oracle:
        raise InputError("--max-opens bounds the brute-force oracle and requires --oracle")
    doc = _space_document(args.input)
    return {"check": args.kind, **CHECKS[args.kind](doc, args)}


def product(args) -> dict:
    from .product import product

    subbase_only = _subbase_only(args)
    docs = [_space_document(path) for path in args.inputs]
    factors = [_topology_from(doc, "product") for doc in docs]
    subbase = product(factors).subbase
    if subbase_only:
        return _space_report("subbase", subbase, None, {})
    topology = generate_from_subbase(subbase, max_size=args.max_opens or DEFAULT_MAX_OPENS)
    return _space_report("opens", topology.opens, None, {})


def metric(args) -> dict:
    from .metric import metric_ball_family, metric_induced, parse_metric_document

    subbase_only = _subbase_only(args)
    doc = parse_metric_document(_load(args.input))
    metric = doc.metric
    if subbase_only:
        balls = metric_ball_family(metric, doc.centers, doc.radii)
        return _space_report("subbase", balls, doc.name, {})
    topology = metric_induced(metric, doc.centers, doc.radii, max_size=args.max_opens or DEFAULT_MAX_OPENS)
    return _space_report("opens", topology.opens, doc.name, {})


def continuity(args) -> dict:
    from pathlib import Path

    from .maps import continuity_counterexample

    doc = parse_map_document(_load(args.input), base_dir=Path(args.input).parent)
    domain = _topology_from(doc.domain, "continuity domain")
    codomain = _topology_from(doc.codomain, "continuity codomain")
    witness = continuity_counterexample(doc.map, domain, codomain)
    return {"check": "continuity", **_verdict(witness, lambda w: list(w.values))}
