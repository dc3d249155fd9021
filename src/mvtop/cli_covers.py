"""The CLI commands `mincover` and `subcover`: the exact cover solvers."""

from __future__ import annotations

from .covers import DEFAULT_MAX_NODES, minimal_additive_cover_search, minimal_subcover_search
from .documents import _load, parse_family_document


def _max_nodes(args) -> int:
    """The solver node cap: the --max-nodes flag, else the solvers' default."""
    return args.max_nodes or DEFAULT_MAX_NODES


def mincover(args) -> dict:
    doc = parse_family_document(_load(args.input))
    certificate = minimal_additive_cover_search(doc.family, max_nodes=_max_nodes(args)).certificate
    report: dict = {"chain": doc.family.chain.n, "points": list(doc.family.carrier.points)}
    report["feasible"] = certificate is not None
    if certificate is not None:
        report["entries"] = [
            {"vector": list(member.values), "multiplicity": mult}
            for member, mult in certificate.entries
        ]
        report["total"] = certificate.total_multiplicity
    return report


def subcover(args) -> dict:
    doc = parse_family_document(_load(args.input))
    subcover = minimal_subcover_search(doc.family, max_nodes=_max_nodes(args)).subcover
    report: dict = {"chain": doc.family.chain.n, "points": list(doc.family.carrier.points)}
    report["feasible"] = subcover is not None
    if subcover is not None:
        report["family"] = [list(m.values) for m in subcover.members]
        report["size"] = len(subcover)
    return report
