"""Continuity and morphism predicates between finite MV-topological spaces."""

from __future__ import annotations

from .core import FuzzyFamily, FuzzySet, PointMap, forward_image, mv_preimage
from .errors import InputError
from .topology import Topology, closed_sets


def _check_spaces(f: PointMap, domain: Topology, codomain: Topology) -> None:
    if f.domain != domain.carrier or f.codomain != codomain.carrier:
        raise InputError("map endpoints do not match the given topologies")
    if domain.chain != codomain.chain:
        raise InputError("the topologies live on different chains")


def continuity_counterexample(
    f: PointMap, domain: Topology, codomain: Topology
) -> FuzzySet | None:
    """First codomain open, in canonical order, whose preimage is not open."""
    _check_spaces(f, domain, codomain)
    for o in codomain.opens:
        if mv_preimage(f, o) not in domain.opens:
            return o
    return None


def is_continuous(f: PointMap, domain: Topology, codomain: Topology) -> bool:
    return continuity_counterexample(f, domain, codomain) is None


def is_continuous_via_base(f: PointMap, domain: Topology, base: FuzzyFamily) -> bool:
    """Continuity tested against a base of the codomain topology only."""
    if f.domain != domain.carrier or f.codomain != base.carrier:
        raise InputError("map endpoints do not match the domain topology and base")
    if domain.chain != base.chain:
        raise InputError("the domain topology and base live on different chains")
    return all(mv_preimage(f, theta) in domain.opens for theta in base)


def is_open_map(f: PointMap, domain: Topology, codomain: Topology) -> bool:
    _check_spaces(f, domain, codomain)
    return all(forward_image(f, o) in codomain.opens for o in domain.opens)


def is_closed_map(f: PointMap, domain: Topology, codomain: Topology) -> bool:
    _check_spaces(f, domain, codomain)
    closed = closed_sets(codomain)
    return all(forward_image(f, c) in closed for c in closed_sets(domain))


def is_homeomorphism(f: PointMap, domain: Topology, codomain: Topology) -> bool:
    _check_spaces(f, domain, codomain)
    if not f.is_bijective:
        return False
    return is_continuous(f, domain, codomain) and is_continuous(
        f.inverse(), codomain, domain
    )
