"""Continuity and morphism predicates between finite MV-topological spaces."""

from __future__ import annotations

from .core import FuzzyFamily, FuzzySet, PointMap, forward_image, mv_preimage
from .errors import InputError
from .topology import Topology, closed_sets


def _check_spaces(f: PointMap, domain: Topology, codomain: Topology | FuzzyFamily) -> None:
    if f.domain != domain.carrier or f.codomain != codomain.carrier:
        raise InputError("map endpoints do not match the given topologies")
    if domain.chain != codomain.chain:
        raise InputError("the topologies live on different chains")


def _first_non_open_preimage(f: PointMap, domain: Topology, family: FuzzyFamily) -> FuzzySet | None:
    return next((o for o in family if mv_preimage(f, o) not in domain.opens), None)


def continuity_counterexample(
    f: PointMap, domain: Topology, codomain: Topology
) -> FuzzySet | None:
    """First codomain open, in canonical order, whose preimage is not open."""
    _check_spaces(f, domain, codomain)
    return _first_non_open_preimage(f, domain, codomain.opens)


def is_continuous(f: PointMap, domain: Topology, codomain: Topology) -> bool:
    return continuity_counterexample(f, domain, codomain) is None


def is_continuous_via_base(f: PointMap, domain: Topology, base: FuzzyFamily) -> bool:
    """Continuity tested against a base of the codomain topology only."""
    _check_spaces(f, domain, base)
    return _first_non_open_preimage(f, domain, base) is None


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
