"""Continuity and morphism predicates between finite MV-topological spaces,
forward images, and the ideal and filter predicates on families."""

from __future__ import annotations

from .core import FuzzyFamily, FuzzySet, Lanes, PointMap, mv_preimage
from .errors import InputError
from .topology import Topology, closed_sets


def forward_image(f: PointMap, alpha: FuzzySet) -> FuzzySet:
    """Push a fuzzy set forward: sup over each fiber, 0 on empty fibers."""
    if alpha.carrier != f.domain:
        raise InputError("the set to push forward must live on the map's domain")
    out = [0] * f.codomain.size
    for x, v in enumerate(alpha.values):
        y = f.images[x]
        if v > out[y]:
            out[y] = v
    return FuzzySet._trusted(f.codomain, alpha.chain, tuple(out))


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


# -- ideals and filters --------------------------------------------------------------


def _order_and_op_closed(
    family: FuzzyFamily, step: int, op: Callable[[Lanes, int, int], int]
) -> bool:
    """Nonempty, closed under single-step moves of one value by step (-1 down,
    +1 up, within 0..n), and closed under the binary lane op.

    Single-step moves generate the pointwise order, so checking them one
    coordinate at a time decides full downward (upward) closure.  A move is
    one lane unit, 1 << s for the lane at bit s, added to or taken from the int.
    """
    lanes, packed, present, n = family.lanes, family.packed, family.present, family.chain.n
    if not packed:
        return False
    mask = (1 << lanes.shift) - 1
    for x in packed:
        for s in range(0, lanes.width * lanes.size, lanes.width):
            if 0 <= (x >> s & mask) + step <= n and x + (step << s) not in present:
                return False
    for i, a in enumerate(packed):
        # both ops are commutative: each unordered pair once
        for b in packed[i:]:
            if op(lanes, a, b) not in present:
                return False
    return True


def is_ideal(family: FuzzyFamily) -> bool:
    """True iff the family is nonempty, downward closed, and closed under oplus."""
    return _order_and_op_closed(family, -1, Lanes.oplus)


def is_filter(family: FuzzyFamily) -> bool:
    """True iff the family is nonempty, upward closed, and closed under odot."""
    return _order_and_op_closed(family, 1, Lanes.odot)
