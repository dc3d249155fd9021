"""Finite products of MV-topological spaces.

`product` builds a `ProductSpace`: its points, numbered in mixed radix over
the factor sizes with factor 0 most significant, the projections and the
canonical subbase of all preimages of factor opens along them, refused before
its first point if too large.  A caller generates the topology, whose opens
count grows multiplicatively.
"""

from __future__ import annotations

import itertools
import math

from .core import Carrier, Chain, FuzzyFamily, PointMap, Record, mv_preimage
from .errors import InputError, PreconditionError, ResourceLimitError
from .topology import Topology

# the most values, points times members, that a product subbase may hold
MAX_PRODUCT_VALUES = 2**20


class ProductSpace(Record):
    """A product's factors, carrier, projections and canonical subbase."""

    __slots__ = ("factors", "carrier", "projections", "subbase")
    factors: tuple[Topology, ...]
    carrier: Carrier
    projections: tuple[PointMap, ...]
    subbase: FuzzyFamily

    @property
    def chain(self) -> Chain:
        return self.subbase.chain

    def index_of(self, coordinate: tuple[int, ...]) -> int:
        index = 0
        for c, f in itertools.zip_longest(coordinate, self.factors):
            if f is None or c not in range(f.carrier.size):
                raise InputError(f"{coordinate!r} is not a point of the product")
            index = index * f.carrier.size + c
        return index


def product(factors: Sequence[Topology]) -> ProductSpace:
    """The product of the factors, which share one chain."""
    factors = tuple(factors)
    if not factors:
        raise InputError("a product needs at least one factor")
    chain = factors[0].chain
    if any(f.chain != chain for f in factors):
        raise InputError("all product factors must share one chain")
    values = math.prod(f.carrier.size for f in factors) * sum(len(f.opens) for f in factors)
    if values > MAX_PRODUCT_VALUES:
        cap = MAX_PRODUCT_VALUES
        raise ResourceLimitError("product subbase exceeds the size cap", limit=cap, reached=values)

    coords = tuple(itertools.product(*(range(f.carrier.size) for f in factors)))
    points: dict[str, tuple[str, ...]] = {}  # each point's label: its factor labels
    for c in coords:
        t = tuple(f.carrier.label(i) for f, i in zip(factors, c))
        label = "(" + ",".join(t) + ")"
        if label in points:  # factor labels with commas can collide
            raise InputError(f"product points {points[label]} and {t} are both labelled {label!r}")
        points[label] = t
    carrier = Carrier(tuple(points))
    projections = tuple(PointMap(carrier, f.carrier, c) for f, c in zip(factors, zip(*coords)))
    lifted = (mv_preimage(p, alpha) for p, f in zip(projections, factors) for alpha in f.opens)
    return ProductSpace(factors, carrier, projections, FuzzyFamily.of(carrier, chain, lifted))


def tupling(maps: Sequence[PointMap], space: ProductSpace) -> PointMap:
    """The map into the product whose coordinates are the given maps."""
    maps = tuple(maps)
    if len(maps) != len(space.factors):
        raise InputError("one map per factor is required")
    source = maps[0].domain
    for i, (f, factor) in enumerate(zip(maps, space.factors)):
        if f.domain != source:
            raise InputError("all maps must share one domain")
        if f.codomain != factor.carrier:
            raise InputError(f"map {i} does not land in factor {i}'s carrier")
    images = tuple(space.index_of(c) for c in zip(*(f.images for f in maps)))
    return PointMap(source, space.carrier, images)


class UniversalPropertyReport(Record):
    """Checks that the tupling is the unique continuous extension of the maps."""

    __slots__ = ("tupling_map", "tupling_continuous", "projections_commute", "unique")
    tupling_map: PointMap
    tupling_continuous: bool
    projections_commute: bool
    unique: bool

    @property
    def passed(self) -> bool:
        return self.tupling_continuous and self.projections_commute and self.unique


def verify_universal_property(
    space: ProductSpace, source: Topology, maps: Sequence[PointMap]
) -> UniversalPropertyReport:
    """Verify continuity, commutation with the projections, and uniqueness."""
    from .maps import is_continuous, is_continuous_via_base

    maps = tuple(maps)
    for i, (f, factor) in enumerate(zip(maps, space.factors)):
        if not is_continuous(f, source, factor):
            raise PreconditionError(f"input map {i} is not continuous")

    combined = tupling(maps, space)

    # continuity via the subbase: preimages of subbase members suffice because
    # pulling back is a homomorphism that preserves joins
    continuous = is_continuous_via_base(combined, source, space.subbase)

    commutes = all(combined.then(p) == f for p, f in zip(space.projections, maps))

    # the projections are jointly injective, so a commuting map is the only one
    unique = commutes and len(set(zip(*(p.images for p in space.projections)))) == space.carrier.size

    return UniversalPropertyReport(combined, continuous, commutes, unique)
