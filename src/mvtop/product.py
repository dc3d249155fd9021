"""Finite products of MV-topological spaces.

The product carrier is the set of label tuples in lexicographic order of the
factor indices; the canonical subbase consists of all preimages of factor
opens along the projections.  The full product topology is materialized
lazily because the opens count grows multiplicatively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .core import Carrier, FuzzyFamily, PointMap, mv_preimage
from .errors import InputError, PreconditionError
from .maps import is_continuous, is_continuous_via_base
from .topology import DEFAULT_MAX_OPENS, Topology, generate_from_subbase


class ProductSpace:
    """Carrier product, projections, canonical subbase, and the lazy topology."""

    def __init__(self, factors: Sequence[Topology], *, max_opens: int = DEFAULT_MAX_OPENS):
        factors = tuple(factors)
        if not factors:
            raise InputError("a product needs at least one factor")
        chain = factors[0].chain
        if any(f.chain != chain for f in factors):
            raise InputError("all product factors must share one chain")
        self.factors = factors
        self.chain = chain
        self.max_opens = max_opens

        coords = list(itertools.product(*(range(f.carrier.size) for f in factors)))
        labels = tuple(
            "(" + ",".join(factors[i].carrier.label(c[i]) for i in range(len(factors))) + ")"
            for c in coords
        )
        self.carrier = Carrier(labels)
        self.coordinates = tuple(coords)
        self.projections = tuple(
            PointMap(self.carrier, f.carrier, tuple(c[i] for c in coords))
            for i, f in enumerate(factors)
        )
        self.subbase = FuzzyFamily.of(
            self.carrier,
            chain,
            (
                mv_preimage(self.projections[i], alpha)
                for i, f in enumerate(factors)
                for alpha in f.opens
            ),
        )
        self._topology: Topology | None = None

    def topology(self) -> Topology:
        """Generate the product topology on first use; later calls return the same object."""
        if self._topology is None:
            self._topology = generate_from_subbase(self.subbase, max_size=self.max_opens)
        return self._topology

    def index_of(self, coordinate: tuple[int, ...]) -> int:
        stride = 1
        index = 0
        for i in range(len(self.factors) - 1, -1, -1):
            index += coordinate[i] * stride
            stride *= self.factors[i].carrier.size
        return index


def product(factors: Sequence[Topology], *, max_opens: int = DEFAULT_MAX_OPENS) -> ProductSpace:
    return ProductSpace(factors, max_opens=max_opens)


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
    images = tuple(
        space.index_of(tuple(f.images[y] for f in maps)) for y in range(source.size)
    )
    return PointMap(source, space.carrier, images)


@dataclass(frozen=True)
class UniversalPropertyReport:
    """Checks that the tupling is the unique continuous extension of the maps."""

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
    maps = tuple(maps)
    for i, (f, factor) in enumerate(zip(maps, space.factors)):
        if not is_continuous(f, source, factor):
            raise PreconditionError(f"input map {i} is not continuous")

    combined = tupling(maps, space)

    # continuity via the subbase: preimages of subbase members suffice because
    # pulling back is a homomorphism that preserves joins
    continuous = is_continuous_via_base(combined, source, space.subbase)

    commutes = all(
        combined.then(space.projections[i]) == maps[i] for i in range(len(maps))
    )

    unique = True
    for y in range(source.carrier.size):
        candidates = [
            p
            for p in range(space.carrier.size)
            if all(
                space.projections[i].images[p] == maps[i].images[y]
                for i in range(len(maps))
            )
        ]
        if candidates != [combined.images[y]]:
            unique = False
            break

    return UniversalPropertyReport(combined, continuous, commutes, unique)
