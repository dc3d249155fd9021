"""The product suites: `tychonoff`, `lemma1`, `hausdorff-product`,
`zerodim-product` and `stone-product`.

They draw their factor pairs with `random_compact_pair`.  Every finite space is
compact, so the paper's Tychonoff theorem holds of each drawn pair by itself;
what can fail at this scale is its Alexander-subbase step, Lemma 1.
`tychonoff` extracts an additive cover from 20 subbasic covers of each
product, and each must validate and lift the opens of one factor only;
`lemma1` extracts from one cover per case, or has a non-cover rejected.  Only
these two load the solvers.
"""

from __future__ import annotations

import random

from .core import FuzzyFamily, mv_preimage
from .errors import PreconditionError
from .generators import (
    once,
    random_compact_pair,
    random_hausdorff_topology,
    random_stone_topology,
    random_subbasic_cover,
    random_subbasic_noncover,
    random_topology,
    random_zero_dimensional_topology,
)
from .suites import _vectors
from .topology import (
    Topology, check_hausdorff, generate_from_subbase, is_hausdorff, is_stone, is_zero_dimensional
)


def _factors_where(factors: Sequence[Topology]) -> str:
    """The factors' opens, for a failure detail; the factors share one chain."""
    described = "; ".join(f"factor {i}: opens={_vectors(f.opens)}" for i, f in enumerate(factors))
    return f"{described} (n={factors[0].chain.n})"


def _single_factor_form(space, result) -> bool:
    projection = space.projections[result.factor_index]
    factor = space.factors[result.factor_index]
    lifted = FuzzyFamily.of(
        space.carrier, space.chain, (mv_preimage(projection, o) for o in factor.opens)
    )
    return all(member in lifted for member, _ in result.certificate.entries)


def _extraction_failure(space, entries) -> str | None:
    """Lemma 1 on a subbasic cover of the product: what is wrong with the
    additive cover extracted from it, or None.

    `product_subbasic_subcover` asserts that its certificate validates, so the
    first failure below is reachable only where asserts are off (`python -O`).
    """
    from .covers import is_additive_cover, product_subbasic_subcover

    result = product_subbasic_subcover(space, entries)
    if not is_additive_cover(result.certificate):
        return "extracted certificate does not validate"
    if not _single_factor_form(space, result):
        return "extracted certificate mixes factors"
    return None


def case_tychonoff(rng: random.Random) -> str | None:
    space = random_compact_pair(rng, random_topology, max_subbase=2, max_opens=6)
    for _ in range(20):
        failure = _extraction_failure(space, random_subbasic_cover(rng, space))
        if failure:
            return f"{failure} at {_factors_where(space.factors)}"
    return None


def case_lemma1(rng: random.Random) -> str | None:
    from .covers import product_subbasic_subcover

    space = random_compact_pair(rng, random_topology, max_subbase=2, max_opens=6)

    if rng.random() < 0.25:
        entries = random_subbasic_noncover(rng, space)
        try:
            product_subbasic_subcover(space, entries)
        except PreconditionError:
            return None
        return f"a non-cover was not rejected at {_factors_where(space.factors)}"

    failure = _extraction_failure(space, random_subbasic_cover(rng, space))
    if failure:
        return f"{failure} at {_factors_where(space.factors)}"
    return None


def case_hausdorff_product(rng: random.Random) -> str | None:
    space = random_compact_pair(rng, random_hausdorff_topology)
    factors = space.factors
    topology = once(generate_from_subbase, space.subbase)
    if not is_hausdorff(topology):
        return f"product of separated factors is not separated at {_factors_where(factors)}"

    n = space.chain.n
    reports = [check_hausdorff(f) for f in factors]
    for p in range(space.carrier.size):
        for q in range(p + 1, space.carrier.size):
            j = next(i for i, pr in enumerate(space.projections) if pr.images[p] != pr.images[q])
            at = space.projections[j].images
            # points follow itertools.product order, so at[p] < at[q]
            ox, oy = dict(reports[j].witnesses)[at[p], at[q]]
            lifted_x = mv_preimage(space.projections[j], ox)
            lifted_y = mv_preimage(space.projections[j], oy)
            if lifted_x.values[p] != n or lifted_y.values[q] != n:
                return f"lifted witnesses miss the top value at {_factors_where(factors)}"
            if not lifted_x.meet(lifted_y).is_zero:
                return f"lifted witnesses are not disjoint at {_factors_where(factors)}"
            if lifted_x not in topology.opens or lifted_y not in topology.opens:
                return f"lifted witnesses are not open in the product at {_factors_where(factors)}"
    return None


def _product_preserves(
    rng: random.Random,
    draw: Callable[[random.Random, Carrier, Chain], Topology],
    holds: Callable[[Topology], bool],
    what: str,
) -> str | None:
    """Draw two factors with the property and check it on their product."""
    space = random_compact_pair(rng, draw)
    if not holds(once(generate_from_subbase, space.subbase)):
        return f"product of {what} factors is not {what} at {_factors_where(space.factors)}"
    return None


def case_zerodim_product(rng: random.Random) -> str | None:
    return _product_preserves(
        rng, random_zero_dimensional_topology, is_zero_dimensional, "zero-dimensional"
    )


def case_stone_product(rng: random.Random) -> str | None:
    return _product_preserves(rng, random_stone_topology, is_stone, "Stone")
