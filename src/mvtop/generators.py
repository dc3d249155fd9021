"""Seeded random instance builders for the verification suites and tests.

Every builder takes an explicit random.Random, so a (seed, case index) pair
reproduces an instance exactly.  Builders that need an instance from a
restricted class resample up to a bounded number of attempts and then fall
back to a deterministic member of the class, keeping suite runs total.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .core import Carrier, Chain, FuzzyFamily, FuzzySet, PointMap
from .covers import Term
from .errors import ResourceLimitError
from .product import ProductSpace, product
from .topology import (
    Topology,
    crisp_discrete,
    generate_from_subbase,
    indiscrete,
    is_hausdorff,
    is_zero_dimensional,
)

_LABELS = "abcdefgh"


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def random_carrier(rng: random.Random, max_points: int, *, min_points: int = 1) -> Carrier:
    size = rng.randint(min_points, max_points)
    return Carrier(tuple(_LABELS[:size]))


def random_chain(rng: random.Random, max_n: int) -> Chain:
    return Chain(rng.randint(1, max_n))


def random_fuzzy_set(rng: random.Random, carrier: Carrier, chain: Chain) -> FuzzySet:
    return FuzzySet(
        carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size))
    )


def random_crisp_set(rng: random.Random, carrier: Carrier, chain: Chain) -> FuzzySet:
    return FuzzySet(
        carrier, chain, tuple(rng.choice((0, chain.n)) for _ in range(carrier.size))
    )


def random_family(
    rng: random.Random, carrier: Carrier, chain: Chain, max_members: int, *, min_members: int = 0
) -> FuzzyFamily:
    count = rng.randint(min_members, max_members)
    return FuzzyFamily.of(
        carrier, chain, (random_fuzzy_set(rng, carrier, chain) for _ in range(count))
    )


def random_point_map(rng: random.Random, domain: Carrier, codomain: Carrier) -> PointMap:
    return PointMap(
        domain,
        codomain,
        tuple(rng.randrange(codomain.size) for _ in range(domain.size)),
    )


def _generate_or_none(subbase: FuzzyFamily, max_opens: int) -> Topology | None:
    """The generated topology, or None (a rejected sample) when it has more
    than max_opens opens."""
    try:
        topology = generate_from_subbase(subbase, max_size=max_opens)
    except ResourceLimitError:
        return None
    # the cap counts what a closure adds: the seeded 0 and 1 can end two past it
    return topology if len(topology.opens) <= max_opens else None


def random_topology(
    rng: random.Random,
    carrier: Carrier,
    chain: Chain,
    *,
    max_subbase: int = 3,
    max_opens: int = 64,
    attempts: int = 50,
) -> Topology:
    """A topology generated from a small random subbase, resampled to respect
    the opens cap; falls back to the indiscrete topology.

    Nonempty subbases are favored and crisp members mixed in, which spreads
    the samples away from the indiscrete corner while keeping closures small.
    """
    for _ in range(attempts):
        count = rng.choice((0, 1, 1, 2) + (max_subbase,) * (max_subbase > 2))
        members = [
            random_crisp_set(rng, carrier, chain)
            if rng.random() < 0.4
            else random_fuzzy_set(rng, carrier, chain)
            for _ in range(count)
        ]
        topology = _generate_or_none(FuzzyFamily.of(carrier, chain, members), max_opens)
        if topology is not None:
            return topology
    return indiscrete(carrier, chain)


def random_topology_where(
    rng: random.Random,
    carrier: Carrier,
    chain: Chain,
    predicate: Callable[[Topology], bool],
    fallback: Callable[[Carrier, Chain], Topology],
    *,
    max_subbase: int = 3,
    max_opens: int = 64,
    attempts: int = 60,
    crisp_bias: float = 0.0,
    singleton_bias: float = 0.0,
) -> Topology:
    """Resample random topologies until the predicate holds.

    crisp_bias makes individual subbase members crisp with that probability;
    singleton_bias seeds the subbase with full-value one-point sets, which
    pushes the samples toward separated spaces.
    """
    n = chain.n
    for _ in range(attempts):
        members: list[FuzzySet] = []
        if singleton_bias and rng.random() < singleton_bias:
            for x in range(carrier.size):
                values = tuple(n if i == x else 0 for i in range(carrier.size))
                members.append(FuzzySet(carrier, chain, values))
        for _ in range(rng.randint(0, max_subbase)):
            if crisp_bias and rng.random() < crisp_bias:
                members.append(random_crisp_set(rng, carrier, chain))
            else:
                members.append(random_fuzzy_set(rng, carrier, chain))
        topology = _generate_or_none(FuzzyFamily.of(carrier, chain, members), max_opens)
        if topology is not None and predicate(topology):
            return topology
    return fallback(carrier, chain)


def random_hausdorff_topology(
    rng: random.Random, carrier: Carrier, chain: Chain, *, max_opens: int = 64
) -> Topology:
    return random_topology_where(
        rng,
        carrier,
        chain,
        is_hausdorff,
        crisp_discrete,
        max_opens=max_opens,
        singleton_bias=0.9,
        crisp_bias=0.3,
    )


def random_zero_dimensional_topology(
    rng: random.Random, carrier: Carrier, chain: Chain, *, max_opens: int = 64
) -> Topology:
    return random_topology_where(
        rng,
        carrier,
        chain,
        is_zero_dimensional,
        crisp_discrete,
        max_opens=max_opens,
        crisp_bias=0.7,
    )


def random_stone_topology(
    rng: random.Random, carrier: Carrier, chain: Chain, *, max_opens: int = 64
) -> Topology:
    # finite spaces are compact, so Stone reduces to Hausdorff + zero-dimensional
    return random_topology_where(
        rng,
        carrier,
        chain,
        lambda t: is_hausdorff(t) and is_zero_dimensional(t),
        crisp_discrete,
        max_opens=max_opens,
        singleton_bias=0.9,
        crisp_bias=0.6,
    )


def random_compact_pair(
    rng: random.Random,
    *,
    max_points: int = 2,
    max_n: int = 2,
    max_factor_opens: int = 6,
    max_product_opens: int = 16,
    attempts: int = 200,
) -> ProductSpace:
    """A two-factor product whose factors respect the opens bound and whose
    materialized product stays small enough for the brute-force oracle."""
    for _ in range(attempts):
        chain = random_chain(rng, max_n)
        factors = []
        for _ in range(2):
            size = max_points if rng.random() < 0.8 else rng.randint(1, max_points)
            carrier = Carrier(tuple("abcdefgh"[:size]))
            factors.append(
                random_topology(
                    rng, carrier, chain, max_subbase=2, max_opens=max_factor_opens
                )
            )
        space = product(factors)
        if len(space.topology().opens) <= max_product_opens:
            return space
    chain = Chain(1)
    base = indiscrete(random_carrier(rng, max_points), chain)
    return product([base, base])


def random_subbasic_cover(
    rng: random.Random, space: ProductSpace
) -> list[tuple[int, FuzzySet]]:
    """A covering family of (factor index, factor open) pairs.

    One factor receives, for every point, an open with the top value there
    (the unit set always qualifies), so the preimages join to the unit set;
    random extra entries are sprinkled on top.
    """
    n = space.chain.n
    j = rng.randrange(len(space.factors))
    factor = space.factors[j]
    entries: list[tuple[int, FuzzySet]] = []
    for x in range(factor.carrier.size):
        options = [o for o in factor.opens if o.values[x] == n]
        entries.append((j, rng.choice(options)))
    extras = rng.randint(0, 3)
    for _ in range(extras):
        i = rng.randrange(len(space.factors))
        entries.append((i, rng.choice(space.factors[i].opens.members)))
    rng.shuffle(entries)
    return entries


def random_subbasic_noncover(
    rng: random.Random, space: ProductSpace
) -> list[tuple[int, FuzzySet]]:
    """Entries that vanish somewhere in every factor, so they cannot cover."""
    entries: list[tuple[int, FuzzySet]] = []
    for i, factor in enumerate(space.factors):
        gap = rng.randrange(factor.carrier.size)
        options = [o for o in factor.opens if o.values[gap] == 0]
        for _ in range(rng.randint(1, 2)):
            entries.append((i, rng.choice(options)))
    return entries


def random_term(rng: random.Random, arity: int, max_depth: int) -> Term:
    if max_depth <= 0 or rng.random() < 0.3:
        return Term.var(rng.randrange(arity))
    builder = rng.choice((Term.oplus, Term.odot, Term.meet))
    return builder(
        random_term(rng, arity, max_depth - 1), random_term(rng, arity, max_depth - 1)
    )


def coordinate_ideal(carrier: Carrier, chain: Chain, zero_at: Sequence[int]) -> FuzzyFamily:
    """The ideal of all fuzzy sets vanishing on the given coordinates.

    Over a finite chain every ideal of the pointwise algebra has this shape:
    any positive coordinate value saturates to the top under repeated sums.
    """
    zero_at = frozenset(zero_at)
    members = []

    def build(prefix: tuple[int, ...]) -> None:
        i = len(prefix)
        if i == carrier.size:
            members.append(FuzzySet(carrier, chain, prefix))
            return
        choices = (0,) if i in zero_at else tuple(range(chain.n + 1))
        for v in choices:
            build(prefix + (v,))

    build(())
    return FuzzyFamily.of(carrier, chain, members)


def random_coordinate_ideal(
    rng: random.Random, carrier: Carrier, chain: Chain, *, avoid: int | None = None
) -> tuple[FuzzyFamily, frozenset[int]]:
    """A random coordinate ideal whose zero set avoids the given point."""
    candidates = [i for i in range(carrier.size) if i != avoid]
    zero_at = frozenset(i for i in candidates if rng.random() < 0.6)
    return coordinate_ideal(carrier, chain, zero_at), zero_at
