"""Seeded random instance builders for the verification suites and tests.

Every builder takes an explicit random.Random, so a (seed, case index) pair
reproduces an instance exactly.  Builders that need an instance from a
restricted class resample up to a bounded number of attempts and then fall
back to a deterministic member of the class, keeping suite runs total; the
Stone sampler accepts with `is_stone`, the predicate the suites check.  The
builders of products and terms import `product` and `terms` when called.

Inside a suite run (`one_run`, entered by `suites.run_suite`) an instance memo
gives each distinct subbase its closure, each drawn topology its acceptance
verdict, each tuple of factors its product and each coordinate ideal its family
once: cases draw from spaces of at most 3 points, so equal instances recur
across the cases of a run.  The builders are pure and their values immutable,
so a hit returns what a rebuild would (Michie, "Memo" functions, Nature 1968).
The memo is keyed by value and lasts one run, so nothing built under one
definition of a function survives into a run under another; outside a run
every builder computes each time.
"""

from __future__ import annotations

import itertools
import random

from .core import Carrier, Chain, FuzzyFamily, FuzzySet, PointMap
from .errors import ResourceLimitError
from .topology import (
    Topology,
    crisp_discrete,
    generate_from_subbase,
    indiscrete,
    is_hausdorff,
    is_stone,
    is_zero_dimensional,
)

_LABELS = "abcdefgh"

# random topologies have at most this many opens unless a caller asks for fewer
SAMPLE_OPENS = 64


# the instance memo of the suite run in progress, None outside a run
_memo: dict | None = None
_MISSING = object()


class one_run:
    """The scope of the instance memo: a fresh memo on entry, none after exit."""

    def __enter__(self) -> None:
        global _memo
        _memo = {}

    def __exit__(self, *exc_info) -> None:
        global _memo
        _memo = None


def once(build: Callable, *args):
    """build(*args), built once per suite run for equal arguments, which must
    be hashable; outside a run, built on every call."""
    memo = _memo
    if memo is None:
        return build(*args)
    key = (build, *args)
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = build(*args)
    return value


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def random_carrier(rng: random.Random, max_points: int) -> Carrier:
    size = rng.randint(1, max_points)
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
    rng: random.Random, carrier: Carrier, chain: Chain, max_members: int
) -> FuzzyFamily:
    count = rng.randint(0, max_members)
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
        return generate_from_subbase(subbase, max_size=max_opens)
    except ResourceLimitError:
        return None


def random_topology(
    rng: random.Random,
    carrier: Carrier,
    chain: Chain,
    *,
    max_subbase: int = 3,
    max_opens: int = SAMPLE_OPENS,
) -> Topology:
    """A topology generated from a small random subbase, resampled to respect
    the opens cap; falls back to the indiscrete topology.

    Nonempty subbases are favored and crisp members mixed in, which spreads
    the samples away from the indiscrete corner while keeping closures small.
    """
    for _ in range(50):
        count = rng.choice((0, 1, 1, 2) + (max_subbase,) * (max_subbase > 2))
        members = [
            random_crisp_set(rng, carrier, chain)
            if rng.random() < 0.4
            else random_fuzzy_set(rng, carrier, chain)
            for _ in range(count)
        ]
        topology = once(_generate_or_none, FuzzyFamily.of(carrier, chain, members), max_opens)
        if topology is not None:
            return topology
    return indiscrete(carrier, chain)


def random_topology_where(
    rng: random.Random,
    carrier: Carrier,
    chain: Chain,
    predicate: Callable[[Topology], bool],
    *,
    crisp_bias: float = 0.0,
    singleton_bias: float = 0.0,
) -> Topology:
    """Resample random topologies of at most SAMPLE_OPENS opens from subbases
    of at most 3 random members until the predicate holds; falls back to the
    crisp discrete topology, which is Hausdorff, zero-dimensional and Stone.

    crisp_bias makes individual subbase members crisp with that probability;
    singleton_bias seeds the subbase with full-value one-point sets, which
    pushes the samples toward separated spaces.
    """
    n = chain.n
    for _ in range(60):
        members: list[FuzzySet] = []
        if singleton_bias and rng.random() < singleton_bias:
            for x in range(carrier.size):
                values = tuple(n if i == x else 0 for i in range(carrier.size))
                members.append(FuzzySet(carrier, chain, values))
        for _ in range(rng.randint(0, 3)):
            if crisp_bias and rng.random() < crisp_bias:
                members.append(random_crisp_set(rng, carrier, chain))
            else:
                members.append(random_fuzzy_set(rng, carrier, chain))
        topology = once(_generate_or_none, FuzzyFamily.of(carrier, chain, members), SAMPLE_OPENS)
        if topology is not None and once(predicate, topology):
            return topology
    return crisp_discrete(carrier, chain)


def random_hausdorff_topology(rng: random.Random, carrier: Carrier, chain: Chain) -> Topology:
    return random_topology_where(
        rng,
        carrier,
        chain,
        is_hausdorff,
        singleton_bias=0.9,
        crisp_bias=0.3,
    )


def random_zero_dimensional_topology(
    rng: random.Random, carrier: Carrier, chain: Chain
) -> Topology:
    return random_topology_where(
        rng,
        carrier,
        chain,
        is_zero_dimensional,
        crisp_bias=0.7,
    )


def random_stone_topology(rng: random.Random, carrier: Carrier, chain: Chain) -> Topology:
    return random_topology_where(
        rng,
        carrier,
        chain,
        is_stone,
        singleton_bias=0.9,
        crisp_bias=0.6,
    )


def random_compact_pair(
    rng: random.Random, draw: Callable[..., Topology], **kwargs
) -> ProductSpace:
    """The product of two factors of at most 2 points over one chain with
    n <= 2, each drawn by draw(rng, carrier, chain, **kwargs).

    Every finite space is compact, so both factors and their product are:
    nothing is filtered or resampled here.
    """
    from .product import product

    chain = random_chain(rng, 2)
    factors = tuple(draw(rng, random_carrier(rng, 2), chain, **kwargs) for _ in range(2))
    return once(product, factors)


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
    from .terms import Term

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
    return once(_coordinate_ideal, carrier, chain, frozenset(zero_at))


def _coordinate_ideal(carrier: Carrier, chain: Chain, zero_at: frozenset[int]) -> FuzzyFamily:
    choices = ((0,) if i in zero_at else range(chain.n + 1) for i in range(carrier.size))
    return FuzzyFamily.of(
        carrier, chain, (FuzzySet(carrier, chain, v) for v in itertools.product(*choices))
    )


def random_coordinate_ideal(
    rng: random.Random, carrier: Carrier, chain: Chain
) -> tuple[FuzzyFamily, frozenset[int]]:
    """A random coordinate ideal; each point is a zero coordinate with probability 0.6."""
    zero_at = frozenset(i for i in range(carrier.size) if rng.random() < 0.6)
    return coordinate_ideal(carrier, chain, zero_at), zero_at
