"""The `alexander-claims` suite: the ideal and filter claims behind the
Alexander subbase lemma, on coordinate ideals."""

from __future__ import annotations

import random

from .core import FuzzyFamily, FuzzySet
from .generators import (
    coordinate_ideal,
    random_carrier,
    random_chain,
    random_coordinate_ideal,
    random_fuzzy_set,
)


def case_alexander_claims(rng: random.Random) -> str | None:
    from .maps import is_filter, is_ideal

    chain = random_chain(rng, 2)
    carrier = random_carrier(rng, 3)
    ideal, zero_at = random_coordinate_ideal(rng, carrier, chain)

    def where() -> str:
        return f"n={chain.n}, points={carrier.points}, zero coordinates={sorted(zero_at)}"

    if not is_ideal(ideal):
        return f"constructed coordinate family is not an ideal at {where()}"

    members = ideal.members
    alpha = rng.choice(members)
    below = FuzzySet(
        carrier, chain, tuple(rng.randint(0, v) for v in alpha.values)
    )
    if below not in ideal:
        return f"ideal is not downward closed at {where()}"
    if alpha.oplus(rng.choice(members)) not in ideal:
        return f"ideal is not closed under sums at {where()}"

    universe = coordinate_ideal(carrier, chain, ()).members
    outside = [s for s in universe if s not in ideal]
    if outside:
        picks = [rng.choice(outside) for _ in range(rng.randint(1, 3))]
        acc = picks[0]
        for s in picks[1:]:
            acc = acc.oplus(s)
        if acc in ideal:
            return f"sum of non-members landed in the ideal at {where()}"
        bumped = FuzzySet(
            carrier,
            chain,
            tuple(rng.randint(v, chain.n) for v in picks[0].values),
        )
        if bumped in ideal:
            return f"a set above a non-member landed in the ideal at {where()}"

    dual = FuzzyFamily.of(carrier, chain, (m.complement() for m in members))
    if not is_filter(dual):
        return f"complement of the ideal is not a filter at {where()}"

    # with every summand topping up beta, the product of the summands plus
    # enough copies of beta still reaches the top
    beta = random_fuzzy_set(rng, carrier, chain)
    count = rng.randint(1, 3)
    floor = beta.complement()
    tops = [
        FuzzySet(carrier, chain, tuple(rng.randint(v, chain.n) for v in floor.values))
        for _ in range(count)
    ]
    prod = tops[0]
    for t in tops[1:]:
        prod = prod.odot(t)
    if not prod.oplus(beta.scaled(count)).is_one:
        return (
            f"product-plus-copies identity fails at {where()} with beta={beta.values}, "
            f"summands={[t.values for t in tops]}"
        )
    return None
