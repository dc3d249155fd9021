"""The `generation` suite: fixpoint generation against the naive closure, and
the laws of the generated topology, its base closure, closed sets and clopens.

It calls `generate_from_subbase` directly, not through the instance memo, since
generation is what it tests.
"""

from __future__ import annotations

import random

from .generators import random_carrier, random_chain, random_family, random_fuzzy_set
from .suites import _vectors
from .topology import (
    base_from_subbase,
    clopens,
    closed_sets,
    generate_from_subbase,
    is_subbase,
    is_topology,
)


def case_generation(rng: random.Random) -> str | None:
    from .oracles import naive_generate_opens

    chain = random_chain(rng, 2)
    carrier = random_carrier(rng, 3)
    subbase = random_family(rng, carrier, chain, 3)
    topology = generate_from_subbase(subbase)
    if topology.opens != naive_generate_opens(subbase):
        return (
            f"fixpoint generation disagrees with the naive closure on n={chain.n}, "
            f"points={carrier.points}, subbase={_vectors(subbase)}"
        )

    def where() -> str:
        return f"n={chain.n}, subbase={_vectors(subbase)}"

    if not is_topology(topology.opens):
        return f"generated family is not a topology at {where()}"
    if not is_subbase(subbase, topology):
        return f"the generator family is not a subbase of its own topology at {where()}"

    base_once = base_from_subbase(subbase)
    if base_from_subbase(base_once) != base_once:
        return f"base closure is not idempotent at {where()}"
    extra = random_fuzzy_set(rng, carrier, chain)
    bigger = base_from_subbase(subbase.with_members((extra,)))
    if not all(m in bigger for m in base_once):
        return f"base closure is not monotone at {where()}"

    if not is_topology(closed_sets(topology)):
        return f"closed sets are not closed under the dual operations at {where()}"
    if not is_topology(clopens(topology)):
        return f"clopens do not form a topology at {where()}"
    return None
