"""The `continuity` suite: continuity via a base against the direct test,
pulled-back topologies under composition, and bijective openness against
inverse continuity."""

from __future__ import annotations

import random

from .core import FuzzyFamily, mv_preimage
from .generators import (
    once,
    random_carrier,
    random_chain,
    random_family,
    random_point_map,
    random_topology,
)
from .suites import _vectors
from .topology import base_from_subbase, generate_from_subbase


def case_continuity(rng: random.Random) -> str | None:
    from .maps import is_continuous, is_continuous_via_base, is_open_map

    chain = random_chain(rng, 2)
    dom_carrier = random_carrier(rng, 3)
    cod_carrier = random_carrier(rng, 3)
    domain = random_topology(rng, dom_carrier, chain, max_opens=32)
    cod_subbase = random_family(rng, cod_carrier, chain, 2)
    base = once(base_from_subbase, cod_subbase)
    codomain = once(generate_from_subbase, cod_subbase)
    f = random_point_map(rng, dom_carrier, cod_carrier)

    def where() -> str:
        return (
            f"n={chain.n}, map={f.images}, domain opens={_vectors(domain.opens)}, "
            f"codomain subbase={_vectors(cod_subbase)}"
        )

    via_base = is_continuous_via_base(f, domain, base)
    direct = is_continuous(f, domain, codomain)
    if via_base != direct:
        return f"base continuity test disagrees with the direct one at {where()}"

    # pulled-back topologies make maps continuous by construction, so the
    # composite of two continuous maps must stay continuous
    mid_carrier = random_carrier(rng, 3)
    g = random_point_map(rng, mid_carrier, dom_carrier)
    pulled = FuzzyFamily.of(
        mid_carrier, chain, (mv_preimage(g, o) for o in domain.opens)
    )
    middle = once(generate_from_subbase, pulled)
    if not is_continuous(g, middle, domain):
        return f"pullback-built map is not continuous at {where()}"
    if direct and not is_continuous(g.then(f), middle, codomain):
        return f"composition of continuous maps is not continuous at {where()}"

    if dom_carrier.size == cod_carrier.size:
        images = list(range(cod_carrier.size))
        rng.shuffle(images)
        bijection = f.__class__(dom_carrier, cod_carrier, tuple(images))
        open_map = is_open_map(bijection, domain, codomain)
        inverse_cont = is_continuous(bijection.inverse(), codomain, domain)
        if open_map != inverse_cont:
            return f"bijective openness disagrees with inverse continuity at {where()}"
    return None
