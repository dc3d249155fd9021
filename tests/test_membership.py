"""Membership-driven checks against reference scans over `set(family.members)`.

Every check below asks whether fuzzy sets belong to a family.  The references
keep their own member sets, so they do not depend on how `FuzzyFamily`
answers membership.
"""

import random

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    base_witness,
    clopens,
    continuity_counterexample,
    forward_image,
    generate_from_subbase,
    is_closed_map,
    is_continuous_via_base,
    is_open_map,
    is_subbase,
    large_subbase_witness,
    mv_preimage,
)
from mvtop.generators import random_family, random_fuzzy_set, random_point_map, random_topology


def ref_continuity_counterexample(f, domain, codomain):
    opens = set(domain.opens.members)
    return next((o for o in codomain.opens.members if mv_preimage(f, o) not in opens), None)


def ref_continuous_via_base(f, domain, base):
    opens = set(domain.opens.members)
    return all(mv_preimage(f, theta) in opens for theta in base.members)


def ref_closed(topology):
    return {o.complement() for o in topology.opens.members}


def ref_open_map(f, domain, codomain):
    opens = set(codomain.opens.members)
    return all(forward_image(f, o) in opens for o in domain.opens.members)


def ref_closed_map(f, domain, codomain):
    closed = ref_closed(codomain)
    return all(forward_image(f, c) in closed for c in ref_closed(domain))


def ref_clopens(topology):
    closed = ref_closed(topology)
    return [o for o in topology.opens.members if o in closed]


def ref_base_witness(candidate, topology):
    opens = set(topology.opens.members)
    for m in candidate.members:
        if m not in opens:
            return m
    for o in topology.opens.members:
        acc = FuzzySet.zero(topology.carrier, topology.chain)
        for m in candidate.members:
            if m.leq(o):
                acc = acc.join(m)
        if acc != o:
            return o
    return None


def ref_is_subbase(candidate, topology):
    opens = set(topology.opens.members)
    if any(m not in opens for m in candidate.members):
        return False
    return generate_from_subbase(candidate).opens == topology.opens


def ref_large_subbase_witness(family):
    present = set(family.members)
    for m in family.members:
        for k in range(2, family.chain.n + 1):
            if m.scaled(k) not in present:
                return m, k, m.scaled(k)
    return None


def test_membership_checks_match_reference_scans():
    rng = random.Random(2024)
    labels = "abcd"
    outcomes = set()
    for _ in range(300):
        chain = Chain(rng.randint(1, 3))
        dom = Carrier(tuple(labels[: rng.randint(1, 4)]))
        cod = Carrier(tuple(labels[: rng.randint(1, 4)]))
        domain = random_topology(rng, dom, chain)
        codomain = random_topology(rng, cod, chain)
        f = random_point_map(rng, dom, cod)
        base = random_family(rng, cod, chain, 3)

        witness = continuity_counterexample(f, domain, codomain)
        assert witness == ref_continuity_counterexample(f, domain, codomain)
        via_base = is_continuous_via_base(f, domain, base)
        assert via_base == ref_continuous_via_base(f, domain, base)
        open_map = is_open_map(f, domain, codomain)
        assert open_map == ref_open_map(f, domain, codomain)
        closed_map = is_closed_map(f, domain, codomain)
        assert closed_map == ref_closed_map(f, domain, codomain)

        clo = clopens(domain)
        assert list(clo.members) == ref_clopens(domain)
        zerodim = base_witness(clo, domain)
        assert zerodim == ref_base_witness(clo, domain)

        opens = list(domain.opens.members)
        picked = FuzzyFamily.of(dom, chain, rng.sample(opens, rng.randint(0, len(opens))))
        if rng.random() < 0.3:
            candidate = picked.with_members((random_fuzzy_set(rng, dom, chain),))
        else:
            candidate = picked
        subbase = is_subbase(candidate, domain)
        assert subbase == ref_is_subbase(candidate, domain)
        large = large_subbase_witness(candidate)
        assert large == ref_large_subbase_witness(candidate)

        verdicts = (via_base, open_map, closed_map, subbase)
        outcomes.add((witness is None, zerodim is None, large is None) + verdicts)
    # both answers of every check occur, so no comparison above passes vacuously
    for i in range(7):
        assert {o[i] for o in outcomes} == {False, True}
