"""The packed-lane kernel against the chain and fuzzy-set operations it replaces."""

import itertools
import json
import random
import re

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    ResourceLimitError,
    base_witness,
    check_hausdorff,
    clopens,
    generate_from_subbase,
)
from mvtop.core import Lanes
from mvtop.generators import (
    case_rng,
    random_carrier,
    random_chain,
    random_hausdorff_topology,
    random_topology,
)
from mvtop.oracles import naive_check_hausdorff, naive_generate_opens
from mvtop.topology import topology_violation


def edge_vectors(k, n):
    """Vectors built from 0, n and values whose pairwise sums hit n exactly."""
    values = sorted({0, 1, n // 2, n - n // 2, n - 1, n})
    if k <= 2:
        return list(itertools.product(values, repeat=k))
    rng = random.Random(k * 1009 + n)
    return [(0,) * k, (n,) * k] + [tuple(rng.choice(values) for _ in range(k)) for _ in range(40)]


def assert_lanes_agree(k, n, vectors):
    chain = Chain(n)
    carrier = Carrier(tuple(f"p{i}" for i in range(k)))
    lanes = Lanes(k, n)
    ops = (("oplus", chain.add), ("odot", chain.mul), ("meet", chain.meet), ("join", chain.join))
    for a in vectors:
        x = lanes.pack(a)
        assert lanes.unpack(x) == a
        for b in vectors:
            y = lanes.pack(b)
            for name, op in ops:
                assert lanes.unpack(getattr(lanes, name)(x, y)) == tuple(map(op, a, b)), (name, a, b)
            expected = FuzzySet(carrier, chain, a).leq(FuzzySet(carrier, chain, b))
            assert lanes.leq(x, y) is expected
            assert (x < y) is (a < b)  # int order is the canonical order


@pytest.mark.parametrize("k, n", [(1, 1), (3, 1), (1, 1000), (2, 1000), (4, 1000), (2, 4), (5, 3)])
def test_lane_ops_match_chain_ops_at_the_edges(k, n):
    assert_lanes_agree(k, n, edge_vectors(k, n))


@given(st.data())
def test_lane_ops_match_chain_ops_on_random_vectors(data):
    n = data.draw(st.integers(1, 1000))
    k = data.draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, n)] * k)
    assert_lanes_agree(k, n, data.draw(st.lists(vector, min_size=1, max_size=4)))


# -- topology scans against plain fuzzy-set references --------------------------------


def reference_violation(family):
    """The closure check as a direct scan over `FuzzySet` operations."""
    present = {m.values for m in family.members}
    if FuzzySet.zero(family.carrier, family.chain).values not in present:
        return "the zero set is missing"
    if FuzzySet.one(family.carrier, family.chain).values not in present:
        return "the unit set is missing"
    members = family.members
    for i, a in enumerate(members):
        for b in members[i:]:
            for name in ("oplus", "odot", "meet", "join"):
                out = getattr(a, name)(b)
                if out.values not in present:
                    return (
                        f"not closed under {name}: {list(a.values)} with {list(b.values)} "
                        f"gives {list(out.values)}"
                    )
    return None


def reference_base_witness(candidate, topology):
    opens = set(topology.opens.members)
    for m in candidate:
        if m not in opens:
            return m
    for o in topology.opens:
        acc = topology.zero
        for c in candidate:
            if c.leq(o):
                acc = acc.join(c)
        if acc != o:
            return o
    return None


def random_topologies(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        chain = Chain(rng.randint(1, 4))
        carrier = Carrier(tuple("abcd"[: rng.randint(1, 4)]))
        members = [
            FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
            for _ in range(rng.randint(0, 3))
        ]
        yield rng, generate_from_subbase(FuzzyFamily.of(carrier, chain, members), max_size=400)


WITNESS = re.compile(r"not closed under (\w+): (\[[\d, ]*\]) with (\[[\d, ]*\]) gives (\[[\d, ]*\])")


def assert_violation_matches_reference(family):
    """Same verdict as the pair scan; a witness names two members whose result is missing."""
    message = topology_violation(family)
    reference = reference_violation(family)
    assert (message is None) == (reference is None), (message, reference)
    if message is None:
        return True
    parsed = WITNESS.fullmatch(message)
    if parsed is None:  # zero or unit missing: there is no pair to name
        assert message == reference
        return False
    name, *vectors = parsed.groups()
    a, b, c = (FuzzySet(family.carrier, family.chain, tuple(json.loads(v))) for v in vectors)
    assert a in family and b in family and c not in family
    assert getattr(a, name)(b) == c
    return False


def altered(rng, topology, mode):
    """The opens as generated, with 1-3 members dropped, or with 1-2 random members added."""
    members = list(topology.opens.members)
    if mode == "dropped":
        for _ in range(rng.randint(1, min(3, len(members)))):
            members.pop(rng.randrange(len(members)))
    elif mode == "added":
        carrier, chain = topology.carrier, topology.chain
        for _ in range(rng.randint(1, 2)):
            values = tuple(rng.randint(0, chain.n) for _ in range(carrier.size))
            members.append(FuzzySet(carrier, chain, values))
    return FuzzyFamily.of(topology.carrier, topology.chain, members)


MODES = ("valid", "dropped", "added")


def test_violation_on_broken_families_matches_reference_scan():
    verdicts = {mode: set() for mode in MODES}
    for rng, topology in random_topologies(11, 150):
        for mode in MODES:
            verdicts[mode].add(assert_violation_matches_reference(altered(rng, topology, mode)))
    assert verdicts == {"valid": {True}, "dropped": {True, False}, "added": {True, False}}


@given(st.data())
def test_violation_matches_reference_scan_on_drawn_families(data):
    k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    carrier, chain = Carrier(tuple("abcd"[:k])), Chain(n)
    vectors = data.draw(st.lists(st.tuples(*[st.integers(0, n)] * k), max_size=3))
    subbase = FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in vectors))
    try:
        topology = generate_from_subbase(subbase, max_size=200)
    except ResourceLimitError:
        return
    mode = data.draw(st.sampled_from(MODES))
    rng = data.draw(st.randoms(use_true_random=False))
    valid = assert_violation_matches_reference(altered(rng, topology, mode))
    assert valid or mode != "valid"
    event(f"{mode}: {'valid' if valid else 'invalid'}")


def test_base_witness_matches_reference_scan():
    witnesses = 0
    for rng, topology in random_topologies(12, 60):
        members = topology.opens.members
        candidates = [
            clopens(topology),
            FuzzyFamily.of(topology.carrier, topology.chain, rng.sample(members, len(members) // 2)),
            FuzzyFamily.of(topology.carrier, topology.chain, members[1:]),
        ]
        for candidate in candidates:
            witness = base_witness(candidate, topology)
            assert witness == reference_base_witness(candidate, topology)
            witnesses += witness is not None
    assert witnesses > 30


def test_base_witness_reports_a_candidate_that_is_not_open():
    topology = generate_from_subbase(FuzzyFamily(Carrier(("a", "b")), Chain(2)))
    stray = FuzzySet(topology.carrier, topology.chain, (1, 0))
    candidate = FuzzyFamily.of(topology.carrier, topology.chain, topology.opens.members + (stray,))
    assert base_witness(candidate, topology) == stray


def test_generation_matches_naive_oracle_on_wider_chains():
    rng = random.Random(29)
    for _ in range(40):
        chain = Chain(rng.randint(3, 4))
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        members = [
            FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
            for _ in range(rng.randint(1, 2))
        ]
        subbase = FuzzyFamily.of(carrier, chain, members)
        assert generate_from_subbase(subbase).opens == naive_generate_opens(subbase)


def assert_hausdorff_and_clopens_agree(topology):
    report = check_hausdorff(topology)
    assert report == naive_check_hausdorff(topology)
    opens = set(topology.opens)
    assert clopens(topology).members == tuple(o for o in topology.opens if o.complement() in opens)
    return report


def test_closed_form_hausdorff_matches_the_pair_search_on_seeded_topologies():
    separated = 0
    for i in range(100):
        rng = case_rng(37, i)
        carrier, chain = random_carrier(rng, 5), random_chain(rng, 3)
        draw = random_hausdorff_topology if i % 2 else random_topology
        separated += assert_hausdorff_and_clopens_agree(draw(rng, carrier, chain)).hausdorff
    assert 25 < separated < 100


@given(st.data())
def test_closed_form_hausdorff_matches_the_pair_search_on_drawn_subbases(data):
    k, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    carrier, chain = Carrier(tuple("abcde"[:k])), Chain(n)
    vectors = data.draw(st.lists(st.tuples(*[st.integers(0, n)] * k), max_size=3))
    if data.draw(st.booleans()):  # full-value singletons push toward separated spaces
        vectors += [tuple(n if i == x else 0 for i in range(k)) for x in range(k)]
    subbase = FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in vectors))
    try:
        topology = generate_from_subbase(subbase, max_size=64)
    except ResourceLimitError:
        return
    assert_hausdorff_and_clopens_agree(topology)
