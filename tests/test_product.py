"""Product spaces: carrier, subbase, projections, tupling, universal property."""

import itertools

import pytest

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    InputError,
    PointMap,
    PreconditionError,
    ResourceLimitError,
    crisp_discrete,
    generate_from_subbase,
    indiscrete,
    is_continuous,
    is_hausdorff,
    is_stone,
    is_zero_dimensional,
    mv_preimage,
    tupling,
    verify_universal_property,
)
from mvtop.generators import case_rng, random_hausdorff_topology
import mvtop.product as product_module
from mvtop.product import product

CH1 = Chain(1)
CH2 = Chain(2)
AB = Carrier(("a", "b"))
X = Carrier(("x",))


def family(carrier, chain, *vectors):
    return FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in vectors))


def test_single_factor_product_matches_the_factor():
    factor = generate_from_subbase(family(AB, CH2, (1, 2)))
    space = product([factor])
    assert space.carrier.points == ("(a)", "(b)")
    assert [o.values for o in generate_from_subbase(space.subbase).opens] == [
        o.values for o in factor.opens
    ]
    assert space.projections[0].images == (0, 1)


def test_product_of_singletons():
    factor = generate_from_subbase(family(X, CH2, (1,)))
    space = product([factor, factor])
    assert space.carrier.points == ("(x,x)",)
    assert [o.values for o in generate_from_subbase(space.subbase).opens] == [(0,), (1,), (2,)]


def test_product_of_discrete_crisp_two_point_spaces():
    factor = crisp_discrete(AB, CH1)
    space = product([factor, factor])
    assert space.carrier.points == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    topology = generate_from_subbase(space.subbase)
    assert len(topology.opens) == 16
    assert topology == crisp_discrete(space.carrier, CH1)


def test_three_factor_product():
    half = generate_from_subbase(family(X, CH2, (1,)))
    pair = indiscrete(AB, CH2)
    space = product([pair, half, pair])
    assert space.carrier.points == ("(a,x,a)", "(a,x,b)", "(b,x,a)", "(b,x,b)")
    assert space.index_of((1, 0, 1)) == space.carrier.index("(b,x,b)")
    combined = tupling(list(space.projections), space)
    assert combined == PointMap.identity(space.carrier)
    topology = generate_from_subbase(space.subbase)
    for projection, factor in zip(space.projections, [pair, half, pair]):
        assert is_continuous(projection, topology, factor)


def test_product_requires_shared_chain():
    with pytest.raises(InputError):
        product([indiscrete(AB, CH1), indiscrete(AB, CH2)])
    with pytest.raises(InputError):
        product([])


def test_a_product_is_refused_when_its_subbase_would_pass_the_value_cap(monkeypatch):
    # 4 points times 4 + 4 factor opens: 32 values, refused under a cap of 31 and
    # built under 32, where the two factors' 0 and 1 leave 6 distinct members
    factor = crisp_discrete(AB, CH1)
    monkeypatch.setattr(product_module, "MAX_PRODUCT_VALUES", 31)
    with pytest.raises(ResourceLimitError) as err:
        product([factor, factor])
    assert str(err.value) == "product subbase exceeds the size cap (cap 31, reached 32)"
    monkeypatch.setattr(product_module, "MAX_PRODUCT_VALUES", 32)
    assert len(product([factor, factor]).subbase) == 6


def test_projections_are_continuous():
    factors = [
        generate_from_subbase(family(AB, CH2, (1, 2))),
        generate_from_subbase(family(AB, CH2, (2, 0), (0, 2))),
    ]
    space = product(factors)
    topology = generate_from_subbase(space.subbase)
    for projection, factor in zip(space.projections, factors):
        assert is_continuous(projection, topology, factor)


def test_subbase_is_the_family_of_projection_preimages():
    factors = [indiscrete(AB, CH2), generate_from_subbase(family(X, CH2, (1,)))]
    space = product(factors)
    expected = {
        mv_preimage(space.projections[i], o).values
        for i, f in enumerate(factors)
        for o in f.opens
    }
    assert {s.values for s in space.subbase} == expected


def test_tupling_of_single_factor_is_the_map():
    factor = indiscrete(AB, CH2)
    space = product([factor])
    f = PointMap(AB, AB, (1, 0))
    combined = tupling([f], space)
    assert combined.images == (1, 0)


def test_tupling_of_constants_is_constant():
    factor = indiscrete(AB, CH2)
    space = product([factor, factor])
    f = PointMap(AB, AB, (0, 0))
    g = PointMap(AB, AB, (1, 1))
    combined = tupling([f, g], space)
    expected = space.carrier.index("(a,b)")
    assert combined.images == (expected, expected)


def test_tupling_of_projections_is_identity():
    factor = indiscrete(AB, CH2)
    space = product([factor, factor])
    combined = tupling(list(space.projections), space)
    assert combined == PointMap.identity(space.carrier)


def test_universal_property_with_projections():
    factors = [
        generate_from_subbase(family(AB, CH2, (1, 2))),
        indiscrete(AB, CH2),
    ]
    space = product(factors)
    report = verify_universal_property(space, generate_from_subbase(space.subbase), list(space.projections))
    assert report.passed
    assert report.tupling_map == PointMap.identity(space.carrier)


def test_universal_property_rejects_discontinuous_inputs():
    factors = [crisp_discrete(AB, CH1), indiscrete(AB, CH1)]
    space = product(factors)
    source = indiscrete(AB, CH1)
    bad = PointMap.identity(AB)  # not continuous into the discrete factor
    ok = PointMap(AB, AB, (0, 0))
    with pytest.raises(PreconditionError) as err:
        verify_universal_property(space, source, [bad, ok])
    assert "map 0" in str(err.value)


def test_universal_property_on_random_continuous_instances():
    for case in range(100):
        rng = case_rng(1009, case)
        chain = Chain(rng.randint(1, 2))
        factors = [
            generate_from_subbase(
                FuzzyFamily.of(
                    Carrier(tuple("ab"[: rng.randint(1, 2)])),
                    chain,
                    [],
                )
            )
            if rng.random() < 0.2
            else random_hausdorff_topology(
                rng, Carrier(tuple("ab"[: rng.randint(1, 2)])), chain
            )
            for _ in range(2)
        ]
        space = product(factors)
        source_carrier = Carrier(tuple("uvw"[: rng.randint(1, 3)]))
        maps = [
            PointMap(
                source_carrier,
                f.carrier,
                tuple(rng.randrange(f.carrier.size) for _ in range(source_carrier.size)),
            )
            for f in factors
        ]
        # pull every factor open back so the maps are continuous by construction
        pulled = [mv_preimage(m, o) for m, f in zip(maps, factors) for o in f.opens]
        source = generate_from_subbase(FuzzyFamily.of(source_carrier, chain, pulled))
        report = verify_universal_property(space, source, maps)
        assert report.passed


def test_hausdorff_zero_dimensional_and_stone_preservation_spot_checks():
    h_factor = crisp_discrete(AB, CH1)
    space = product([h_factor, h_factor])
    topology = generate_from_subbase(space.subbase)
    assert is_hausdorff(topology)
    assert is_zero_dimensional(topology)
    assert is_stone(topology)


def test_index_of_refuses_a_tuple_that_is_not_a_point():
    space = product([indiscrete(AB, CH1), indiscrete(X, CH1)])
    assert [space.index_of((a, 0)) for a in (0, 1)] == [0, 1]
    for coordinate in [(0,), (0, 0, 0), (2, 0), (0, 1), (-1, 0)]:
        with pytest.raises(InputError, match="is not a point of the product"):
            space.index_of(coordinate)


# -- exhaustive gate: every pair of factors of at most 2 points, n <= 2 ---------


def all_topologies(carrier, chain):
    """Every topology on the carrier: the distinct closures of every subfamily of its vectors."""
    vectors = list(itertools.product(range(chain.n + 1), repeat=carrier.size))
    subbases = itertools.chain.from_iterable(
        itertools.combinations(vectors, k) for k in range(len(vectors) + 1)
    )
    return list(dict.fromkeys(generate_from_subbase(family(carrier, chain, *s)) for s in subbases))


def test_every_small_product_inverts_its_projections_and_keeps_the_factor_properties():
    by_chain = {
        chain: [t for carrier in (X, AB) for t in all_topologies(carrier, chain)] for chain in (CH1, CH2)
    }
    assert [len(by_chain[CH1]), len(by_chain[CH2])] == [1 + 4, 2 + 16]
    pairs = [pair for tops in by_chain.values() for pair in itertools.product(tops, repeat=2)]
    assert len(pairs) == 349
    properties = {"hausdorff": is_hausdorff, "zerodim": is_zero_dimensional, "stone": is_stone}
    held = dict.fromkeys(properties, 0)
    for pair in pairs:
        space = product(pair)
        projections = space.projections
        for p in range(space.carrier.size):
            assert space.index_of(tuple(pr.images[p] for pr in projections)) == p
        assert tupling(projections, space) == PointMap.identity(space.carrier)
        topology = generate_from_subbase(space.subbase)
        assert verify_universal_property(space, topology, projections).passed
        for name, holds in properties.items():
            if all(holds(f) for f in pair):
                held[name] += 1
                assert holds(topology), (name, pair)
    # pairs whose factors both have the property, so no check above is vacuous
    assert held == {"hausdorff": 40, "zerodim": 73, "stone": 40}
