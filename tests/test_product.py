"""Product spaces: carrier, subbase, projections, tupling, universal property."""

import pytest

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    InputError,
    PointMap,
    PreconditionError,
    crisp_discrete,
    generate_from_subbase,
    indiscrete,
    is_continuous,
    is_hausdorff,
    is_stone,
    is_zero_dimensional,
    mv_preimage,
    product,
    tupling,
    verify_universal_property,
)
from mvtop.generators import case_rng, random_hausdorff_topology

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
    assert [o.values for o in space.topology().opens] == [
        o.values for o in factor.opens
    ]
    assert space.projections[0].images == (0, 1)


def test_product_of_singletons():
    factor = generate_from_subbase(family(X, CH2, (1,)))
    space = product([factor, factor])
    assert space.carrier.points == ("(x,x)",)
    assert [o.values for o in space.topology().opens] == [(0,), (1,), (2,)]


def test_product_of_discrete_crisp_two_point_spaces():
    factor = crisp_discrete(AB, CH1)
    space = product([factor, factor])
    assert space.carrier.points == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    topology = space.topology()
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
    topology = space.topology()
    for projection, factor in zip(space.projections, [pair, half, pair]):
        assert is_continuous(projection, topology, factor)


def test_product_requires_shared_chain():
    with pytest.raises(InputError):
        product([indiscrete(AB, CH1), indiscrete(AB, CH2)])
    with pytest.raises(InputError):
        product([])


def test_projections_are_continuous():
    factors = [
        generate_from_subbase(family(AB, CH2, (1, 2))),
        generate_from_subbase(family(AB, CH2, (2, 0), (0, 2))),
    ]
    space = product(factors)
    topology = space.topology()
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
    report = verify_universal_property(space, space.topology(), list(space.projections))
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


def test_lazy_materialization_is_cached():
    factor = crisp_discrete(AB, CH1)
    space = product([factor, factor])
    first = space.topology()
    assert space.topology() is first
    assert len(first.opens) == 16


def test_hausdorff_zero_dimensional_and_stone_preservation_spot_checks():
    h_factor = crisp_discrete(AB, CH1)
    space = product([h_factor, h_factor])
    topology = space.topology()
    assert is_hausdorff(topology)
    assert is_zero_dimensional(topology)
    assert is_stone(topology)
