"""Generation from subbases, topology predicates, and metric-induced spaces."""

import random
from fractions import Fraction

import pytest

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzyPoint,
    FuzzySet,
    InputError,
    MetricInstance,
    ResourceLimitError,
    base_from_subbase,
    check_hausdorff,
    clopens,
    closed_sets,
    crisp_discrete,
    generate_from_subbase,
    indiscrete,
    is_base,
    is_hausdorff,
    is_large_subbase,
    is_stone,
    is_subbase,
    is_topology,
    is_zero_dimensional,
    metric_ball_family,
    metric_induced,
    open_ball,
)
from mvtop.oracles import naive_generate_opens

CH1 = Chain(1)
CH2 = Chain(2)
X = Carrier(("x",))
AB = Carrier(("a", "b"))


def fs(carrier, chain, *values):
    return FuzzySet(carrier, chain, tuple(values))


def family(carrier, chain, *vectors):
    return FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in vectors))


# -- base and topology generation ----------------------------------------------


def test_base_of_empty_subbase_is_empty():
    assert len(base_from_subbase(FuzzyFamily(X, CH2, ()))) == 0


def test_base_of_singleton_half():
    base = base_from_subbase(family(X, CH2, (1,)))
    assert [m.values for m in base] == [(0,), (1,), (2,)]


def test_base_of_closed_family_is_itself():
    closed = family(AB, CH1, (0, 0), (1, 0), (1, 1))
    assert base_from_subbase(closed) == closed


def test_generate_empty_subbase_gives_indiscrete():
    assert generate_from_subbase(FuzzyFamily(AB, CH2, ())) == indiscrete(AB, CH2)


def test_generate_singleton_half():
    topology = generate_from_subbase(family(X, CH2, (1,)))
    assert [o.values for o in topology.opens] == [(0,), (1,), (2,)]


def test_generate_crisp_singletons_gives_discrete():
    topology = generate_from_subbase(family(AB, CH1, (1, 0), (0, 1)))
    assert topology == crisp_discrete(AB, CH1)
    assert len(topology.opens) == 4


def test_crisp_discrete_is_refused_past_the_cap_before_a_member_is_built(monkeypatch):
    assert len(crisp_discrete(Carrier(tuple("abcdefghijklmn")), CH1).opens) == 2**14

    def built(*args):
        raise AssertionError("a member was built")

    monkeypatch.setattr(FuzzySet, "_trusted", built)
    with pytest.raises(ResourceLimitError) as err:
        crisp_discrete(Carrier(tuple("abcdefghijklmno")), CH1)
    assert str(err.value) == "crisp discrete topology exceeds the size cap (cap 20000, reached 32768)"


def test_generation_caps_are_enforced():
    with pytest.raises(ResourceLimitError):
        generate_from_subbase(family(X, CH2, (1,)), max_size=2)


def test_generation_caps_are_exact():
    # every cap from 1 past the opens count: the opens come back whole while
    # they fit, and the member that takes a closure past its cap raises
    rng = random.Random(31)
    for _ in range(60):
        chain = Chain(rng.randint(1, 3))
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        members = [
            FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
            for _ in range(rng.randint(0, 4))
        ]
        subbase = FuzzyFamily.of(carrier, chain, members)
        opens = generate_from_subbase(subbase).opens
        for cap in range(1, len(opens) + 2):
            if len(opens) <= cap:
                assert generate_from_subbase(subbase, max_size=cap).opens == opens
                continue
            with pytest.raises(ResourceLimitError) as err:
                generate_from_subbase(subbase, max_size=cap)
            assert str(err.value).endswith(f"(cap {cap}, reached {cap + 1})")


def test_generation_is_idempotent_on_topologies():
    topology = generate_from_subbase(family(AB, CH2, (1, 2), (2, 0)))
    again = generate_from_subbase(topology.opens)
    assert again.opens == topology.opens


def test_generation_matches_naive_oracle_on_samples():
    rng = random.Random(23)
    for _ in range(150):
        chain = Chain(rng.randint(1, 2))
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        members = [
            FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
            for _ in range(rng.randint(0, 3))
        ]
        subbase = FuzzyFamily.of(carrier, chain, members)
        assert generate_from_subbase(subbase).opens == naive_generate_opens(subbase)


def test_generation_reaches_a_meet_that_no_other_operation_reaches():
    # the smallest subbase where dropping the meet from the closure shows: the
    # meet of its members is open, and oplus, odot and join never produce it
    abc = Carrier(("a", "b", "c"))
    subbase = family(abc, CH2, (1, 1, 2), (1, 2, 1))
    opens = generate_from_subbase(subbase).opens
    assert FuzzySet(abc, CH2, (1, 1, 1)) in opens
    assert opens == naive_generate_opens(subbase)


def test_base_closure_is_monotone_and_idempotent():
    subbase = family(AB, CH2, (1, 0))
    bigger = family(AB, CH2, (1, 0), (0, 2))
    small = base_from_subbase(subbase)
    large = base_from_subbase(bigger)
    assert all(m in large for m in small)
    assert base_from_subbase(small) == small


# -- predicates -------------------------------------------------------------------


def test_is_topology_trivial_cases():
    assert is_topology(family(AB, CH2, (0, 0), (2, 2)))
    assert is_topology(family(X, CH2, (0,), (1,), (2,)))
    assert is_topology(family(X, CH2, (0,), (2,)))
    assert not is_topology(family(X, CH2, (1,), (2,)))  # zero missing


def test_is_base_accepts_the_opens_themselves():
    topology = generate_from_subbase(family(AB, CH2, (1, 2)))
    assert is_base(topology.opens, topology)


def test_is_base_rejects_non_subfamily():
    topology = indiscrete(AB, CH2)
    assert not is_base(family(AB, CH2, (1, 0)), topology)


def test_is_subbase_roundtrip():
    subbase = family(AB, CH2, (1, 2), (2, 0))
    topology = generate_from_subbase(subbase)
    assert is_subbase(subbase, topology)
    assert is_subbase(topology.opens, topology)
    assert not is_subbase(family(AB, CH2, (1, 1)), topology)


def test_large_subbase_cases():
    assert is_large_subbase(family(X, CH2, (2,)))
    assert not is_large_subbase(family(X, CH2, (1,)))
    crisp = family(AB, CH2, (2, 0), (0, 2), (2, 2))
    assert is_large_subbase(crisp)


def test_large_subbase_catches_missing_odd_multiple():
    # the doubling orbit alone would miss the third multiple
    ch4 = Chain(4)
    assert not is_large_subbase(family(X, ch4, (1,), (2,), (4,)))
    assert is_large_subbase(family(X, ch4, (1,), (2,), (3,), (4,)))


def test_large_subbase_stops_at_the_first_repeated_multiple(monkeypatch):
    calls = []
    scaled = FuzzySet.scaled
    monkeypatch.setattr(FuzzySet, "scaled", lambda self, k: calls.append(k) or scaled(self, k))
    quarters = family(AB, Chain(1000), (0, 0), (250, 0), (500, 0), (750, 0), (1000, 0), (1000, 1000))
    assert is_large_subbase(quarters)
    # (250, 0) scales to 3 new multiples, then repeats; (500, 0) and (750, 0)
    # to 1; the crisp members repeat at once: not 999 calls a member
    assert len(calls) == 4 + 2 + 2 + 1 + 1 + 1


def test_closed_sets_and_clopens():
    topology = generate_from_subbase(family(X, CH2, (1,)))
    assert [c.values for c in closed_sets(topology)] == [(0,), (1,), (2,)]
    assert [c.values for c in clopens(topology)] == [(0,), (1,), (2,)]
    assert is_zero_dimensional(topology)


def test_indiscrete_clopens_and_zero_dimensionality():
    topology = indiscrete(AB, CH2)
    assert [c.values for c in clopens(topology)] == [(0, 0), (2, 2)]
    assert is_zero_dimensional(topology)
    richer = generate_from_subbase(family(AB, CH2, (0, 2)))
    assert [c.values for c in clopens(richer)] == [(0, 0), (2, 2)]
    assert not is_zero_dimensional(richer)


def test_discrete_crisp_space_is_stone():
    topology = crisp_discrete(AB, CH1)
    assert is_stone(topology)


def test_sierpinski_like_space_is_not_stone():
    topology = generate_from_subbase(family(AB, CH1, (1, 0)))
    assert not is_hausdorff(topology)
    assert not is_stone(topology)


def test_hausdorff_on_singleton_is_vacuous():
    assert is_hausdorff(indiscrete(X, CH2))


def test_indiscrete_two_points_is_not_hausdorff():
    report = check_hausdorff(indiscrete(AB, CH2))
    assert not report.hausdorff
    assert report.failing_pair == (0, 1)


def test_discrete_crisp_witnesses():
    report = check_hausdorff(crisp_discrete(AB, CH1))
    assert report.hausdorff
    witnesses = dict(report.witnesses)
    ox, oy = witnesses[(0, 1)]
    assert ox.values == (1, 0)
    assert oy.values == (0, 1)


def test_closed_sets_closure_properties():
    rng = random.Random(3)
    for _ in range(40):
        chain = Chain(rng.randint(1, 2))
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        members = [
            FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
            for _ in range(rng.randint(0, 2))
        ]
        topology = generate_from_subbase(FuzzyFamily.of(carrier, chain, members))
        closed = closed_sets(topology)
        values = {c.values for c in closed}
        for a in closed:
            for b in closed:
                assert a.odot(b).values in values
                assert a.oplus(b).values in values
                assert a.join(b).values in values
                assert a.meet(b).values in values


# -- metric-induced topologies ------------------------------------------------------


def _metric(carrier, rows):
    return MetricInstance(carrier, CH2, tuple(tuple(Fraction(d) for d in row) for row in rows))


def _metric_ab(distance=1):
    return _metric(AB, [[0, distance], [distance, 0]])


def test_ball_inside_and_outside_radius():
    metric = _metric_ab()
    ball = open_ball(metric, FuzzyPoint(0, 2), Fraction(1, 2))
    assert ball.values == (2, 0)
    assert open_ball(metric, FuzzyPoint(0, 2), Fraction(2)).values == (2, 2)


def test_ball_rejects_bad_inputs():
    metric = _metric_ab()
    with pytest.raises(InputError):
        open_ball(metric, FuzzyPoint(0, 0), Fraction(1))
    with pytest.raises(InputError):
        open_ball(metric, FuzzyPoint(0, 1), Fraction(0))


def test_metric_validation():
    with pytest.raises(InputError):
        _metric(AB, [[0, 1], [2, 0]])
    with pytest.raises(InputError):
        _metric(AB, [[1, 1], [1, 0]])
    abc = Carrier(("a", "b", "c"))
    with pytest.raises(InputError):
        _metric(abc, [[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_default_ball_family_is_a_large_subbase():
    balls = metric_ball_family(_metric_ab())
    assert is_large_subbase(balls)
    # scaling a ball's center value scales the ball
    metric = _metric_ab()
    small = open_ball(metric, FuzzyPoint(0, 1), Fraction(1, 2))
    assert small.scaled(2) == open_ball(metric, FuzzyPoint(0, 2), Fraction(1, 2))


def test_metric_induced_topology_is_valid():
    topology = metric_induced(_metric_ab())
    assert is_topology(topology.opens)
    balls = metric_ball_family(_metric_ab())
    assert is_subbase(balls, topology)
    assert is_hausdorff(topology)
