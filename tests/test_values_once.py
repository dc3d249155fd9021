"""Values are checked once, where they enter; results computed from them are not.

The fuzzy-set operations, complements, multiples, preimages and forward
images, the constant sets, the sum of a cover certificate, the crisp discrete
opens, metric balls, and the sets that generation and the Hausdorff check
unpack from lanes are built without validation.  These gates re-validate each
such result, so a defect that yields an out-of-range value is still caught, and
the constructor that validates keeps its messages.
"""

import random
from fractions import Fraction

import pytest

from mvtop import (
    Carrier,
    Chain,
    CoverCertificate,
    FuzzyFamily,
    FuzzyPoint,
    FuzzySet,
    InputError,
    MetricInstance,
    PointMap,
    base_from_subbase,
    check_hausdorff,
    generate_from_subbase,
    mv_preimage,
)
from mvtop import maps, metric, topology


def random_set(rng, carrier, chain):
    return FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in carrier.points))


def unchecked_results(rng):
    """Every kind of result built without validation, on one random space.

    The builders a test below replaces are looked up in their modules, so that
    the replacement takes effect here."""
    chain = Chain(rng.randint(1, 5))
    carrier = Carrier(tuple("abcd"[: rng.randint(1, 4)]))
    a, b = random_set(rng, carrier, chain), random_set(rng, carrier, chain)
    for op in (FuzzySet.oplus, FuzzySet.odot, FuzzySet.meet, FuzzySet.join):
        yield op(a, b)
    yield a.complement()
    yield a.scaled(rng.randint(0, 2 * chain.n))
    domain = Carrier(tuple("pqrst"[: rng.randint(1, 5)]))
    f = PointMap(domain, carrier, tuple(rng.randrange(carrier.size) for _ in domain.points))
    yield mv_preimage(f, a)
    image = Carrier(tuple("xyz"[: rng.randint(1, 3)]))
    g = PointMap(carrier, image, tuple(rng.randrange(image.size) for _ in carrier.points))
    yield maps.forward_image(g, a)
    yield FuzzySet.zero(carrier, chain)
    yield FuzzySet.one(carrier, chain)
    entries = {s.values: (s, rng.randint(1, chain.n + 1)) for s in (a, b)}
    yield CoverCertificate(tuple(entries.values())).combined()
    yield from topology.crisp_discrete(carrier, chain).opens
    positions = [rng.randint(0, 3) for _ in carrier.points]
    dist = tuple(tuple(Fraction(abs(p - q)) for q in positions) for p in positions)
    space = MetricInstance(carrier, chain, dist)
    center = FuzzyPoint(rng.randrange(carrier.size), rng.randint(1, chain.n))
    yield metric.open_ball(space, center, Fraction(rng.randint(1, 8), 2))
    yield from metric.metric_ball_family(space)


def lane_families(rng):
    """Families built from packed lanes, and the Hausdorff witnesses unpacked from them."""
    chain = Chain(rng.randint(1, 3))
    carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
    subbase = FuzzyFamily.of(carrier, chain, (random_set(rng, carrier, chain) for _ in range(3)))
    yield base_from_subbase(subbase)
    topology = generate_from_subbase(subbase)
    yield topology.opens
    witnesses = [s for _, pair in check_hausdorff(topology).witnesses for s in pair]
    yield FuzzyFamily.of(carrier, chain, witnesses)


def revalidates(result) -> bool:
    try:
        return FuzzySet(result.carrier, result.chain, result.values) == result
    except InputError:
        return False


def family_revalidates(family) -> bool:
    """Each member re-validates, and the family equals the one the checking
    constructor builds from those members, membership index included."""
    if not all(revalidates(m) for m in family):
        return False
    checked = FuzzyFamily.of(family.carrier, family.chain, family.members)
    return checked == family and checked.present == family.present


def first_invalid(seed, count):
    """The first unchecked result or lane family that fails re-validation, or None."""
    rng = random.Random(seed)
    for _ in range(count):
        for result in unchecked_results(rng):
            if not revalidates(result):
                return result
        for family in lane_families(rng):
            if not family_revalidates(family):
                return family
    return None


def test_every_unchecked_result_revalidates():
    assert first_invalid(0, 300) is None


def test_revalidation_catches_an_oplus_without_truncation(monkeypatch):
    monkeypatch.setattr(Chain, "add", lambda self, a, b: a + b)
    assert first_invalid(0, 300) is not None


# defects that build trusted results out of range


def summed_forward_image(f, alpha):
    """The fiber's values summed, not their maximum."""
    out = [0] * f.codomain.size
    for x, v in enumerate(alpha.values):
        out[f.images[x]] += v
    return FuzzySet._trusted(f.codomain, alpha.chain, tuple(out))


def one_above_the_top(cls, carrier, chain):
    return cls._trusted(carrier, chain, (chain.n + 1,) * carrier.size)


def untruncated_sum(certificate):
    values = (sum(m * s.values[x] for s, m in certificate.entries) for x in range(certificate.carrier.size))
    return FuzzySet._trusted(certificate.carrier, certificate.chain, tuple(values))


def ball_above_its_center(space, center, r):
    return (center.value + 1,) * space.carrier.size


@pytest.mark.parametrize(
    "owner, name, defect",
    [
        (maps, "forward_image", summed_forward_image),
        (FuzzySet, "one", classmethod(one_above_the_top)),
        (CoverCertificate, "combined", untruncated_sum),
        (metric, "_ball", ball_above_its_center),
    ],
    ids=["forward image", "one", "certificate sum", "ball"],
)
def test_revalidation_catches_a_trusted_result_out_of_range(monkeypatch, owner, name, defect):
    monkeypatch.setattr(owner, name, defect)
    assert first_invalid(0, 300) is not None


def test_a_family_from_lanes_equals_the_checked_family():
    carrier, chain = Carrier(("a", "b")), Chain(2)
    subbase = FuzzyFamily.of(carrier, chain, [FuzzySet(carrier, chain, (1, 2))])
    opens = generate_from_subbase(subbase).opens
    checked = FuzzyFamily.of(carrier, chain, reversed(opens.members))
    assert [m.values for m in opens] == [(0, 0), (0, 2), (1, 2), (2, 2)]
    assert (opens, opens.present, hash(opens), repr(opens)) == (
        checked,
        checked.present,
        hash(checked),
        repr(checked),
    )


@pytest.mark.parametrize(
    "values, message",
    [
        ((True, 0), "True is not an element of the chain 0..2"),
        ((0, 1.0), "1.0 is not an element of the chain 0..2"),
        ((3, 0), "3 is not an element of the chain 0..2"),
        ((0, -1), "-1 is not an element of the chain 0..2"),
        ((0, "1"), "'1' is not an element of the chain 0..2"),
        ((0, 1, 2), "expected 2 values, got 3"),
        ((), "expected 2 values, got 0"),
    ],
)
def test_the_checking_constructor_keeps_its_messages(values, message):
    with pytest.raises(InputError) as raised:
        FuzzySet(Carrier(("a", "b")), Chain(2), values)
    assert str(raised.value) == message


def test_equal_spaces_that_are_distinct_objects_still_combine():
    a = FuzzySet(Carrier(("a", "b")), Chain(2), (1, 2))
    b = FuzzySet(Carrier(("a", "b")), Chain(2), (2, 0))
    assert a.carrier is not b.carrier and a.chain is not b.chain
    assert a.oplus(b).values == (2, 2)
    assert FuzzyFamily.of(a.carrier, a.chain, [a, b]).members == (a, b)
    other = FuzzySet(Carrier(("a", "c")), Chain(2), (2, 0))
    with pytest.raises(InputError, match="fuzzy sets live on different carriers or chains"):
        a.oplus(other)
    with pytest.raises(InputError, match="family member lives on a different carrier or chain"):
        FuzzyFamily.of(a.carrier, a.chain, [a, other])
    coarser = FuzzySet(Carrier(("a", "b")), Chain(3), (2, 0))
    with pytest.raises(InputError, match="fuzzy sets live on different carriers or chains"):
        a.join(coarser)
