"""Chain arithmetic, fuzzy sets, families, preimages, and ideal predicates."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    InputError,
    PointMap,
    forward_image,
    is_filter,
    is_ideal,
    mv_preimage,
)
from mvtop import maps

CH2 = Chain(2)
CH4 = Chain(4)
AB = Carrier(("a", "b"))


def fs(carrier, chain, *values):
    return FuzzySet(carrier, chain, tuple(values))


# -- chain arithmetic ---------------------------------------------------------


def test_truncated_sum_saturates():
    assert CH4.add(3, 2) == 4


def test_truncated_product():
    assert CH4.mul(3, 2) == 1


def test_complement_is_involutive():
    assert CH4.neg(1) == 3
    for a in range(5):
        assert CH4.neg(CH4.neg(a)) == a


def test_chain_rejects_out_of_range():
    with pytest.raises(InputError):
        CH4.check(5)
    with pytest.raises(InputError):
        CH4.check(-1)
    with pytest.raises(InputError):
        Chain(0)
    with pytest.raises(InputError):
        CH4.add(5, 0)
    with pytest.raises(InputError):
        CH4.mul(1, -1)
    with pytest.raises(InputError):
        CH4.neg(7)
    with pytest.raises(InputError):
        CH4.scaled(1, -3)
    with pytest.raises(InputError):
        CH4.scaled(2, 7)


@given(st.integers(1, 8), st.data())
def test_chain_axioms(n, data):
    ch = Chain(n)
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n))
    c = data.draw(st.integers(0, n))
    assert ch.add(a, ch.add(b, c)) == ch.add(ch.add(a, b), c)
    assert ch.add(a, b) == ch.add(b, a)
    assert ch.add(a, 0) == a
    assert ch.neg(ch.neg(a)) == a
    assert ch.add(ch.neg(ch.add(ch.neg(a), b)), b) == ch.add(ch.neg(ch.add(ch.neg(b), a)), a)
    assert ch.mul(a, ch.add(b, c)) <= ch.add(b, ch.mul(a, c))


def test_exchange_inequality_exhaustive_n16():
    for n in range(1, 17):
        ch = Chain(n)
        for a in range(n + 1):
            for b in range(n + 1):
                for c in range(n + 1):
                    assert ch.mul(a, ch.add(b, c)) <= ch.add(b, ch.mul(a, c))


# -- pointwise operations ------------------------------------------------------


def test_scalar_multiple_saturates():
    alpha = fs(AB, CH2, 1, 1)
    assert alpha.scaled(2) == fs(AB, CH2, 2, 2)
    assert alpha.scaled(2).is_one


def test_pointwise_product():
    alpha = fs(AB, CH2, 1, 0)
    beta = fs(AB, CH2, 2, 1)
    assert alpha.odot(beta) == fs(AB, CH2, 1, 0)


def test_sum_with_zero_is_identity():
    alpha = fs(AB, CH4, 3, 1)
    assert alpha.oplus(FuzzySet.zero(AB, CH4)) == alpha


def test_mismatched_carriers_rejected():
    other = Carrier(("x", "y"))
    with pytest.raises(InputError):
        fs(AB, CH2, 1, 1).oplus(fs(other, CH2, 1, 1))
    with pytest.raises(InputError):
        fs(AB, CH2, 1, 1).meet(fs(AB, CH4, 1, 1))


def test_scalar_multiples_stabilize_at_crisp_support():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        ch = Chain(n)
        alpha = FuzzySet(AB, ch, tuple(rng.randint(0, n) for _ in range(2)))
        saturated = alpha.scaled(n)
        for k in range(n, n + 4):
            assert alpha.scaled(k) == saturated
        assert saturated == FuzzySet(AB, ch, tuple(n if v else 0 for v in alpha.values))


# -- families ------------------------------------------------------------------


def test_empty_join_and_meet():
    family = FuzzyFamily(AB, CH2, ())
    assert family.join() == FuzzySet.zero(AB, CH2)
    assert family.meet() == FuzzySet.one(AB, CH2)


def test_join_is_pointwise_max():
    family = FuzzyFamily.of(AB, CH2, [fs(AB, CH2, 1, 2), fs(AB, CH2, 2, 0)])
    assert family.join() == fs(AB, CH2, 2, 2)


def test_family_is_canonical_and_deduplicated():
    family = FuzzyFamily.of(
        AB, CH2, [fs(AB, CH2, 2, 0), fs(AB, CH2, 1, 2), fs(AB, CH2, 2, 0)]
    )
    assert [m.values for m in family.members] == [(1, 2), (2, 0)]
    assert len(family) == 2


def test_family_identity_ignores_duplicates_and_input_order():
    sets = [fs(AB, CH2, 2, 0), fs(AB, CH2, 1, 2), fs(AB, CH2, 0, 1)]
    family = FuzzyFamily.of(AB, CH2, sets + sets[:2])
    assert family.members == FuzzyFamily.of(AB, CH2, sets).members
    assert [m.values for m in family.members] == [(0, 1), (1, 2), (2, 0)]
    shuffled = FuzzyFamily.of(AB, CH2, reversed(sets))
    assert shuffled == family
    assert hash(shuffled) == hash(family)
    assert len({family, shuffled}) == 1
    assert repr(family) == (
        f"FuzzyFamily(carrier={AB!r}, chain={CH2!r}, members={family.members!r})"
    )


def test_family_membership_matches_the_member_set():
    rng = random.Random(5)
    universe = [fs(AB, CH2, a, b) for a in range(3) for b in range(3)]
    for _ in range(50):
        family = FuzzyFamily.of(AB, CH2, rng.sample(universe, rng.randint(0, 9)))
        members = set(family.members)
        assert [s in family for s in universe] == [s in members for s in universe]
    family = FuzzyFamily.of(AB, CH2, universe)
    # equal values on another carrier or chain are not members
    assert fs(Carrier(("c", "d")), CH2, 1, 1) not in family
    assert fs(AB, CH4, 1, 1) not in family


# -- preimages and images --------------------------------------------------------


def test_preimage_of_identity():
    f = PointMap.identity(AB)
    alpha = fs(AB, CH2, 1, 2)
    assert mv_preimage(f, alpha) == alpha


def test_preimage_composes_values():
    domain = Carrier(("0", "1", "2"))
    codomain = Carrier(("0", "1"))
    f = PointMap(domain, codomain, (0, 0, 1))
    alpha = fs(codomain, CH4, 2, 4)
    assert mv_preimage(f, alpha) == fs(domain, CH4, 2, 2, 4)


def test_forward_image_identity_and_constant():
    f = PointMap.identity(AB)
    alpha = fs(AB, CH2, 1, 2)
    assert forward_image(f, alpha) == alpha
    g = PointMap(AB, AB, (0, 0))
    assert forward_image(g, alpha) == fs(AB, CH2, 2, 0)


def test_forward_image_is_zero_on_empty_fibers():
    x = Carrier(("x",))
    f = PointMap(x, AB, (0,))
    assert forward_image(f, fs(x, CH2, 2)) == fs(AB, CH2, 2, 0)


def test_preimage_requires_codomain_set():
    domain = Carrier(("0", "1", "2"))
    codomain = Carrier(("0", "1"))
    f = PointMap(domain, codomain, (0, 0, 1))
    with pytest.raises(InputError):
        mv_preimage(f, fs(domain, CH4, 0, 0, 0))
    with pytest.raises(InputError):
        forward_image(f, fs(codomain, CH4, 0, 0))


@st.composite
def _map_and_sets(draw):
    n = draw(st.integers(1, 6))
    ch = Chain(n)
    dom_size = draw(st.integers(1, 5))
    cod_size = draw(st.integers(1, 5))
    domain = Carrier(tuple(f"d{i}" for i in range(dom_size)))
    codomain = Carrier(tuple(f"c{i}" for i in range(cod_size)))
    images = tuple(draw(st.integers(0, cod_size - 1)) for _ in range(dom_size))
    vec = lambda: tuple(draw(st.integers(0, n)) for _ in range(cod_size))
    return (
        PointMap(domain, codomain, images),
        FuzzySet(codomain, ch, vec()),
        FuzzySet(codomain, ch, vec()),
    )


@given(_map_and_sets())
def test_preimage_is_a_homomorphism(instance):
    f, alpha, beta = instance
    pre = lambda s: mv_preimage(f, s)
    assert pre(alpha.oplus(beta)) == pre(alpha).oplus(pre(beta))
    assert pre(alpha.odot(beta)) == pre(alpha).odot(pre(beta))
    assert pre(alpha.meet(beta)) == pre(alpha).meet(pre(beta))
    assert pre(alpha.join(beta)) == pre(alpha).join(pre(beta))
    assert pre(alpha.complement()) == pre(alpha).complement()
    assert pre(FuzzySet.zero(f.codomain, alpha.chain)) == FuzzySet.zero(f.domain, alpha.chain)


def test_preimage_preserves_family_joins_and_meets():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        ch = Chain(n)
        codomain = Carrier(tuple(f"c{i}" for i in range(rng.randint(1, 4))))
        domain = Carrier(tuple(f"d{i}" for i in range(rng.randint(1, 4))))
        f = PointMap(
            domain, codomain, tuple(rng.randrange(codomain.size) for _ in range(domain.size))
        )
        members = [
            FuzzySet(codomain, ch, tuple(rng.randint(0, n) for _ in range(codomain.size)))
            for _ in range(rng.randint(0, 4))
        ]
        family = FuzzyFamily.of(codomain, ch, members)
        pulled = FuzzyFamily.of(domain, ch, (mv_preimage(f, m) for m in members))
        assert mv_preimage(f, family.join()) == pulled.join()
        assert mv_preimage(f, family.meet()) == pulled.meet()


# -- point maps -------------------------------------------------------------------


def test_map_composition_and_inverse():
    f = PointMap(AB, AB, (1, 0))
    assert f.then(f) == PointMap.identity(AB)
    assert f.inverse() == f
    g = PointMap(AB, AB, (0, 0))
    assert not g.is_bijective
    with pytest.raises(InputError):
        g.inverse()


# -- ideals and filters --------------------------------------------------------------


def test_zero_singleton_is_ideal():
    family = FuzzyFamily.of(AB, CH2, [FuzzySet.zero(AB, CH2)])
    assert is_ideal(family)


def test_sum_closure_failure_is_detected():
    x = Carrier(("a",))
    family = FuzzyFamily.of(x, CH2, [fs(x, CH2, 0), fs(x, CH2, 1)])
    assert not is_ideal(family)


def test_coordinate_zero_family_is_ideal():
    members = [fs(AB, CH2, v, 0) for v in range(3)]
    family = FuzzyFamily.of(AB, CH2, members)
    assert is_ideal(family)
    # every member below an element stays inside, directly
    for m in family:
        for v0 in range(m.values[0] + 1):
            for v1 in range(m.values[1] + 1):
                assert fs(AB, CH2, v0, v1) in family


def test_filter_duality():
    members = [fs(AB, CH2, v, 0) for v in range(3)]
    ideal = FuzzyFamily.of(AB, CH2, members)
    dual = FuzzyFamily.of(AB, CH2, (m.complement() for m in ideal))
    assert is_filter(dual)
    assert not is_filter(ideal)


def test_upward_closure_failure_is_detected():
    members = [fs(AB, CH2, 2, 2), fs(AB, CH2, 2, 1)]
    assert not is_filter(FuzzyFamily.of(AB, CH2, members))


def reference_order_and_op_closed(family, step, op):
    """The ideal (filter) check as a direct scan with `FuzzySet` operations:
    nonempty, every single-step move stays inside, every ordered pair's op stays inside."""
    present = {m.values for m in family}
    if not present:
        return False
    for m in family:
        for i, v in enumerate(m.values):
            if 0 <= v + step <= family.chain.n:
                if m.values[:i] + (v + step,) + m.values[i + 1 :] not in present:
                    return False
    return all(op(a, b).values in present for a in family for b in family)


def closure_candidates(seed, count):
    """Seeded families around ideals and filters: coordinate ideals and their
    complements, down- and up-closures of random sets (rarely op-closed), each
    also with one member dropped or one random set added."""
    rng = random.Random(seed)
    for _ in range(count):
        chain = Chain(rng.randint(1, 3))
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        universe = [
            FuzzySet(carrier, chain, v)
            for v in itertools.product(range(chain.n + 1), repeat=carrier.size)
        ]
        zero_at = {i for i in range(carrier.size) if rng.random() < 0.5}
        ideal = [m for m in universe if all(m.values[i] == 0 for i in zero_at)]
        tops = rng.sample(universe, rng.randint(1, 2))
        down = [m for m in universe if any(m.leq(t) for t in tops)]
        up = [m for m in universe if any(t.leq(m) for t in tops)]
        for members in (ideal, [m.complement() for m in ideal], down, up):
            yield FuzzyFamily.of(carrier, chain, members)
            if len(members) > 1:
                dropped = list(members)
                dropped.pop(rng.randrange(len(dropped)))
                yield FuzzyFamily.of(carrier, chain, dropped)
            yield FuzzyFamily.of(carrier, chain, members + [rng.choice(universe)])


def ideal_and_filter_mismatches(seed, count):
    """Families where the lane-based check disagrees with the reference scan,
    and the verdicts seen, as (is_ideal, is_filter) pairs."""
    mismatches, verdicts = [], set()
    for family in closure_candidates(seed, count):
        verdict = (is_ideal(family), is_filter(family))
        verdicts.add(verdict)
        reference = (
            reference_order_and_op_closed(family, -1, FuzzySet.oplus),
            reference_order_and_op_closed(family, 1, FuzzySet.odot),
        )
        if verdict != reference:
            mismatches.append(family)
    return mismatches, verdicts


def test_ideal_and_filter_checks_match_the_reference_scan():
    mismatches, verdicts = ideal_and_filter_mismatches(41, 150)
    assert mismatches == []
    assert verdicts == {(True, False), (False, True), (False, False), (True, True)}


def test_reference_scan_catches_a_check_that_skips_the_op_closure(monkeypatch):
    # the mutant decides order closure only: every combined value counts as present
    order_only = maps._order_and_op_closed
    monkeypatch.setattr(
        maps, "_order_and_op_closed", lambda family, step, op: order_only(family, step, lambda lanes, a, b: a)
    )
    mismatches, _ = ideal_and_filter_mismatches(41, 150)
    assert mismatches
