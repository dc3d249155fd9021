"""Randomized, seeded verification suites behind the CLI verify command.

Each suite runs independent cases derived from (seed, case index), so a rerun
with the same parameters reproduces the same report byte for byte.  A case
returns None on success or a failure description; the runner keeps the first
failure, shrunk where the case function knows how.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .core import Carrier, Chain, FuzzyFamily, FuzzySet, is_filter, is_ideal, mv_preimage
from .covers import is_additive_cover, product_subbasic_subcover
from .errors import PreconditionError
from .generators import (
    PAIR_PRODUCT_OPENS,
    case_rng,
    coordinate_ideal,
    random_carrier,
    random_chain,
    random_compact_pair,
    random_coordinate_ideal,
    random_family,
    random_fuzzy_set,
    random_hausdorff_topology,
    random_point_map,
    random_stone_topology,
    random_subbasic_cover,
    random_subbasic_noncover,
    random_topology,
    random_zero_dimensional_topology,
)
from .maps import is_continuous, is_continuous_via_base, is_open_map
from .oracles import brute_force_compactness, naive_generate_opens
from .product import product
from .topology import (
    Topology,
    base_from_subbase,
    check_hausdorff,
    clopens,
    closed_sets,
    generate_from_subbase,
    is_hausdorff,
    is_stone,
    is_subbase,
    is_topology,
    is_zero_dimensional,
)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: int
    passed: int
    failed: int
    first_failure_case: int | None = None
    first_failure_detail: str | None = None

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def render_report(report: SuiteReport) -> str:
    lines = [
        f"suite: {report.suite}",
        f"seed: {report.seed}",
        f"cases: {report.cases}",
        f"passed: {report.passed}",
        f"failed: {report.failed}",
    ]
    if report.failed:
        lines.append(f"first failure: case {report.first_failure_case}")
        lines.append(f"detail: {report.first_failure_detail}")
    lines.append(f"result: {'PASS' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _vectors(family: FuzzyFamily) -> list[tuple[int, ...]]:
    return [m.values for m in family.members]


def _factors_where(factors: list[Topology]) -> str:
    """The factors' opens, for a failure detail; the factors share one chain."""
    described = "; ".join(f"factor {i}: opens={_vectors(f.opens)}" for i, f in enumerate(factors))
    return f"{described} (n={factors[0].chain.n})"


# -- algebra ---------------------------------------------------------------------


def _case_algebra(rng: random.Random) -> str | None:
    n = rng.randint(1, 8)
    ch = Chain(n)
    a, b, c = (rng.randint(0, n) for _ in range(3))
    triple = f"n={n}, a={a}, b={b}, c={c}"
    if ch.add(a, ch.add(b, c)) != ch.add(ch.add(a, b), c):
        return f"truncated sum is not associative at {triple}"
    if ch.add(a, b) != ch.add(b, a):
        return f"truncated sum is not commutative at {triple}"
    if ch.add(a, 0) != a:
        return f"0 is not a unit for the truncated sum at {triple}"
    if ch.neg(ch.neg(a)) != a:
        return f"complement is not involutive at {triple}"
    if ch.add(ch.neg(ch.add(ch.neg(a), b)), b) != ch.add(ch.neg(ch.add(ch.neg(b), a)), a):
        return f"characteristic identity fails at {triple}"
    if ch.mul(a, ch.add(b, c)) > ch.add(b, ch.mul(a, c)):
        return f"exchange inequality fails at {triple}"

    carrier = random_carrier(rng, 3)
    alpha = random_fuzzy_set(rng, carrier, ch)
    beta = random_fuzzy_set(rng, carrier, ch)
    where = f"n={n}, alpha={alpha.values}, beta={beta.values}"
    if alpha.oplus(beta) != beta.oplus(alpha):
        return f"pointwise sum is not commutative at {where}"
    if alpha.complement().complement() != alpha:
        return f"pointwise complement is not involutive at {where}"
    lhs = alpha.complement().oplus(beta).complement().oplus(beta)
    rhs = beta.complement().oplus(alpha).complement().oplus(alpha)
    if lhs != rhs:
        return f"pointwise characteristic identity fails at {where}"
    saturated = alpha.scaled(n)
    if alpha.scaled(n + 3) != saturated:
        return f"scalar multiples do not stabilize at {where}"
    crisp_support = FuzzySet(
        carrier, ch, tuple(n if v > 0 else 0 for v in alpha.values)
    )
    if saturated != crisp_support:
        return f"saturated multiple is not the crisp support at {where}"
    return None


# -- generation ------------------------------------------------------------------


def _case_generation(rng: random.Random) -> str | None:
    chain = random_chain(rng, 2)
    carrier = random_carrier(rng, 3)
    subbase = random_family(rng, carrier, chain, 3)

    def mismatch(candidate: FuzzyFamily) -> bool:
        return generate_from_subbase(candidate).opens != naive_generate_opens(candidate)

    if mismatch(subbase):
        shrunk = subbase
        changed = True
        while changed:
            changed = False
            for drop in range(len(shrunk)):
                smaller = FuzzyFamily.of(
                    carrier, chain, (m for i, m in enumerate(shrunk.members) if i != drop)
                )
                if mismatch(smaller):
                    shrunk = smaller
                    changed = True
                    break
        return (
            f"fixpoint generation disagrees with the naive closure on n={chain.n}, "
            f"points={carrier.points}, subbase={_vectors(shrunk)}"
        )

    topology = generate_from_subbase(subbase)
    where = f"n={chain.n}, subbase={_vectors(subbase)}"
    if not is_topology(topology.opens):
        return f"generated family is not a topology at {where}"
    if not is_subbase(subbase, topology):
        return f"the generator family is not a subbase of its own topology at {where}"

    base_once = base_from_subbase(subbase)
    if base_from_subbase(base_once) != base_once:
        return f"base closure is not idempotent at {where}"
    extra = random_fuzzy_set(rng, carrier, chain)
    bigger = base_from_subbase(subbase.with_members((extra,)))
    if not all(m in bigger for m in base_once):
        return f"base closure is not monotone at {where}"

    if not is_topology(closed_sets(topology)):
        return f"closed sets are not closed under the dual operations at {where}"
    if not is_topology(clopens(topology)):
        return f"clopens do not form a topology at {where}"
    return None


# -- continuity ------------------------------------------------------------------


def _case_continuity(rng: random.Random) -> str | None:
    chain = random_chain(rng, 2)
    dom_carrier = random_carrier(rng, 3)
    cod_carrier = random_carrier(rng, 3)
    domain = random_topology(rng, dom_carrier, chain, max_opens=32)
    cod_subbase = random_family(rng, cod_carrier, chain, 2)
    base = base_from_subbase(cod_subbase)
    codomain = generate_from_subbase(cod_subbase)
    f = random_point_map(rng, dom_carrier, cod_carrier)
    where = (
        f"n={chain.n}, map={f.images}, domain opens={_vectors(domain.opens)}, "
        f"codomain subbase={_vectors(cod_subbase)}"
    )

    via_base = is_continuous_via_base(f, domain, base)
    direct = is_continuous(f, domain, codomain)
    if via_base != direct:
        return f"base continuity test disagrees with the direct one at {where}"

    # pulled-back topologies make maps continuous by construction, so the
    # composite of two continuous maps must stay continuous
    mid_carrier = random_carrier(rng, 3)
    g = random_point_map(rng, mid_carrier, dom_carrier)
    pulled = FuzzyFamily.of(
        mid_carrier, chain, (mv_preimage(g, o) for o in domain.opens)
    )
    middle = generate_from_subbase(pulled)
    if not is_continuous(g, middle, domain):
        return f"pullback-built map is not continuous at {where}"
    if direct and not is_continuous(g.then(f), middle, codomain):
        return f"composition of continuous maps is not continuous at {where}"

    if dom_carrier.size == cod_carrier.size:
        images = list(range(cod_carrier.size))
        rng.shuffle(images)
        bijection = f.__class__(dom_carrier, cod_carrier, tuple(images))
        open_map = is_open_map(bijection, domain, codomain)
        inverse_cont = is_continuous(bijection.inverse(), codomain, domain)
        if open_map != inverse_cont:
            return f"bijective openness disagrees with inverse continuity at {where}"
    return None


# -- products --------------------------------------------------------------------


def _single_factor_form(space, result) -> bool:
    projection = space.projections[result.factor_index]
    factor = space.factors[result.factor_index]
    lifted = FuzzyFamily.of(
        space.carrier, space.chain, (mv_preimage(projection, o) for o in factor.opens)
    )
    return all(member in lifted for member, _ in result.certificate.entries)


def _case_tychonoff(rng: random.Random) -> str | None:
    space = random_compact_pair(rng)
    described = [
        f"factor {i}: n={f.chain.n}, points={f.carrier.points}, opens={_vectors(f.opens)}"
        for i, f in enumerate(space.factors)
    ]
    where = "; ".join(described)
    for i, factor in enumerate(space.factors):
        report = brute_force_compactness(factor)
        if not report.compact:
            return f"oracle found a non-compact factor {i} at {where}"
    report = brute_force_compactness(space.topology(), max_opens=PAIR_PRODUCT_OPENS)
    if not report.compact:
        return f"oracle found the product non-compact at {where}"
    for _ in range(20):
        entries = random_subbasic_cover(rng, space)
        result = product_subbasic_subcover(space, entries)
        if not is_additive_cover(result.certificate):
            return f"extracted certificate does not validate at {where}"
        if not _single_factor_form(space, result):
            return f"extracted certificate mixes factors at {where}"
    return None


def _case_hausdorff_product(rng: random.Random) -> str | None:
    chain = random_chain(rng, 2)
    factors = [
        random_hausdorff_topology(rng, random_carrier(rng, 2), chain) for _ in range(2)
    ]
    space = product(factors)
    topology = space.topology()
    where = _factors_where(factors)
    if not is_hausdorff(topology):
        return f"product of separated factors is not separated at {where}"

    n = chain.n
    reports = [check_hausdorff(f) for f in factors]
    for p in range(space.carrier.size):
        for q in range(p + 1, space.carrier.size):
            coords_p, coords_q = space.coordinates[p], space.coordinates[q]
            j = next(i for i in range(len(factors)) if coords_p[i] != coords_q[i])
            x, y = coords_p[j], coords_q[j]
            pair = (min(x, y), max(x, y))
            ox, oy = dict(reports[j].witnesses)[pair]
            if x > y:
                ox, oy = oy, ox
            lifted_x = mv_preimage(space.projections[j], ox)
            lifted_y = mv_preimage(space.projections[j], oy)
            if lifted_x.values[p] != n or lifted_y.values[q] != n:
                return f"lifted witnesses miss the top value at {where}"
            if not lifted_x.meet(lifted_y).is_zero:
                return f"lifted witnesses are not disjoint at {where}"
            if lifted_x not in topology.opens or lifted_y not in topology.opens:
                return f"lifted witnesses are not open in the product at {where}"
    return None


def _product_preserves(
    rng: random.Random,
    draw: Callable[[random.Random, Carrier, Chain], Topology],
    holds: Callable[[Topology], bool],
    what: str,
) -> str | None:
    """Draw two factors with the property and check it on their product."""
    chain = random_chain(rng, 2)
    factors = [draw(rng, random_carrier(rng, 2), chain) for _ in range(2)]
    if not holds(product(factors).topology()):
        return f"product of {what} factors is not {what} at {_factors_where(factors)}"
    return None


def _case_zerodim_product(rng: random.Random) -> str | None:
    return _product_preserves(
        rng, random_zero_dimensional_topology, is_zero_dimensional, "zero-dimensional"
    )


def _case_stone_product(rng: random.Random) -> str | None:
    return _product_preserves(rng, random_stone_topology, is_stone, "Stone")


# -- ideal and filter claims -------------------------------------------------------


def _case_alexander_claims(rng: random.Random) -> str | None:
    chain = random_chain(rng, 2)
    carrier = random_carrier(rng, 3)
    ideal, zero_at = random_coordinate_ideal(rng, carrier, chain)
    where = f"n={chain.n}, points={carrier.points}, zero coordinates={sorted(zero_at)}"
    if not is_ideal(ideal):
        return f"constructed coordinate family is not an ideal at {where}"

    members = ideal.members
    alpha = rng.choice(members)
    below = FuzzySet(
        carrier, chain, tuple(rng.randint(0, v) for v in alpha.values)
    )
    if below not in ideal:
        return f"ideal is not downward closed at {where}"
    if alpha.oplus(rng.choice(members)) not in ideal:
        return f"ideal is not closed under sums at {where}"

    universe = coordinate_ideal(carrier, chain, ()).members
    outside = [s for s in universe if s not in ideal]
    if outside:
        picks = [rng.choice(outside) for _ in range(rng.randint(1, 3))]
        acc = picks[0]
        for s in picks[1:]:
            acc = acc.oplus(s)
        if acc in ideal:
            return f"sum of non-members landed in the ideal at {where}"
        bumped = FuzzySet(
            carrier,
            chain,
            tuple(rng.randint(v, chain.n) for v in picks[0].values),
        )
        if bumped in ideal:
            return f"a set above a non-member landed in the ideal at {where}"

    dual = FuzzyFamily.of(carrier, chain, (m.complement() for m in members))
    if not is_filter(dual):
        return f"complement of the ideal is not a filter at {where}"

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
            f"product-plus-copies identity fails at {where} with beta={beta.values}, "
            f"summands={[t.values for t in tops]}"
        )
    return None


# -- subbasic cover extraction -------------------------------------------------------


def _case_lemma1(rng: random.Random) -> str | None:
    chain = random_chain(rng, 2)
    factors = [
        random_topology(rng, random_carrier(rng, 2), chain, max_subbase=2, max_opens=6)
        for _ in range(2)
    ]
    space = product(factors)
    where = _factors_where(factors)

    if rng.random() < 0.25:
        entries = random_subbasic_noncover(rng, space)
        try:
            product_subbasic_subcover(space, entries)
        except PreconditionError:
            return None
        return f"a non-cover was not rejected at {where}"

    entries = random_subbasic_cover(rng, space)
    result = product_subbasic_subcover(space, entries)
    if not is_additive_cover(result.certificate):
        return f"extracted certificate does not validate at {where}"
    if not _single_factor_form(space, result):
        return f"extracted certificate mixes factors at {where}"
    return None


SUITES: dict[str, Callable[[random.Random], str | None]] = {
    "algebra": _case_algebra,
    "generation": _case_generation,
    "continuity": _case_continuity,
    "tychonoff": _case_tychonoff,
    "hausdorff-product": _case_hausdorff_product,
    "zerodim-product": _case_zerodim_product,
    "stone-product": _case_stone_product,
    "alexander-claims": _case_alexander_claims,
    "lemma1": _case_lemma1,
}


def run_suite(name: str, seed: int, cases: int) -> SuiteReport:
    case = SUITES[name]
    passed = failed = 0
    first_case = None
    first_detail = None
    for index in range(cases):
        try:
            detail = case(case_rng(seed, index))
        except Exception as exc:  # a crash is a failed case, not a dead report
            detail = f"unhandled {type(exc).__name__}: {exc}"
        if detail is None:
            passed += 1
        else:
            failed += 1
            if first_case is None:
                first_case = index
                first_detail = detail
    return SuiteReport(name, seed, cases, passed, failed, first_case, first_detail)
