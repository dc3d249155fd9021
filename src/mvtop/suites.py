"""Randomized, seeded verification suites behind the CLI verify command.

Each suite runs independent cases derived from (seed, case index), so a rerun
with the same parameters reproduces the same report byte for byte.  A case
returns None on success or a failure description; the runner keeps the first
failure as the case found it, unshrunk, and describes an instance only once a
case fails.  A `verify` run loads only its suite's code: each case imports the
solvers, maps and oracles it uses.

The product suites draw their factor pairs with `random_compact_pair`.  Every
finite space is compact, so the paper's Tychonoff theorem holds of each drawn
pair by itself; what can fail at this scale is its Alexander-subbase step,
Lemma 1.  `tychonoff` extracts an additive cover from 20 subbasic covers of
each product, and each must validate and lift the opens of one factor only;
`lemma1` extracts from one cover per case, or has a non-cover rejected.

A run builds its instances through the instance memo of `generators`
(`one_run`, `once`): the sampled closures and acceptance verdicts, the products
of factors, the coordinate ideals, and continuity's codomain, base and
pulled-back topologies.  The property a case checks is computed every time,
and the generation suite calls `generate_from_subbase` directly, since
generation is what it tests.
"""

from __future__ import annotations

import random

from .core import Carrier, Chain, FuzzyFamily, FuzzySet, Record, mv_preimage
from .errors import PreconditionError
from .generators import (
    case_rng,
    coordinate_ideal,
    once,
    one_run,
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


class SuiteReport(Record):
    __slots__ = (
        "suite", "seed", "cases", "passed", "failed", "first_failure_case", "first_failure_detail"
    )
    suite: str
    seed: int
    cases: int
    passed: int
    failed: int
    first_failure_case: int | None
    first_failure_detail: str | None

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


def _factors_where(factors: Sequence[Topology]) -> str:
    """The factors' opens, for a failure detail; the factors share one chain."""
    described = "; ".join(f"factor {i}: opens={_vectors(f.opens)}" for i, f in enumerate(factors))
    return f"{described} (n={factors[0].chain.n})"


# -- algebra ---------------------------------------------------------------------


def _scalar_law_failure(ch: Chain, a: int, b: int, c: int) -> str | None:
    if ch.add(a, ch.add(b, c)) != ch.add(ch.add(a, b), c):
        return "truncated sum is not associative"
    if ch.add(a, b) != ch.add(b, a):
        return "truncated sum is not commutative"
    if ch.add(a, 0) != a:
        return "0 is not a unit for the truncated sum"
    if ch.neg(ch.neg(a)) != a:
        return "complement is not involutive"
    if ch.add(ch.neg(ch.add(ch.neg(a), b)), b) != ch.add(ch.neg(ch.add(ch.neg(b), a)), a):
        return "characteristic identity fails"
    if ch.mul(a, ch.add(b, c)) > ch.add(b, ch.mul(a, c)):
        return "exchange inequality fails"
    return None


def _pointwise_law_failure(alpha: FuzzySet, beta: FuzzySet) -> str | None:
    n = alpha.chain.n
    if alpha.oplus(beta) != beta.oplus(alpha):
        return "pointwise sum is not commutative"
    if alpha.complement().complement() != alpha:
        return "pointwise complement is not involutive"
    lhs = alpha.complement().oplus(beta).complement().oplus(beta)
    rhs = beta.complement().oplus(alpha).complement().oplus(alpha)
    if lhs != rhs:
        return "pointwise characteristic identity fails"
    saturated = alpha.scaled(n)
    if alpha.scaled(n + 3) != saturated:
        return "scalar multiples do not stabilize"
    crisp_support = FuzzySet(
        alpha.carrier, alpha.chain, tuple(n if v > 0 else 0 for v in alpha.values)
    )
    if saturated != crisp_support:
        return "saturated multiple is not the crisp support"
    return None


def _case_algebra(rng: random.Random) -> str | None:
    n = rng.randint(1, 8)
    ch = Chain(n)
    a, b, c = (rng.randint(0, n) for _ in range(3))
    failure = _scalar_law_failure(ch, a, b, c)
    if failure:
        return f"{failure} at n={n}, a={a}, b={b}, c={c}"

    carrier = random_carrier(rng, 3)
    alpha = random_fuzzy_set(rng, carrier, ch)
    beta = random_fuzzy_set(rng, carrier, ch)
    failure = _pointwise_law_failure(alpha, beta)
    if failure:
        return f"{failure} at n={n}, alpha={alpha.values}, beta={beta.values}"
    return None


# -- generation ------------------------------------------------------------------


def _case_generation(rng: random.Random) -> str | None:
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


# -- continuity ------------------------------------------------------------------


def _case_continuity(rng: random.Random) -> str | None:
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


# -- products --------------------------------------------------------------------


def _single_factor_form(space, result) -> bool:
    projection = space.projections[result.factor_index]
    factor = space.factors[result.factor_index]
    lifted = FuzzyFamily.of(
        space.carrier, space.chain, (mv_preimage(projection, o) for o in factor.opens)
    )
    return all(member in lifted for member, _ in result.certificate.entries)


def _extraction_failure(space, entries) -> str | None:
    """Lemma 1 on a subbasic cover of the product: what is wrong with the
    additive cover extracted from it, or None.

    `product_subbasic_subcover` asserts that its certificate validates, so the
    first failure below is reachable only where asserts are off (`python -O`).
    """
    from .covers import is_additive_cover, product_subbasic_subcover

    result = product_subbasic_subcover(space, entries)
    if not is_additive_cover(result.certificate):
        return "extracted certificate does not validate"
    if not _single_factor_form(space, result):
        return "extracted certificate mixes factors"
    return None


def _case_tychonoff(rng: random.Random) -> str | None:
    space = random_compact_pair(rng, random_topology, max_subbase=2, max_opens=6)
    for _ in range(20):
        failure = _extraction_failure(space, random_subbasic_cover(rng, space))
        if failure:
            return f"{failure} at {_factors_where(space.factors)}"
    return None


def _case_hausdorff_product(rng: random.Random) -> str | None:
    space = random_compact_pair(rng, random_hausdorff_topology)
    factors = space.factors
    topology = space.topology()
    if not is_hausdorff(topology):
        return f"product of separated factors is not separated at {_factors_where(factors)}"

    n = space.chain.n
    reports = [check_hausdorff(f) for f in factors]
    for p in range(space.carrier.size):
        for q in range(p + 1, space.carrier.size):
            coords_p, coords_q = space.coordinates[p], space.coordinates[q]
            j = next(i for i in range(len(factors)) if coords_p[i] != coords_q[i])
            # points follow itertools.product order, so coords_p[j] < coords_q[j]
            ox, oy = dict(reports[j].witnesses)[coords_p[j], coords_q[j]]
            lifted_x = mv_preimage(space.projections[j], ox)
            lifted_y = mv_preimage(space.projections[j], oy)
            if lifted_x.values[p] != n or lifted_y.values[q] != n:
                return f"lifted witnesses miss the top value at {_factors_where(factors)}"
            if not lifted_x.meet(lifted_y).is_zero:
                return f"lifted witnesses are not disjoint at {_factors_where(factors)}"
            if lifted_x not in topology.opens or lifted_y not in topology.opens:
                return f"lifted witnesses are not open in the product at {_factors_where(factors)}"
    return None


def _product_preserves(
    rng: random.Random,
    draw: Callable[[random.Random, Carrier, Chain], Topology],
    holds: Callable[[Topology], bool],
    what: str,
) -> str | None:
    """Draw two factors with the property and check it on their product."""
    space = random_compact_pair(rng, draw)
    if not holds(space.topology()):
        return f"product of {what} factors is not {what} at {_factors_where(space.factors)}"
    return None


def _case_zerodim_product(rng: random.Random) -> str | None:
    return _product_preserves(
        rng, random_zero_dimensional_topology, is_zero_dimensional, "zero-dimensional"
    )


def _case_stone_product(rng: random.Random) -> str | None:
    return _product_preserves(rng, random_stone_topology, is_stone, "Stone")


# -- ideal and filter claims -------------------------------------------------------


def _case_alexander_claims(rng: random.Random) -> str | None:
    from .maps import is_filter, is_ideal

    chain = random_chain(rng, 2)
    carrier = random_carrier(rng, 3)
    ideal, zero_at = random_coordinate_ideal(rng, carrier, chain)

    def where() -> str:
        return f"n={chain.n}, points={carrier.points}, zero coordinates={sorted(zero_at)}"

    if not is_ideal(ideal):
        return f"constructed coordinate family is not an ideal at {where()}"

    members = ideal.members
    alpha = rng.choice(members)
    below = FuzzySet(
        carrier, chain, tuple(rng.randint(0, v) for v in alpha.values)
    )
    if below not in ideal:
        return f"ideal is not downward closed at {where()}"
    if alpha.oplus(rng.choice(members)) not in ideal:
        return f"ideal is not closed under sums at {where()}"

    universe = coordinate_ideal(carrier, chain, ()).members
    outside = [s for s in universe if s not in ideal]
    if outside:
        picks = [rng.choice(outside) for _ in range(rng.randint(1, 3))]
        acc = picks[0]
        for s in picks[1:]:
            acc = acc.oplus(s)
        if acc in ideal:
            return f"sum of non-members landed in the ideal at {where()}"
        bumped = FuzzySet(
            carrier,
            chain,
            tuple(rng.randint(v, chain.n) for v in picks[0].values),
        )
        if bumped in ideal:
            return f"a set above a non-member landed in the ideal at {where()}"

    dual = FuzzyFamily.of(carrier, chain, (m.complement() for m in members))
    if not is_filter(dual):
        return f"complement of the ideal is not a filter at {where()}"

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
            f"product-plus-copies identity fails at {where()} with beta={beta.values}, "
            f"summands={[t.values for t in tops]}"
        )
    return None


# -- subbasic cover extraction -------------------------------------------------------


def _case_lemma1(rng: random.Random) -> str | None:
    from .covers import product_subbasic_subcover

    space = random_compact_pair(rng, random_topology, max_subbase=2, max_opens=6)

    if rng.random() < 0.25:
        entries = random_subbasic_noncover(rng, space)
        try:
            product_subbasic_subcover(space, entries)
        except PreconditionError:
            return None
        return f"a non-cover was not rejected at {_factors_where(space.factors)}"

    failure = _extraction_failure(space, random_subbasic_cover(rng, space))
    if failure:
        return f"{failure} at {_factors_where(space.factors)}"
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
    """Run the cases of one suite; the instances they build are memoized for this run only."""
    case = SUITES[name]
    passed = failed = 0
    first_case = None
    first_detail = None
    with one_run():
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
