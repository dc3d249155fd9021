"""The randomized verification suites themselves."""

import importlib
import itertools
from collections import Counter

import pytest

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    covers,
    generate_from_subbase,
    indiscrete,
    is_hausdorff,
    is_stone,
    is_topology,
    maps,
    oracles,
    suite_algebra,
    suite_alexander,
    suite_continuity,
    suite_generation,
    suite_products,
    topology,
)
from mvtop import cli, generators
from mvtop.core import PointMap
from mvtop.generators import case_rng, one_run, random_hausdorff_topology, random_topology
from mvtop.suites import SUITES, SuiteReport, render_report, run_suite
from test_families import planted

product_module = importlib.import_module("mvtop.product")

EXPECTED_SUITES = {
    "algebra",
    "generation",
    "continuity",
    "tychonoff",
    "hausdorff-product",
    "zerodim-product",
    "stone-product",
    "alexander-claims",
    "lemma1",
}


def test_the_full_suite_roster_is_wired():
    assert set(SUITES) == EXPECTED_SUITES


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_each_suite_passes_a_short_run(name):
    report = run_suite(name, 2024, 8)
    assert report.all_passed, report.first_failure_detail
    assert report.passed == 8 and report.failed == 0


def test_reports_are_reproducible():
    first = run_suite("generation", 5, 12)
    second = run_suite("generation", 5, 12)
    assert render_report(first) == render_report(second)


def test_different_seeds_change_the_instances():
    # the rendered summary is identical apart from the seed line, but the
    # underlying cases differ; a cheap proxy: both runs pass
    a = run_suite("algebra", 1, 20)
    b = run_suite("algebra", 2, 20)
    assert a.all_passed and b.all_passed
    assert a.seed != b.seed


def test_failure_reporting_shape():
    report = run_suite("algebra", 0, 0)
    assert report.cases == 0 and report.all_passed
    text = render_report(report)
    assert text.splitlines()[-1] == "result: PASS"


def test_generators_treat_a_cap_error_as_a_rejected_sample():
    # this draw's closure once passed the generator's cap and escaped as an error
    topology = random_hausdorff_topology(case_rng(0, 1), Carrier(tuple("abcde")), Chain(3))
    assert is_hausdorff(topology)
    assert len(topology.opens) <= 64


def test_random_topology_falls_back_to_the_indiscrete_topology(monkeypatch):
    calls = []
    real = generators._generate_or_none
    monkeypatch.setattr(generators, "_generate_or_none", lambda *a: calls.append(a) or real(*a))
    carrier, chain = Carrier(("a", "b")), Chain(2)
    # every topology has at least two opens, 0 and 1, so a cap of one rejects every sample
    assert random_topology(case_rng(0, 0), carrier, chain, max_opens=1) == indiscrete(carrier, chain)
    assert len(calls) == 50


# -- failure details ------------------------------------------------------------------

# (suite, owner, name, replacement, expected): a defect that makes the suite fail at
# seed 3 within 6 cases, with the failure count, the first failing case and its
# detail text; every failure return of every suite has a row, except the
# extracted certificate that does not validate (see `_extraction_failure`)
FORCED_FAILURES = [
    (
        "algebra", Chain, "add", lambda self, a, b: min(self.n, a + 2 * b),
        (5, 0, "truncated sum is not commutative at n=2, a=1, b=0, c=1"),
    ),
    # a subtraction in place of the sum: not associative
    (
        "algebra", Chain, "add", lambda self, a, b: a - b,
        (6, 0, "truncated sum is not associative at n=2, a=1, b=0, c=1"),
    ),
    # a sum that adds one more: associative and commutative, with no unit
    (
        "algebra", Chain, "add", lambda self, a, b: min(self.n, a + b + 1),
        (6, 0, "0 is not a unit for the truncated sum at n=2, a=1, b=0, c=1"),
    ),
    (
        "algebra", Chain, "neg", lambda self, a: 0,
        (6, 0, "complement is not involutive at n=2, a=1, b=0, c=1"),
    ),
    # the identity is an involution, but not the MV complement
    (
        "algebra", Chain, "neg", lambda self, a: a,
        (2, 0, "characteristic identity fails at n=2, a=1, b=0, c=1"),
    ),
    (
        "algebra", Chain, "mul", lambda self, a, b: min(self.n, 2 * b),
        (2, 1, "exchange inequality fails at n=5, a=2, b=1, c=1"),
    ),
    (
        "algebra", FuzzySet, "oplus", lambda self, other: self,
        (5, 1, "pointwise sum is not commutative at n=5, alpha=(0, 1, 5), beta=(2, 4, 5)"),
    ),
    (
        "algebra", FuzzySet, "complement", lambda self: self,
        (2, 1, "pointwise characteristic identity fails at n=5, alpha=(0, 1, 5), beta=(2, 4, 5)"),
    ),
    (
        "algebra", FuzzySet, "complement", lambda self: FuzzySet.zero(self.carrier, self.chain),
        (6, 0, "pointwise complement is not involutive at n=2, alpha=(1,), beta=(1,)"),
    ),
    # multiples without truncation
    (
        "algebra", Chain, "scaled", lambda self, k, a: k * a,
        (6, 0, "scalar multiples do not stabilize at n=2, alpha=(1,), beta=(1,)"),
    ),
    # the crisp support is built as the zero set
    (
        "algebra", suite_algebra, "FuzzySet", lambda carrier, chain, values: FuzzySet.zero(carrier, chain),
        (6, 0, "saturated multiple is not the crisp support at n=2, alpha=(1,), beta=(1,)"),
    ),
    (
        "generation", oracles, "naive_generate_opens",
        lambda subbase: FuzzyFamily(subbase.carrier, subbase.chain, ()),
        (6, 0, "fixpoint generation disagrees with the naive closure on n=1, points=('a', 'b'), subbase=[]"),
    ),
    (
        "generation", suite_generation, "is_topology", lambda family: False,
        (6, 0, "generated family is not a topology at n=1, subbase=[]"),
    ),
    (
        "generation", suite_generation, "is_subbase", lambda candidate, topology: False,
        (6, 0, "the generator family is not a subbase of its own topology at n=1, subbase=[]"),
    ),
    (
        # a base closure that drops its last member loses one more on every call
        "generation", suite_generation, "base_from_subbase",
        lambda family: FuzzyFamily(family.carrier, family.chain, family.members[:-1]),
        (2, 2, "base closure is not idempotent at n=2, subbase=[(1, 0), (1, 1), (2, 1)]"),
    ),
    (
        # the bigger subbase is the extra set alone
        "generation", FuzzyFamily, "with_members",
        lambda self, extra: FuzzyFamily(self.carrier, self.chain, extra),
        (3, 1, "base closure is not monotone at n=2, subbase=[(0, 2)]"),
    ),
    (
        "generation", suite_generation, "closed_sets",
        lambda topology: FuzzyFamily(topology.carrier, topology.chain, ()),
        (6, 0, "closed sets are not closed under the dual operations at n=1, subbase=[]"),
    ),
    (
        "generation", suite_generation, "clopens",
        lambda topology: FuzzyFamily(topology.carrier, topology.chain, ()),
        (6, 0, "clopens do not form a topology at n=1, subbase=[]"),
    ),
    (
        "continuity", maps, "is_continuous_via_base", lambda f, domain, base: None,
        (
            6, 0,
            "base continuity test disagrees with the direct one at n=1, map=(0, 0), "
            "domain opens=[(0, 0), (1, 0), (1, 1)], codomain subbase=[(0,), (1,)]",
        ),
    ),
    # the pulled-back subbase is the zero set alone
    (
        "continuity", suite_continuity, "mv_preimage", lambda f, alpha: FuzzySet.zero(f.domain, alpha.chain),
        (
            1, 2,
            "pullback-built map is not continuous at n=2, map=(2, 2), domain opens=[(0, 0), (0, 1), "
            "(0, 2), (1, 1), (1, 2), (2, 2)], codomain subbase=[(0, 0, 1), (2, 0, 2)]",
        ),
    ),
    # the composite keeps the first map's indices, wrapped into the codomain
    (
        "continuity", PointMap, "then",
        lambda self, other: PointMap(self.domain, other.codomain, tuple(i % other.codomain.size for i in self.images)),
        (
            1, 2,
            "composition of continuous maps is not continuous at n=2, map=(2, 2), domain opens=[(0, 0), "
            "(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)], codomain subbase=[(0, 0, 1), (2, 0, 2)]",
        ),
    ),
    # case 5 is the first whose carriers have one size, so that a bijection is drawn
    (
        "continuity", maps, "is_open_map", lambda f, domain, codomain: False,
        (
            1, 5,
            "bijective openness disagrees with inverse continuity at n=2, map=(0,), "
            "domain opens=[(0,), (2,)], codomain subbase=[]",
        ),
    ),
    (
        # the Lemma 1 check that lemma1 runs on one cover, tychonoff runs on 20
        "tychonoff", suite_products, "_single_factor_form", lambda space, result: False,
        (
            6, 0,
            "extracted certificate mixes factors at factor 0: opens=[(0, 0), (1, 1)]; "
            "factor 1: opens=[(0, 0), (1, 1)] (n=1)",
        ),
    ),
    (
        "hausdorff-product", suite_products, "is_hausdorff", lambda t: False,
        (
            6, 0,
            "product of separated factors is not separated at factor 0: opens=[(0, 0), (0, 1), "
            "(1, 0), (1, 1)]; factor 1: opens=[(0, 0), (0, 1), (1, 0), (1, 1)] (n=1)",
        ),
    ),
    (
        "hausdorff-product", suite_products, "mv_preimage", lambda f, alpha: FuzzySet.zero(f.domain, alpha.chain),
        (
            5, 0,
            "lifted witnesses miss the top value at factor 0: opens=[(0, 0), (0, 1), (1, 0), (1, 1)]; "
            "factor 1: opens=[(0, 0), (0, 1), (1, 0), (1, 1)] (n=1)",
        ),
    ),
    (
        "hausdorff-product", FuzzySet, "meet", lambda self, other: self,
        (
            5, 0,
            "lifted witnesses are not disjoint at factor 0: opens=[(0, 0), (0, 1), (1, 0), (1, 1)]; "
            "factor 1: opens=[(0, 0), (0, 1), (1, 0), (1, 1)] (n=1)",
        ),
    ),
    (
        "hausdorff-product", FuzzyFamily, "__contains__", lambda self, item: False,
        (
            5, 0,
            "lifted witnesses are not open in the product at factor 0: opens=[(0, 0), (0, 1), (1, 0), "
            "(1, 1)]; factor 1: opens=[(0, 0), (0, 1), (1, 0), (1, 1)] (n=1)",
        ),
    ),
    (
        "zerodim-product", suite_products, "is_zero_dimensional", lambda t: False,
        (
            6, 0,
            "product of zero-dimensional factors is not zero-dimensional at factor 0: "
            "opens=[(0, 0), (1, 1)]; factor 1: opens=[(0, 0), (1, 1)] (n=1)",
        ),
    ),
    (
        "stone-product", suite_products, "is_stone", lambda t: False,
        (
            6, 0,
            "product of Stone factors is not Stone at factor 0: opens=[(0, 0), (0, 1), (1, 0), "
            "(1, 1)]; factor 1: opens=[(0, 0), (0, 1), (1, 0), (1, 1)] (n=1)",
        ),
    ),
    (
        "alexander-claims", maps, "is_ideal", lambda family: False,
        (6, 0, "constructed coordinate family is not an ideal at n=1, points=('a', 'b'), zero coordinates=[0, 1]"),
    ),
    (
        "alexander-claims", FuzzyFamily, "__contains__", lambda self, item: False,
        (6, 0, "ideal is not downward closed at n=1, points=('a', 'b'), zero coordinates=[0, 1]"),
    ),
    (
        "alexander-claims", FuzzySet, "oplus", lambda self, other: FuzzySet.one(self.carrier, self.chain),
        (6, 0, "ideal is not closed under sums at n=1, points=('a', 'b'), zero coordinates=[0, 1]"),
    ),
    (
        "alexander-claims", FuzzySet, "oplus", lambda self, other: FuzzySet.zero(self.carrier, self.chain),
        (6, 0, "sum of non-members landed in the ideal at n=1, points=('a', 'b'), zero coordinates=[0, 1]"),
    ),
    # the set drawn above a non-member is the zero set
    (
        "alexander-claims", suite_alexander, "FuzzySet", lambda carrier, chain, values: FuzzySet.zero(carrier, chain),
        (
            6, 0,
            "a set above a non-member landed in the ideal at n=1, points=('a', 'b'), zero coordinates=[0, 1]",
        ),
    ),
    (
        "alexander-claims", maps, "is_filter", lambda family: False,
        (6, 0, "complement of the ideal is not a filter at n=1, points=('a', 'b'), zero coordinates=[0, 1]"),
    ),
    (
        "alexander-claims", FuzzySet, "is_one", property(lambda self: False),
        (
            6, 0,
            "product-plus-copies identity fails at n=1, points=('a', 'b'), zero coordinates=[0, 1] "
            "with beta=(1, 0), summands=[(1, 1), (0, 1)]",
        ),
    ),
    # the drawn non-cover is a cover
    (
        "lemma1", suite_products, "random_subbasic_noncover", suite_products.random_subbasic_cover,
        (
            3, 1,
            "a non-cover was not rejected at factor 0: opens=[(0, 0), (2, 2)]; "
            "factor 1: opens=[(0, 0), (2, 2)] (n=2)",
        ),
    ),
    (
        "lemma1", suite_products, "_single_factor_form", lambda space, result: False,
        (
            3, 0,
            "extracted certificate mixes factors at factor 0: opens=[(0, 0), (1, 1)]; "
            "factor 1: opens=[(0, 0), (1, 1)] (n=1)",
        ),
    ),
]


def forced_failure_ids(rows) -> list[str]:
    """`suite-name`, with `-2`, `-3`, ... on the later rows that plant into one name."""
    seen = Counter()
    ids = []
    for suite, _, name, _, _ in rows:
        base = f"{suite}-{name}"
        seen[base] += 1
        ids.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
    return ids


@pytest.mark.parametrize(
    "suite, owner, name, replacement, expected", FORCED_FAILURES, ids=forced_failure_ids(FORCED_FAILURES)
)
def test_a_failing_case_describes_its_instance(monkeypatch, suite, owner, name, replacement, expected):
    # details are built only once a case fails; every product suite describes its
    # factors one way: their opens, then the chain they share
    assert {row[0] for row in FORCED_FAILURES} == EXPECTED_SUITES
    monkeypatch.setattr(owner, name, replacement)
    report = run_suite(suite, 3, 6)
    assert (report.failed, report.first_failure_case, report.first_failure_detail) == expected


def test_verify_prints_the_first_failure_and_exits_1(monkeypatch, capsys):
    suite, owner, name, replacement, (failed, case, detail) = FORCED_FAILURES[0]
    monkeypatch.setattr(owner, name, replacement)
    assert cli.main(["verify", suite, "--seed", "3", "--cases", "6"]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        f"failed: {failed}", f"first failure: case {case}", f"detail: {detail}", "result: FAIL"
    ]


# -- the instance memo ------------------------------------------------------------------


def test_builders_recompute_outside_a_run(monkeypatch):
    calls = []
    monkeypatch.setattr(
        generators,
        "generate_from_subbase",
        lambda subbase, **caps: calls.append(subbase) or generate_from_subbase(subbase, **caps),
    )
    carrier, chain = Carrier(("a", "b")), Chain(2)

    def draw():
        # two points and n = 2 stay under the opens cap: the first sample is taken
        return random_topology(case_rng(7, 0), carrier, chain)

    first = draw()
    assert draw() == first and len(calls) == 2
    with one_run():
        assert draw() == first and draw() == first
    assert len(calls) == 3
    assert draw() == first and len(calls) == 4


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_two_runs_in_one_process_give_one_report(name):
    assert run_suite(name, 13, 6) == run_suite(name, 13, 6)


def drop_last_clopen(space):
    """A defect in `is_zero_dimensional`: the clopens without their last member."""
    opens = space.opens
    members = [o for o in opens if o.complement() in opens][:-1]
    return FuzzyFamily.of(space.carrier, space.chain, members)


def every_other_generator(subbase, max_size=topology.DEFAULT_MAX_OPENS):
    """A defect in product generation: half the product subbase is dropped."""
    kept = FuzzyFamily(subbase.carrier, subbase.chain, subbase.members[::2])
    return generate_from_subbase(kept, max_size=max_size)


@pytest.mark.parametrize(
    "suite, owner, name, defect, expected",
    [
        (
            "zerodim-product", topology, "clopens", drop_last_clopen,
            (
                24, 6, 3,
                "product of zero-dimensional factors is not zero-dimensional at factor 0: "
                "opens=[(0,), (1,)]; factor 1: opens=[(0,), (1,)] (n=1)",
            ),
        ),
        (
            "hausdorff-product", suite_products, "generate_from_subbase", every_other_generator,
            (
                10, 20, 1,
                "product of separated factors is not separated at factor 0: opens=[(0,), (2,)]; "
                "factor 1: opens=[(0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2)] (n=2)",
            ),
        ),
    ],
)
def test_a_defect_planted_between_runs_shows_in_the_next_run(monkeypatch, suite, owner, name, defect, expected):
    # the memo lasts one run: nothing built before the defect is reused after it
    assert run_suite(suite, 5, 30) == SuiteReport(suite, 5, 30, 30, 0, None, None)
    monkeypatch.setattr(owner, name, defect)
    report = run_suite(suite, 5, 30)
    assert (report.passed, report.failed, report.first_failure_case, report.first_failure_detail) == expected
    monkeypatch.undo()
    assert run_suite(suite, 5, 30) == SuiteReport(suite, 5, 30, 30, 0, None, None)


# -- planted mutants of the product layer ------------------------------------------------

# (owner, name, old, new, gate, expected): the real function recompiled with `old`
# replaced by `new` makes the gate, a suite run (name, seed, cases), report
# (passed, failed, first failing case, its detail)
PRODUCT_LAYER_MUTANTS = [
    # the extracted cover is pulled back along the first projection, whatever its factor
    (
        covers, "product_subbasic_subcover", "space.projections[j]", "space.projections[0]",
        ("lemma1", 5, 30),
        (23, 7, 1, "unhandled InputError: the set to pull back must live on the map's codomain"),
    ),
    (
        covers, "product_subbasic_subcover", "space.projections[j]", "space.projections[0]",
        ("tychonoff", 5, 30),
        (11, 19, 0, "unhandled InputError: the set to pull back must live on the map's codomain"),
    ),
    # the continuity scan never looks at the family's first member
    (
        maps, "_first_non_open_preimage", "for o in family", "for o in family.members[1:]",
        ("continuity", 5, 220),
        (
            209, 11, 14,
            "base continuity test disagrees with the direct one at n=1, map=(0, 1, 0), "
            "domain opens=[(0, 0, 0), (1, 1, 1)], codomain subbase=[(1, 0)]",
        ),
    ),
    # the product subbase skips each factor's second-to-last open
    (
        product_module, "product",
        "for alpha in f.opens", "for alpha in f.opens.members[:-2] + f.opens.members[-1:]",
        ("hausdorff-product", 5, 30),
        (
            12, 18, 2,
            "product of separated factors is not separated at factor 0: opens=[(0,), (1,)]; "
            "factor 1: opens=[(0, 0), (0, 1), (1, 0), (1, 1)] (n=1)",
        ),
    ),
]


@pytest.mark.parametrize(
    "owner, name, old, new, gate, expected",
    PRODUCT_LAYER_MUTANTS,
    ids=[f"{row[1]}-{row[4][0]}" for row in PRODUCT_LAYER_MUTANTS],
)
def test_a_planted_mutant_fails_its_gate(monkeypatch, owner, name, old, new, gate, expected):
    monkeypatch.setattr(owner, name, planted(getattr(owner, name), old, new))
    report = run_suite(*gate)
    assert (report.passed, report.failed, report.first_failure_case, report.first_failure_detail) == expected


def test_the_generation_suite_reports_a_closure_without_meet_as_found(monkeypatch):
    # the failing subbase is reported whole: the suite does not shrink it to the
    # two members whose meet is lost
    without_meet = planted(topology.base_from_subbase, ", lanes.meet(x, y)", "")
    monkeypatch.setattr(topology, "base_from_subbase", without_meet)
    report = run_suite("generation", 5, 45)
    assert (report.passed, report.failed, report.first_failure_case, report.first_failure_detail) == (
        44, 1, 37,
        "fixpoint generation disagrees with the naive closure on n=2, points=('a', 'b', 'c'), "
        "subbase=[(0, 1, 2), (1, 1, 2), (1, 2, 1)]",
    )


def test_a_stone_sampler_accepting_hausdorff_spaces_is_an_equivalent_mutant(monkeypatch):
    """No gate can catch this mutant: the product suites draw factors over chains
    with n <= 2, and there a finite Hausdorff space is Stone.

    For x != y the least open with the top value at x and the one at y are
    disjoint, so the least open at x is the crisp point {x}, and every crisp set
    is open.  The complement of an open u is the join over x of the value n - u(x)
    at x: where u(x) = 0 that is the crisp point, where u(x) = n it is nothing, and
    the only value between, 1 at n = 2, is u met with the crisp point.  So every
    open is clopen, the space is zero-dimensional, and it is compact as every
    valid finite space is.  The two predicates accept the same samples, which
    consume the same draws.  That `is_stone` could replace the sampler's own
    Hausdorff-and-zero-dimensional test rests on the same fact, `is_compact`
    holding on every valid topology, and not on a gate.
    """
    verdicts = []  # every topology on 1 or 2 points over n = 1 or 2: the factors' scope
    for size, n in itertools.product((1, 2), (1, 2)):
        carrier, chain = Carrier(tuple("ab"[:size])), Chain(n)
        sets = [FuzzySet(carrier, chain, v) for v in itertools.product(range(n + 1), repeat=size)]
        for mask in range(1 << len(sets)):
            family = FuzzyFamily(carrier, chain, [x for i, x in enumerate(sets) if mask >> i & 1])
            if is_topology(family):
                space = topology.Topology(family)
                verdicts.append((is_hausdorff(space), is_stone(space)))
    assert len(verdicts) == 23 and verdicts.count((True, True)) == 8
    assert all(hausdorff == stone for hausdorff, stone in verdicts)

    weakened = planted(generators.random_stone_topology, "is_stone", "is_hausdorff")
    before = run_suite("stone-product", 5, 30)
    monkeypatch.setattr(suite_products, "random_stone_topology", weakened)
    assert run_suite("stone-product", 5, 30) == before == SuiteReport("stone-product", 5, 30, 30, 0, None, None)
