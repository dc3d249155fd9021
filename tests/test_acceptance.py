"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Seeds are fixed so every run checks the same instances.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout

from mvtop import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    PointMap,
    eval_term,
    generate_from_subbase,
    has_additive_subcover,
    mv_preimage,
    term_witness,
    verify_universal_property,
)
from mvtop.cli import main as cli_main
from mvtop.covers import minimal_additive_cover_search, minimal_subcover_search
from mvtop.documents import (
    dumps_canonical,
    map_document_to_obj,
    parse_family_document,
    parse_map_document,
    parse_space_document,
    space_document_to_obj,
)
from mvtop.generators import (
    case_rng,
    coordinate_ideal,
    random_hausdorff_topology,
    random_term,
)
from mvtop.metric import metric_document_to_obj, parse_metric_document
from mvtop.oracles import (
    exhaustive_additive_subcover_exists,
    exhaustive_minimal_additive_cover,
    exhaustive_minimal_subcover,
    naive_generate_opens,
    term_witness_exists,
)
from mvtop.product import product, tupling
from mvtop.suites import SUITES, run_suite
from mvtop.terms import OPLUS, VAR


def _report(number: int, message: str) -> None:
    print(f"criterion {number:02d}: PASS - {message}")


# -- 1: chain axioms, exhaustive for n <= 8 ------------------------------------------


def test_criterion_01_chain_axioms_exhaustive():
    start = time.monotonic()
    checked = 0
    for n in range(1, 9):
        ch = Chain(n)
        for a in range(n + 1):
            for b in range(n + 1):
                for c in range(n + 1):
                    assert ch.add(a, ch.add(b, c)) == ch.add(ch.add(a, b), c)
                    assert ch.add(a, b) == ch.add(b, a)
                    assert ch.add(a, 0) == a
                    assert ch.neg(ch.neg(a)) == a
                    assert ch.add(ch.neg(ch.add(ch.neg(a), b)), b) == ch.add(
                        ch.neg(ch.add(ch.neg(b), a)), a
                    )
                    assert ch.mul(a, ch.add(b, c)) <= ch.add(b, ch.mul(a, c))
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"axiom sweep took {elapsed:.2f}s"
    _report(1, f"{checked} triples across n<=8 in {elapsed:.2f}s")


# -- 2: preimage homomorphism on 10^4 random instances --------------------------------


def test_criterion_02_preimage_homomorphism():
    failures = 0
    for case in range(10_000):
        rng = case_rng(2_000, case)
        n = rng.randint(1, 6)
        ch = Chain(n)
        dom = Carrier(tuple(f"d{i}" for i in range(rng.randint(1, 5))))
        cod = Carrier(tuple(f"c{i}" for i in range(rng.randint(1, 5))))
        f = PointMap(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))
        vec = lambda: FuzzySet(cod, ch, tuple(rng.randint(0, n) for _ in range(cod.size)))
        alpha, beta = vec(), vec()
        pre = lambda s: mv_preimage(f, s)
        ok = (
            pre(alpha.oplus(beta)) == pre(alpha).oplus(pre(beta))
            and pre(alpha.odot(beta)) == pre(alpha).odot(pre(beta))
            and pre(alpha.meet(beta)) == pre(alpha).meet(pre(beta))
            and pre(alpha.join(beta)) == pre(alpha).join(pre(beta))
            and pre(alpha.complement()) == pre(alpha).complement()
        )
        members = [vec() for _ in range(rng.randint(0, 4))]
        fam = FuzzyFamily.of(cod, ch, members)
        pulled = FuzzyFamily.of(dom, ch, (pre(m) for m in members))
        ok = ok and pre(fam.join()) == pulled.join() and pre(fam.meet()) == pulled.meet()
        if not ok:
            failures += 1
    assert failures == 0
    _report(2, "10000 random (f, alpha, beta) instances, zero failures")


# -- 3: generation equals the naive alternating-closure oracle -------------------------


def test_criterion_03_generation_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    sampled = 0
    for case in range(600):
        rng = case_rng(3_000, case)
        n = rng.randint(1, 2)
        ch = Chain(n)
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        members = [
            FuzzySet(carrier, ch, tuple(rng.randint(0, n) for _ in range(carrier.size)))
            for _ in range(rng.randint(0, 3))
        ]
        subbase = FuzzyFamily.of(carrier, ch, members)
        if generate_from_subbase(subbase).opens != naive_generate_opens(subbase):
            mismatches += 1
        sampled += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert sampled >= 500
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.2f}s"
    _report(3, f"{sampled} sampled subbases agree with the naive closure in {elapsed:.1f}s")


# -- 4: support-union criterion vs exhaustive multiplicity search ----------------------


def _all_vectors(carrier: Carrier, ch: Chain) -> list[FuzzySet]:
    return [
        FuzzySet(carrier, ch, values)
        for values in itertools.product(range(ch.n + 1), repeat=carrier.size)
    ]


def test_criterion_04_finite_compactness_lemma():
    checked = 0
    # exhaustive wherever the value space is small
    for size, n in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        ch = Chain(n)
        carrier = Carrier(tuple("abc"[:size]))
        vectors = _all_vectors(carrier, ch)
        for count in range(0, 6):
            for combo in itertools.combinations(vectors, count):
                fam = FuzzyFamily.of(carrier, ch, combo)
                assert has_additive_subcover(fam) == exhaustive_additive_subcover_exists(fam)
                checked += 1
    # seeded sampling for the 27-element value space
    ch = Chain(2)
    carrier = Carrier(("a", "b", "c"))
    vectors = _all_vectors(carrier, ch)
    for case in range(2_000):
        rng = case_rng(4_000, case)
        fam = FuzzyFamily.of(carrier, ch, rng.sample(vectors, rng.randint(0, 5)))
        assert has_additive_subcover(fam) == exhaustive_additive_subcover_exists(fam)
        checked += 1
    _report(4, f"criterion agreed with exhaustive search on {checked} families")


# -- 5: Lemma 1 on products at desk scale -----------------------------------------------


def test_criterion_05_tychonoff_at_desk_scale():
    start = time.monotonic()
    report = run_suite("tychonoff", 500, 50)
    elapsed = time.monotonic() - start
    assert report.all_passed, report.first_failure_detail
    assert elapsed < 300.0, f"tychonoff suite took {elapsed:.1f}s"
    _report(
        5,
        f"50 products, each with 20 subbasic covers reduced to a one-factor "
        f"additive cover, in {elapsed:.1f}s",
    )


# -- 6: Hausdorff / zero-dimensional / Stone preservation ------------------------------


def test_criterion_06_separation_preservation():
    for suite in ("hausdorff-product", "zerodim-product", "stone-product"):
        report = run_suite(suite, 600, 100)
        assert report.all_passed, f"{suite}: {report.first_failure_detail}"
    _report(6, "100 factor pairs per predicate, products preserved all three")


# -- 7: universal property ---------------------------------------------------------------


def test_criterion_07_universal_property():
    for case in range(100):
        rng = case_rng(700, case)
        ch = Chain(rng.randint(1, 2))
        factors = [
            random_hausdorff_topology(rng, Carrier(tuple("ab"[: rng.randint(1, 2)])), ch)
            for _ in range(rng.randint(1, 2))
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
        pulled = [mv_preimage(m, o) for m, f in zip(maps, factors) for o in f.opens]
        source = generate_from_subbase(FuzzyFamily.of(source_carrier, ch, pulled))
        outcome = verify_universal_property(space, source, maps)
        assert outcome.passed
        assert tupling(maps, space) == outcome.tupling_map
    _report(7, "100 random continuous families satisfy the universal property")


# -- 8: witness extraction from term values ----------------------------------------------


def _descent_class(term, args, family) -> bool:
    """Every multiplicative node with value in the family has a child value in it."""

    def walk(node) -> bool:
        if node.op == VAR:
            return True
        if not (walk(node.left) and walk(node.right)):
            return False
        if node.op != OPLUS and eval_term(node, args) in family:
            return (
                eval_term(node.left, args) in family
                or eval_term(node.right, args) in family
            )
        return True

    return walk(term)


def test_criterion_08_witness_extraction():
    collected = 0
    attempts = 0
    while collected < 500:
        attempts += 1
        assert attempts < 100_000, "instance generation stalled"
        rng = case_rng(800, attempts)
        n = rng.randint(1, 2)
        ch = Chain(n)
        carrier = Carrier(tuple("abc"[: rng.randint(2, 3)]))
        point = rng.randrange(carrier.size)
        zero_at = frozenset(
            i for i in range(carrier.size) if i != point and rng.random() < 0.7
        )
        ideal = coordinate_ideal(carrier, ch, zero_at)
        arity = rng.randint(1, 4)
        term = random_term(rng, arity, rng.randint(1, 5))
        args = [
            rng.choice(ideal.members)
            if rng.random() < 0.7
            else FuzzySet(carrier, ch, tuple(rng.randint(0, n) for _ in range(carrier.size)))
            for _ in range(arity)
        ]
        value = eval_term(term, args)
        if value not in ideal or value.values[point] == 0:
            continue
        if not _descent_class(term, args, ideal):
            continue
        collected += 1
        j = term_witness(term, args, point, ideal)
        assert args[j] in ideal and args[j].values[point] > 0
        assert term_witness_exists(args, point, ideal) is not None
    _report(8, f"500 witness extractions valid ({attempts} candidates drawn)")


# -- 9: solver optimality against exhaustive minima ---------------------------------------


def test_criterion_09_solver_optimality():
    max_nodes_seen = 0
    for case in range(200):
        rng = case_rng(900, case)
        n = rng.randint(1, 3)
        ch = Chain(n)
        carrier = Carrier(tuple("abcd"[: rng.randint(1, 4)]))
        fam = FuzzyFamily.of(
            carrier,
            ch,
            [
                FuzzySet(carrier, ch, tuple(rng.randint(0, n) for _ in range(carrier.size)))
                for _ in range(rng.randint(0, 6))
            ],
        )
        search = minimal_additive_cover_search(fam)
        oracle = exhaustive_minimal_additive_cover(fam)
        if oracle is None:
            assert search.certificate is None
        else:
            total, vector = oracle
            assert search.certificate is not None
            assert search.certificate.total_multiplicity == total
            assert {m.values: k for m, k in search.certificate.entries} == {
                fam.members[i].values: k for i, k in enumerate(vector) if k
            }
        sub_search = minimal_subcover_search(fam)
        sub_oracle = exhaustive_minimal_subcover(fam)
        if sub_oracle is None:
            assert sub_search.subcover is None
        else:
            assert sub_search.subcover is not None
            assert [m.values for m in sub_search.subcover] == [
                fam.members[i].values for i in sub_oracle
            ]
        max_nodes_seen = max(max_nodes_seen, search.nodes, sub_search.nodes)
        assert search.nodes <= 100_000 and sub_search.nodes <= 100_000
    _report(9, f"200 instances optimal; worst branch-and-bound explored {max_nodes_seen} nodes")


# -- 10: CLI determinism and round trips ----------------------------------------------------


def _run_cli(args: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(args)
    return code, buffer.getvalue()


def test_criterion_10_cli_determinism_and_roundtrip():
    for suite in sorted(SUITES):
        cases = "3" if suite == "tychonoff" else "5"
        args = ["verify", suite, "--seed", "11", "--cases", cases]
        code_a, out_a = _run_cli(args)
        code_b, out_b = _run_cli(args)
        assert code_a == code_b == 0, f"{suite} failed:\n{out_a}"
        assert out_a.encode() == out_b.encode(), f"{suite} report not byte-identical"

    corpus: list[tuple] = []
    rng = random.Random(1010)
    for i in range(12):
        n = rng.randint(1, 3)
        size = rng.randint(1, 3)
        points = [f"p{k}" for k in range(size)]
        vectors = [
            [rng.randint(0, n) for _ in range(size)] for _ in range(rng.randint(0, 3))
        ]
        kind = "subbase" if i % 2 else "opens"
        if kind == "opens":
            vectors += [[0] * size, [n] * size]
        corpus.append(
            (
                parse_space_document,
                space_document_to_obj,
                {"name": f"space{i}", "chain": n, "points": points, kind: vectors},
            )
        )
    for i in range(4):
        n = rng.randint(1, 3)
        corpus.append(
            (
                parse_family_document,
                space_document_to_obj,
                {
                    "chain": n,
                    "points": ["a", "b"],
                    "family": [[rng.randint(0, n), rng.randint(0, n)] for _ in range(3)],
                },
            )
        )
    for i in range(3):
        corpus.append(
            (
                parse_map_document,
                map_document_to_obj,
                {
                    "domain": {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [1, 1]]},
                    "codomain": {"chain": 1, "points": ["u"], "opens": [[0], [1]]},
                    "map": [0, 0],
                },
            )
        )
    corpus.append(
        (
            parse_metric_document,
            metric_document_to_obj,
            {
                "chain": 2,
                "points": ["a", "b", "c"],
                "dist": [[0, 1, "3/2"], [1, 0, 1], ["3/2", 1, 0]],
                "radii": [1, "3/2", 3],
                "centers": [["a", 2], ["b", 1]],
            },
        )
    )
    assert len(corpus) >= 20
    for parse, serialize, obj in corpus:
        doc = parse(obj)
        assert parse(serialize(doc)) == doc
        text = dumps_canonical(serialize(doc))
        assert dumps_canonical(serialize(parse(json.loads(text)))) == text
    _report(10, f"9 suites byte-identical on rerun; {len(corpus)} documents round-trip")
