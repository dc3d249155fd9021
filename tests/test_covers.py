"""Covers, certificates, exact solvers against oracles, and term machinery."""

import hashlib
import itertools
import random

import pytest

from mvtop import (
    Carrier,
    Chain,
    CoverCertificate,
    FuzzyFamily,
    FuzzySet,
    InputError,
    PreconditionError,
    ResourceLimitError,
    Term,
    crisp_discrete,
    eval_term,
    find_additive_subcover,
    generate_from_subbase,
    has_additive_subcover,
    indiscrete,
    is_additive_cover,
    is_compact,
    is_cover,
    is_strongly_compact,
    mv_preimage,
    product_subbasic_subcover,
    term_witness,
)
from mvtop.covers import minimal_additive_cover_search, minimal_subcover_search
from mvtop.generators import coordinate_ideal
from mvtop.oracles import (
    brute_force_compactness,
    exhaustive_additive_subcover_exists,
    exhaustive_minimal_additive_cover,
    exhaustive_minimal_subcover,
    term_witness_exists,
)
from mvtop.product import product

CH1 = Chain(1)
CH2 = Chain(2)
AB = Carrier(("a", "b"))
X = Carrier(("x",))


def fs(carrier, chain, *values):
    return FuzzySet(carrier, chain, tuple(values))


def family(carrier, chain, *vectors):
    return FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in vectors))


def entries(certificate):
    return [(e[0].values, e[1]) for e in certificate.entries]


# -- covers and certificates -----------------------------------------------------


def test_unit_family_is_a_cover():
    assert is_cover(family(AB, CH2, (2, 2)))


def test_join_cover():
    assert is_cover(family(AB, CH2, (1, 2), (2, 0)))
    assert not is_cover(family(AB, CH2, (1, 2)))


def test_additive_cover_with_multiplicity():
    certificate = CoverCertificate(((fs(AB, CH2, 1, 1), 2),))
    assert is_additive_cover(certificate)
    assert certificate.total_multiplicity == 2


def test_certificate_validation():
    with pytest.raises(InputError):
        CoverCertificate(())
    with pytest.raises(InputError):
        CoverCertificate(((fs(AB, CH2, 1, 1), 0),))
    with pytest.raises(InputError):
        CoverCertificate(((fs(AB, CH2, 1, 1), 1), (fs(AB, CH2, 1, 1), 1)))


# -- find_additive_subcover ---------------------------------------------------------


def test_find_subcover_mixed_pair():
    certificate = find_additive_subcover(family(AB, CH2, (1, 2), (2, 0)))
    assert entries(certificate) == [((1, 2), 1), ((2, 0), 1)]
    assert is_additive_cover(certificate)


def test_find_subcover_saturation():
    certificate = find_additive_subcover(family(AB, CH2, (1, 1)))
    assert entries(certificate) == [((1, 1), 2)]


def test_find_subcover_infeasible():
    assert find_additive_subcover(family(AB, CH2, (0, 2))) is None


def test_support_criterion_matches_exhaustive_search():
    rng = random.Random(41)
    for _ in range(300):
        chain = Chain(rng.randint(1, 2))
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        fam = FuzzyFamily.of(
            carrier,
            chain,
            [
                FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
                for _ in range(rng.randint(0, 5))
            ],
        )
        assert has_additive_subcover(fam) == exhaustive_additive_subcover_exists(fam)
        found = find_additive_subcover(fam)
        assert (found is not None) == has_additive_subcover(fam)
        if found is not None:
            assert is_additive_cover(found)
            assert all(member in fam for member, _ in found.entries)
            assert all(mult <= chain.n for _, mult in found.entries)


# -- compactness --------------------------------------------------------------------


def test_indiscrete_space_is_compact():
    assert is_compact(indiscrete(AB, CH2))
    assert is_strongly_compact(indiscrete(AB, CH2))


def test_oracle_agrees_with_shortcut_on_small_spaces():
    spaces = [
        indiscrete(AB, CH2),
        generate_from_subbase(family(AB, CH2, (1, 2))),
        generate_from_subbase(family(X, CH2, (1,))),
        crisp_discrete(AB, CH1),
    ]
    for topology in spaces:
        assert len(topology.opens) <= 12
        report = brute_force_compactness(topology)
        assert report.compact == is_compact(topology) == True
        for _, certificate in report.certificates:
            assert is_additive_cover(certificate)


def test_singleton_cover_certificates():
    topology = generate_from_subbase(family(X, CH2, (1,)))
    report = brute_force_compactness(topology)
    by_cover = {chosen: cert for chosen, cert in report.certificates}
    # the cover {[1],[2]} has the one-entry certificate ([2], 1)
    idx_half = [o.values for o in topology.opens].index((1,))
    idx_one = [o.values for o in topology.opens].index((2,))
    cert = by_cover[tuple(sorted((idx_half, idx_one)))]
    assert entries(cert) == [((2,), 1)]
    # two copies of the half-valued set certify the same cover
    assert is_additive_cover(CoverCertificate(((fs(X, CH2, 1), 2),)))


def test_oracle_rejects_oversized_spaces():
    topology = crisp_discrete(Carrier(("a", "b", "c", "d", "e")), CH1)
    with pytest.raises(ResourceLimitError):
        brute_force_compactness(topology)


# -- minimal solvers -----------------------------------------------------------------


def test_minimal_additive_cover_prefers_double_half():
    best = minimal_additive_cover_search(family(AB, CH2, (1, 1), (2, 0))).certificate
    assert entries(best) == [((1, 1), 2)]
    assert best.total_multiplicity == 2


def test_minimal_additive_cover_unit_shortcut():
    best = minimal_additive_cover_search(family(AB, CH2, (2, 2), (1, 0))).certificate
    assert entries(best) == [((2, 2), 1)]


def test_minimal_additive_cover_partition():
    best = minimal_additive_cover_search(family(AB, CH1, (1, 0), (0, 1))).certificate
    assert entries(best) == [((0, 1), 1), ((1, 0), 1)]
    assert best.total_multiplicity == 2


def test_minimal_additive_cover_past_a_full_memo_of_multiples():
    # once n·(1,1) sets the bound, each child of (1,0) asks for another multiple
    # of (1,1), about 10^4 in all, so the memo of multiples is cleared on the way
    result = minimal_additive_cover_search(family(AB, Chain(5000), (0, 1), (1, 0), (1, 1)))
    assert entries(result.certificate) == [((1, 1), 5000)]
    assert result.nodes == 15004


def test_minimal_subcover_unit_wins():
    sub = minimal_subcover_search(family(AB, CH1, (1, 0), (0, 1), (1, 1))).subcover
    assert [m.values for m in sub] == [(1, 1)]


def test_minimal_subcover_requires_both():
    sub = minimal_subcover_search(family(AB, CH2, (2, 1), (1, 2))).subcover
    assert [m.values for m in sub] == [(1, 2), (2, 1)]


def test_minimal_subcover_infeasible():
    assert minimal_subcover_search(family(AB, CH2, (1, 2))).subcover is None


def test_solvers_match_exhaustive_minima():
    rng = random.Random(43)
    for _ in range(150):
        chain = Chain(rng.randint(1, 3))
        carrier = Carrier(tuple("abcd"[: rng.randint(1, 4)]))
        fam = FuzzyFamily.of(
            carrier,
            chain,
            [
                FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
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
            got = {member.values: mult for member, mult in search.certificate.entries}
            expected = {
                fam.members[i].values: m for i, m in enumerate(vector) if m > 0
            }
            assert got == expected

        sub_search = minimal_subcover_search(fam)
        sub_oracle = exhaustive_minimal_subcover(fam)
        if sub_oracle is None:
            assert sub_search.subcover is None
        else:
            assert sub_search.subcover is not None
            assert [m.values for m in sub_search.subcover] == [
                fam.members[i].values for i in sub_oracle
            ]


def _small_scope_families():
    """Every family of distinct vectors on 1 point at n = 4, on 2 points at n = 2 and
    on 3 points at n = 1, the empty family included: 32 + 512 + 256 families."""
    for k, n in ((1, 4), (2, 2), (3, 1)):
        carrier, chain = Carrier(tuple("abc"[:k])), Chain(n)
        vectors = [FuzzySet(carrier, chain, v) for v in itertools.product(range(n + 1), repeat=k)]
        for mask in range(1 << len(vectors)):
            yield FuzzyFamily.of(carrier, chain, [v for i, v in enumerate(vectors) if mask >> i & 1])


def test_both_solvers_match_their_oracles_on_every_small_family():
    # bounded-exhaustive: the verdict depends on no seed, and the counts keep it
    # from passing on a scope that went missing
    families = additive = covering = 0
    for fam in _small_scope_families():
        families += 1
        oracle = exhaustive_minimal_additive_cover(fam)
        certificate = minimal_additive_cover_search(fam).certificate
        if oracle is None:
            assert certificate is None
        else:
            additive += 1
            total, vector = oracle
            assert certificate.total_multiplicity == total
            assert entries(certificate) == [(m.values, k) for m, k in zip(fam.members, vector) if k]
        sub_oracle = exhaustive_minimal_subcover(fam)
        subcover = minimal_subcover_search(fam).subcover
        if sub_oracle is None:
            assert subcover is None
        else:
            covering += 1
            assert tuple(map(fam.members.index, subcover.members)) == sub_oracle
    assert (families, additive, covering) == (800, 746, 634)


def test_solver_node_cap_is_enforced():
    fam = family(AB, CH2, (1, 1), (2, 0), (0, 2), (1, 0))
    with pytest.raises(ResourceLimitError):
        minimal_additive_cover_search(fam, max_nodes=2)


def test_subcover_node_cap_reports_how_far_it_got():
    fam = family(AB, CH2, (1, 1), (2, 0), (0, 2), (1, 0))
    assert minimal_subcover_search(fam, max_nodes=9).nodes == 9
    with pytest.raises(ResourceLimitError) as err:
        minimal_subcover_search(fam, max_nodes=8)
    assert str(err.value) == "subcover search exceeded the node cap (cap 8, reached 9)"


def _pinned_families(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        k, n = rng.randint(1, 10), rng.randint(1, 4)
        carrier = Carrier(tuple(f"p{i}" for i in range(k)))
        chain = Chain(n)
        size = min(rng.choice((1, 5, 30, 200, 900)), (n + 1) ** k)
        vectors = set()
        while len(vectors) < size:
            vectors.add(tuple(0 if rng.random() < 0.4 else rng.randint(1, n) for _ in range(k)))
        yield FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in vectors))


def _search_outcome(fam, cap):
    rows = []
    for search, answer in (
        (minimal_additive_cover_search, lambda r: r.certificate and entries(r.certificate)),
        (minimal_subcover_search, lambda r: r.subcover and [m.values for m in r.subcover]),
    ):
        try:
            result = search(fam, max_nodes=cap)
        except ResourceLimitError as exc:
            rows.append(str(exc))
        else:
            rows.append((answer(result), result.nodes))
    return rows


def test_search_results_nodes_and_cap_errors_are_pinned():
    # 60 seeded families of 1-10 points, n 1-4 and up to 900 members, each
    # solved at node caps 60 and 4000: a refactor of either search must keep
    # the greedy certificate, the optimum, the node count and the cap error
    digest = hashlib.sha256()
    capped = 0
    for fam in _pinned_families(61, 60):
        greedy = find_additive_subcover(fam)
        rows = [None if greedy is None else entries(greedy)]
        for cap in (60, 4000):
            rows += _search_outcome(fam, cap)
        capped += sum(isinstance(r, str) for r in rows)
        digest.update(repr(rows).encode())
    assert capped == 68
    assert digest.hexdigest() == "a122e38d86d1fc4eb6ae0273101c6ee99847e691efb54c2a595e1dab834502dd"


CAP_BOUNDARY_NODES = 500


def _cap_searches():
    """Each search with the message of its cap error, looked up by name when called,
    so that a planted mutant replaces it here too."""
    return (
        (minimal_additive_cover_search, "additive-cover search exceeded the node cap"),
        (minimal_subcover_search, "subcover search exceeded the node cap"),
    )


def _cap_boundary_cases():
    """20 seeded families of 3-6 points, n 2-4 and up to 40 members, each with both
    searches' uncapped results, where each search needs at most CAP_BOUNDARY_NODES nodes."""
    rng = random.Random(5)
    cases = []
    while len(cases) < 20:
        k, n = rng.randint(3, 6), rng.randint(2, 4)
        carrier, chain = Carrier(tuple(f"p{i}" for i in range(k))), Chain(n)
        vectors = {
            tuple(0 if rng.random() < 0.4 else rng.randint(1, n) for _ in range(k))
            for _ in range(rng.randint(6, 40))
        }
        fam = FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in vectors))
        try:
            results = [search(fam, max_nodes=CAP_BOUNDARY_NODES) for search, _ in _cap_searches()]
        except ResourceLimitError:
            continue
        cases.append((fam, results))
    return cases


# each case's node counts (additive cover, subcover), as the node-by-node
# recursions count them
CAP_BOUNDARY_COUNTS = [
    (121, 225), (79, 95), (61, 35), (76, 135), (129, 63), (197, 71), (253, 25),
    (16, 0), (49, 31), (301, 41), (79, 165), (216, 229), (71, 33), (85, 57),
    (181, 73), (46, 29), (106, 0), (91, 163), (113, 231), (269, 0),
]


def test_every_cap_below_the_node_count_stops_the_search_at_the_cap():
    # each cap c short of a search's node count N stops it at node c + 1, and the
    # cap N lets it finish with the uncapped answer: a search that counts a node
    # too many or too few, alone or among pruned siblings, fails here
    cases = _cap_boundary_cases()
    assert [tuple(r.nodes for r in results) for _, results in cases] == CAP_BOUNDARY_COUNTS
    for fam, results in cases:
        for (search, message), result in zip(_cap_searches(), results):
            for cap in range(1, result.nodes):
                with pytest.raises(ResourceLimitError) as err:
                    search(fam, max_nodes=cap)
                assert str(err.value) == f"{message} (cap {cap}, reached {cap + 1})"
            assert search(fam, max_nodes=result.nodes) == result


def test_minimal_total_never_exceeds_greedy_total():
    rng = random.Random(47)
    for _ in range(100):
        chain = Chain(rng.randint(1, 3))
        carrier = Carrier(tuple("abc"[: rng.randint(1, 3)]))
        fam = FuzzyFamily.of(
            carrier,
            chain,
            [
                FuzzySet(carrier, chain, tuple(rng.randint(0, chain.n) for _ in range(carrier.size)))
                for _ in range(rng.randint(1, 5))
            ],
        )
        greedy = find_additive_subcover(fam)
        best = minimal_additive_cover_search(fam).certificate
        assert (greedy is None) == (best is None)
        if greedy is not None:
            assert best.total_multiplicity <= greedy.total_multiplicity


# -- subbasic product covers -----------------------------------------------------------


def _singleton_space():
    return generate_from_subbase(family(X, CH2, (1,)))


def test_subbasic_extraction_with_unit_entry():
    space = product([indiscrete(AB, CH2), indiscrete(AB, CH2)])
    one = FuzzySet.one(AB, CH2)
    result = product_subbasic_subcover(space, [(0, one)])
    assert result.factor_index == 0
    assert entries(result.certificate) == [((2, 2, 2, 2), 1)]


def test_subbasic_extraction_multiplies_half_value():
    factor = _singleton_space()
    space = product([factor, factor])
    half = fs(X, CH2, 1)
    result = product_subbasic_subcover(space, [(0, half)])
    assert result.factor_index == 0
    assert entries(result.certificate) == [((1,), 2)]
    assert is_additive_cover(result.certificate)


def test_subbasic_extraction_rejects_noncover_with_witness():
    factor = generate_from_subbase(family(AB, CH2, (2, 0)))
    space = product([factor, factor])
    low = fs(AB, CH2, 2, 0)
    with pytest.raises(PreconditionError) as err:
        product_subbasic_subcover(space, [(0, low), (1, low)])
    assert "(b,b)" in str(err.value)


def test_subbasic_extraction_validates_membership():
    space = product([indiscrete(AB, CH2)])
    with pytest.raises(InputError):
        product_subbasic_subcover(space, [(0, fs(AB, CH2, 1, 0))])
    with pytest.raises(InputError):
        product_subbasic_subcover(space, [(3, FuzzySet.one(AB, CH2))])


def test_subbasic_certificates_come_from_one_factor():
    factors = [
        generate_from_subbase(family(AB, CH2, (1, 2), (2, 0))),
        generate_from_subbase(family(AB, CH2, (2, 2))),
    ]
    space = product(factors)
    picks = [(0, o) for o in factors[0].opens if not o.is_zero]
    picks += [(1, FuzzySet.one(AB, CH2))]
    result = product_subbasic_subcover(space, picks)
    lifted = {
        mv_preimage(space.projections[result.factor_index], o).values
        for o in factors[result.factor_index].opens
    }
    assert all(member.values in lifted for member, _ in result.certificate.entries)


# -- terms ------------------------------------------------------------------------------


def test_eval_leaf():
    alpha = fs(AB, CH2, 1, 0)
    assert eval_term(Term.var(0), [alpha]) == alpha


def test_eval_nested_term():
    t = Term.oplus(Term.var(0), Term.odot(Term.var(1), Term.var(2)))
    args = [fs(AB, CH2, 1, 0), fs(AB, CH2, 2, 1), fs(AB, CH2, 1, 2)]
    assert eval_term(t, args) == fs(AB, CH2, 2, 1)


def test_eval_meet_is_idempotent():
    t = Term.meet(Term.var(0), Term.var(0))
    alpha = fs(AB, CH2, 2, 1)
    assert eval_term(t, [alpha]) == alpha


def test_eval_rejects_arity_mismatch():
    with pytest.raises(InputError):
        eval_term(Term.var(2), [fs(AB, CH2, 1, 0)])


def test_term_structure_validation():
    with pytest.raises(InputError):
        Term("oplus", None, Term.var(0), None)
    with pytest.raises(InputError):
        Term("var", None, None, None)
    # an index that is a bool or not an int, and a child that is not a term
    for op, index, left, right in (
        ("var", True, None, None),
        ("var", 1.5, None, None),
        ("var", 0, 0, None),
        ("oplus", None, 5, Term.var(0)),
    ):
        with pytest.raises(InputError):
            Term(op, index, left, right)
    assert Term.oplus(Term.var(0), Term.var(1)).length == 3
    assert Term.oplus(Term.var(0), Term.var(3)).arity == 4


# -- witness extraction --------------------------------------------------------------


def _b_zero_ideal():
    # all sets vanishing at the second point
    return coordinate_ideal(AB, CH2, (1,))


def test_witness_on_leaf():
    ideal = _b_zero_ideal()
    alpha = fs(AB, CH2, 1, 0)
    assert term_witness(Term.var(0), [alpha], 0, ideal) == 0


def test_witness_descends_oplus():
    ideal = _b_zero_ideal()
    t = Term.oplus(Term.var(0), Term.var(1))
    args = [fs(AB, CH2, 1, 0), fs(AB, CH2, 1, 0)]
    assert eval_term(t, args) == fs(AB, CH2, 2, 0)
    assert term_witness(t, args, 0, ideal) == 0


def test_witness_picks_the_family_side_of_meet():
    ideal = _b_zero_ideal()
    t = Term.meet(Term.var(0), Term.var(1))
    args = [fs(AB, CH2, 1, 0), fs(AB, CH2, 2, 2)]
    assert term_witness(t, args, 0, ideal) == 0
    swapped = term_witness(t, [args[1], args[0]], 0, ideal)
    assert swapped == 1


def test_witness_precondition_errors():
    ideal = _b_zero_ideal()
    not_ideal = family(AB, CH2, (0, 0), (2, 2))
    with pytest.raises(PreconditionError) as e1:
        term_witness(Term.var(0), [fs(AB, CH2, 1, 0)], 0, not_ideal)
    assert "ideal" in str(e1.value)
    with pytest.raises(PreconditionError) as e2:
        term_witness(Term.var(0), [fs(AB, CH2, 1, 1)], 0, ideal)
    assert "member" in str(e2.value)
    with pytest.raises(PreconditionError) as e3:
        term_witness(Term.var(0), [fs(AB, CH2, 0, 0)], 0, ideal)
    assert "vanishes" in str(e3.value)


def test_witness_reports_nonprime_multiplicative_nodes():
    # both sides positive at the second point, neither vanishes there, yet the
    # product does: no descent side lies in the ideal and no witness exists
    ideal = _b_zero_ideal()
    t = Term.odot(Term.oplus(Term.var(0), Term.var(2)), Term.oplus(Term.var(1), Term.var(2)))
    args = [fs(AB, CH2, 2, 1), fs(AB, CH2, 2, 1), fs(AB, CH2, 1, 0)]
    value = eval_term(t, args)
    assert value in ideal and value.values[0] > 0
    with pytest.raises(PreconditionError) as err:
        term_witness(t, args, 0, ideal)
    assert "decomposition" in str(err.value)
    # here a brute-force witness exists even though the descent cannot find it
    assert term_witness_exists(args, 0, ideal) == 2


def _left_nested_term(depth: int, last_leaf: int = 1) -> Term:
    t = Term.var(0)
    for d in range(depth):
        t = (Term.oplus if d % 2 else Term.meet)(t, Term.var(last_leaf if d == depth - 1 else 1))
    return t


def test_term_machinery_handles_a_term_5000_deep():
    # nested on the left, so the witness descent walks all 5000 levels
    t = _left_nested_term(5000)
    args = [fs(AB, CH2, 1, 0), fs(AB, CH2, 2, 0)]
    assert t.length == 10001
    assert t.arity == 2
    assert eval_term(t, args) == fs(AB, CH2, 2, 0)
    assert term_witness(t, args, 0, _b_zero_ideal()) == 0
    # equality, hash and repr walk the tree without recursing too
    twin = _left_nested_term(5000)
    assert twin is not t and twin == t and hash(twin) == hash(t)
    assert len({t, twin}) == 1
    assert _left_nested_term(5000, last_leaf=0) != t
    text = repr(t)
    assert text.startswith("Term(x0 x1 meet x1 oplus x1 meet ") and text.endswith(" x1 oplus)")
    assert text.count("x") == 5001


def test_term_equality_is_structural():
    x, y = Term.var(0), Term.var(1)
    assert Term.oplus(x, y) == Term.oplus(Term.var(0), Term.var(1))
    assert Term.oplus(x, y) != Term.oplus(y, x)
    assert Term.oplus(x, y) != Term.odot(x, y)
    # same (op, index) multiset, different shape
    assert Term.meet(Term.meet(x, x), x) != Term.meet(x, Term.meet(x, x))
    assert repr(Term.odot(x, Term.meet(y, x))) == "Term(x0 x1 x0 meet odot)"
