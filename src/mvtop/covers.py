"""Additive covers and exact cover solvers.

Additive covers are finite multisets of fuzzy sets whose truncated sum is the
unit set.  Over a finite chain a multiplicity beyond the chain resolution n
never helps (scalar multiples saturate), which bounds every search to
multiplicity vectors in 0..n.  The cover and compactness deciders live in
`topology`, so that `check` runs them without loading the solvers.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_

from .core import FuzzyFamily, FuzzySet, Record, _set, mv_preimage
from .errors import InputError, PreconditionError, ResourceLimitError
from .topology import _first_uncovered, has_additive_subcover, is_cover

DEFAULT_MAX_NODES = 1_000_000


def _suffixes(fold, items, empty):
    """The fold of each suffix items[i:], the empty one's last."""
    return [*accumulate(reversed(items), fold, initial=empty)][::-1]


class CoverCertificate(Record):
    """A multiset of fuzzy sets, as (member, multiplicity) entries in canonical order."""

    __slots__ = ("entries",)
    entries: tuple[tuple[FuzzySet, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise InputError("a certificate needs at least one entry")
        first = self.entries[0][0]
        seen = set()
        for member, mult in self.entries:
            if member.carrier != first.carrier or member.chain != first.chain:
                raise InputError("certificate entries live on different carriers or chains")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise InputError(f"multiplicity must be an integer >= 1, got {mult!r}")
            if member.values in seen:
                raise InputError("certificate entries must have distinct members")
            seen.add(member.values)
        _set(self, "entries", tuple(sorted(self.entries, key=lambda e: e[0].values)))

    @property
    def carrier(self):
        return self.entries[0][0].carrier

    @property
    def chain(self):
        return self.entries[0][0].chain

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def combined(self) -> FuzzySet:
        """Truncated sum of all entries with their multiplicities."""
        n = self.chain.n
        sums = map(sum, zip(*[[mult * v for v in m.values] for m, mult in self.entries]))
        return FuzzySet._trusted(self.carrier, self.chain, tuple(min(n, a) for a in sums))


def is_additive_cover(certificate: CoverCertificate) -> bool:
    return certificate.combined().is_one


def find_additive_subcover(family: FuzzyFamily) -> CoverCertificate | None:
    """A certificate drawn from the family, or None when none exists.

    Built greedily point by point (largest value first, canonical order on
    ties), then multiplicities are lowered entry by entry while the sum stays
    at the unit set.
    """
    if not has_additive_subcover(family):
        return None
    n, size = family.chain.n, family.carrier.size
    mults: dict[FuzzySet, int] = {}
    acc = [0] * size  # the running sum of the entries, before truncation at n
    for x in range(size):
        if acc[x] >= n:
            continue
        # max keeps the first of equal keys: the canonically least member
        best = max((m for m in family.members if m.values[x] > 0), key=lambda m: m.values[x])
        # ceil division; a multiplicity best already holds leaves x below n, so it is smaller
        needed = -(-n // best.values[x])
        acc = [a + (needed - mults.get(best, 0)) * v for a, v in zip(acc, best.values)]
        mults[best] = needed

    for member in sorted(mults, key=lambda m: m.values):
        # the largest drop keeping every point at n
        drop = min([mults[member]] + [(a - n) // v for a, v in zip(acc, member.values) if v])
        mults[member] -= drop
        acc = [a - drop * v for a, v in zip(acc, member.values)]

    certificate = CoverCertificate(tuple((m, mult) for m, mult in mults.items() if mult))
    assert is_additive_cover(certificate)
    return certificate


# -- exact solvers ---------------------------------------------------------------


class AdditiveCoverSearch(Record):
    __slots__ = ("certificate", "nodes")
    certificate: CoverCertificate | None
    nodes: int


def minimal_additive_cover_search(
    family: FuzzyFamily, *, max_nodes: int = DEFAULT_MAX_NODES
) -> AdditiveCoverSearch:
    """Minimize total multiplicity subject to reaching the top value everywhere.

    Depth-first branch and bound over the members in canonical order, trying
    multiplicities in increasing order, pruned by an admissible lane-wise
    bound; the greedy certificate supplies the initial upper bound.  The first
    optimum found is then exactly the canonical tie-break: least total, then
    lexicographically least multiplicity vector.  A parent bounds each child
    in its loop and descends only into survivors; each child counts one node.
    """
    lanes, packed, n = family.lanes, family.packed, family.chain.n
    greedy = find_additive_subcover(family)
    if greedy is None:
        return AdditiveCoverSearch(None, 0)
    bound = greedy.total_multiplicity + 1
    suffix_max = _suffixes(lanes.join, packed, 0)
    memo = {}

    def times(s, t):
        # t·s truncated at n, by doubling; the memo holds at most 4096 entries
        key, acc = (s, t), 0
        if key not in memo:
            if len(memo) >= 4096:
                memo.clear()
            while t:
                if t & 1:
                    acc = lanes.oplus(acc, s)
                s, t = lanes.oplus(s, s), t >> 1
            memo[key] = acc
        return memo[key]

    vector = [0] * len(packed)  # the multiplicities on the path
    best_vector: list[int] | None = None
    nodes = 1  # the root: its bound is positive and below the greedy total

    def descend(idx: int, total: int, residual: int) -> None:
        # residual: n less the path's sum, truncated at 0, in each lane
        nonlocal nodes, bound, best_vector
        complement, later = lanes.top - packed[idx], suffix_max[idx + 1]
        for m in range(n + 1):
            room = bound - total - m
            # the bound only falls: a child with no room and its larger siblings count as pruned
            nodes += 1 if room > 0 else n + 1 - m
            if nodes > max_nodes:
                raise ResourceLimitError(
                    "additive-cover search exceeded the node cap", limit=max_nodes, reached=max_nodes + 1
                )
            if room <= 0:
                break
            vector[idx] = m
            if not residual:
                # the all-zero continuation is the lexicographically least completion
                best_vector = vector.copy()
                bound = total + m
            # the multiples only grow: a t below room covers the residual iff room - 1 does
            elif later and lanes.leq(residual, times(later, min(room - 1, n))):
                descend(idx + 1, total + m, residual)
            residual = lanes.odot(residual, complement)
        vector[idx] = 0

    descend(0, 0, lanes.top)
    assert best_vector is not None
    certificate = CoverCertificate(tuple((e, m) for e, m in zip(family.members, best_vector) if m))
    assert is_additive_cover(certificate)
    return AdditiveCoverSearch(certificate, nodes)


class SubcoverSearch(Record):
    __slots__ = ("subcover", "nodes")
    subcover: FuzzyFamily | None
    nodes: int


def minimal_subcover_search(
    family: FuzzyFamily, *, max_nodes: int = DEFAULT_MAX_NODES
) -> SubcoverSearch:
    """Smallest subfamily whose join is the unit set.

    A subfamily covers iff every point sees the top value in some member, so
    this is exact set cover over the full-value sets.  Include-first DFS in
    canonical order returns, among the minimum-size covers, the one whose
    member index tuple is lexicographically least.
    """
    # full[i] holds the guard bit of each lane where members[i] takes the top value
    full = [*map(family.lanes.top_guards, family.packed)]
    suffix_union = _suffixes(or_, full, 0)
    suffix_best = _suffixes(max, [f.bit_count() for f in full], 0)
    everything = family.lanes.guard
    if suffix_union[0] != everything:
        return SubcoverSearch(None, 0)

    # the bound is one past the greedy size: most new points covered, canonical order on ties
    uncovered, bound = everything, 1
    while uncovered:
        uncovered &= ~max(full, key=lambda f: (f & uncovered).bit_count())
        bound += 1

    best_choice: tuple[int, ...] | None = None
    nodes = 0
    # explicit stack, exclude child pushed first: nodes are visited in the
    # preorder of the include-first recursion, at any family size
    stack = [(0, (), everything)]
    while stack:
        idx, chosen, missing = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(
                "subcover search exceeded the node cap", limit=max_nodes, reached=nodes
            )
        if not missing:
            best_choice = chosen
            bound = len(chosen)
            continue
        # the last suffix union is empty, so this also ends the search past the last member;
        # a coverable nonempty missing set makes suffix_best[idx] at least 1
        if missing & ~suffix_union[idx]:
            continue
        lb = -(-missing.bit_count() // suffix_best[idx])
        if len(chosen) + lb >= bound:
            continue
        stack.append((idx + 1, chosen, missing))
        stack.append((idx + 1, chosen + (idx,), missing & ~full[idx]))

    assert best_choice is not None
    subfamily = FuzzyFamily.of(family.carrier, family.chain, (family.members[i] for i in best_choice))
    assert is_cover(subfamily)
    return SubcoverSearch(subfamily, nodes)


# -- subbasic covers of product spaces ---------------------------------------------


class ProductSubcover(Record):
    """An additive cover of a product carrier drawn from one factor's opens."""

    __slots__ = ("factor_index", "certificate")
    factor_index: int
    certificate: CoverCertificate


def product_subbasic_subcover(
    space: "ProductSpace", entries: Sequence[tuple[int, FuzzySet]]
) -> ProductSubcover:
    """Constructive extraction of an additive cover from a subbasic cover.

    Scans the factors in order for one whose listed opens have supports
    covering that factor; for each of its points takes the canonically first
    open positive there with the least multiplicity reaching the top value,
    and pulls the compressed multiset back along the projection.  When no
    factor qualifies the input was not a cover, and the witness point with all
    listed opens vanishing is reported.
    """
    factors = space.factors
    per_factor: list[list[FuzzySet]] = [[] for _ in factors]
    for i, alpha in entries:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < len(factors):
            raise InputError(f"{i!r} is not a valid factor index")
        if alpha not in factors[i].opens:
            raise InputError("each listed set must be an open of its factor")
        per_factor[i].append(alpha)

    n = space.chain.n
    gaps = [_first_uncovered(p, f.carrier.size) for p, f in zip(per_factor, factors)]
    if None not in gaps:
        witness = space.carrier.label(space.index_of(tuple(gaps)))
        raise PreconditionError(
            f"the listed sets do not cover the product: every listed open vanishes at {witness}"
        )

    j = gaps.index(None)
    factor = factors[j]
    listed = FuzzyFamily.of(factor.carrier, factor.chain, per_factor[j])
    mults: dict[FuzzySet, int] = {}
    for x in range(factor.carrier.size):
        pick = next(a for a in listed if a.values[x] > 0)
        mults[pick] = max(mults.get(pick, 0), -(-n // pick.values[x]))

    projection = space.projections[j]
    certificate = CoverCertificate(tuple((mv_preimage(projection, a), m) for a, m in mults.items()))
    assert is_additive_cover(certificate)
    return ProductSubcover(j, certificate)
