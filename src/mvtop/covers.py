"""Additive covers, exact cover solvers, and term machinery.

Additive covers are finite multisets of fuzzy sets whose truncated sum is the
unit set.  Over a finite chain a multiplicity beyond the chain resolution n
never helps (scalar multiples saturate), which bounds every search to
multiplicity vectors in 0..n and is the key solver decision.  The cover and
compactness deciders live in `topology`, so that `check` runs them without
loading the solvers; of them this module imports only `has_additive_subcover`
and `is_cover` (and the private `_first_uncovered`).
"""

from __future__ import annotations

from .core import FuzzyFamily, FuzzySet, Record, _set, is_ideal, mv_preimage
from .errors import InputError, PreconditionError, ResourceLimitError
from .topology import _first_uncovered, has_additive_subcover, is_cover

DEFAULT_MAX_NODES = 1_000_000


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
        acc = _raw_sum(self.entries, self.carrier.size)
        return FuzzySet(self.carrier, self.chain, tuple(min(n, a) for a in acc))


def _raw_sum(entries, size: int) -> list[int]:
    """Pointwise sum of (member, multiplicity) entries, before truncation at n."""
    acc = [0] * size
    for member, mult in entries:
        for i, v in enumerate(member.values):
            acc[i] += mult * v
    return acc


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
    n = family.chain.n
    size = family.carrier.size
    mults: dict[FuzzySet, int] = {}
    for x in range(size):
        if _raw_sum(mults.items(), size)[x] >= n:
            continue
        # max keeps the first of equal keys: the canonically least member
        best = max((m for m in family.members if m.values[x] > 0), key=lambda m: m.values[x])
        needed = -(-n // best.values[x])  # ceil division
        mults[best] = max(mults.get(best, 0), needed)

    for member in sorted(mults, key=lambda m: m.values):
        for lower in range(mults[member]):
            if all(a >= n for a in _raw_sum({**mults, member: lower}.items(), size)):
                mults[member] = lower
                break

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
    multiplicities in increasing order, pruned by an admissible per-point
    bound; the greedy certificate supplies the initial upper bound.  The first
    optimum found is then exactly the canonical tie-break: least total, then
    lexicographically least multiplicity vector.
    """
    members = family.members
    k = len(members)
    n = family.chain.n
    size = family.carrier.size
    greedy = find_additive_subcover(family)
    if greedy is None:
        return AdditiveCoverSearch(None, 0)
    # suffix_max[idx][x]: largest value at x among members[idx:]
    suffix_max = [[0] * size for _ in range(k + 1)]
    for idx in range(k - 1, -1, -1):
        for x in range(size):
            suffix_max[idx][x] = max(suffix_max[idx + 1][x], members[idx].values[x])

    best_vector: list[int] | None = None
    bound = greedy.total_multiplicity + 1
    nodes = 0

    def lower_bound(idx: int, residual: Sequence[int]) -> int | None:
        worst = 0
        row = suffix_max[idx]
        for x in range(size):
            r = residual[x]
            if r > 0:
                m = row[x]
                if m == 0:
                    return None
                need = -(-r // m)
                if need > worst:
                    worst = need
        return worst

    def descend(idx: int, total: int, residual: list[int], chosen: list[int]) -> None:
        nonlocal nodes, bound, best_vector
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(
                "additive-cover search exceeded the node cap",
                limit=max_nodes,
                reached=nodes,
            )
        lb = lower_bound(idx, residual)
        if lb is None or total + lb >= bound:
            return
        if lb == 0:
            # the all-zero continuation is the lexicographically least completion
            best_vector = chosen + [0] * (k - idx)
            bound = total
            return
        if idx == k:
            return
        vals = members[idx].values
        for m in range(0, n + 1):
            nxt = [r - m * v for r, v in zip(residual, vals)] if m else residual
            descend(idx + 1, total + m, nxt, chosen + [m])

    descend(0, 0, [n] * size, [])
    assert best_vector is not None
    certificate = CoverCertificate(
        tuple((members[i], m) for i, m in enumerate(best_vector) if m > 0)
    )
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
    members = family.members
    k = len(members)
    n = family.chain.n
    # bit x of full[i] is set iff members[i] takes the top value at point x
    full = [sum(1 << x for x, v in enumerate(m.values) if v == n) for m in members]
    suffix_union = [0] * (k + 1)
    suffix_best = [0] * (k + 1)
    for idx in range(k - 1, -1, -1):
        suffix_union[idx] = suffix_union[idx + 1] | full[idx]
        suffix_best[idx] = max(suffix_best[idx + 1], full[idx].bit_count())
    everything = (1 << family.carrier.size) - 1
    if suffix_union[0] != everything:
        return SubcoverSearch(None, 0)

    # greedy upper bound: most new points covered, canonical order on ties
    uncovered = everything
    greedy_size = 0
    while uncovered:
        best = max(range(k), key=lambda i: (full[i] & uncovered).bit_count())
        uncovered &= ~full[best]
        greedy_size += 1

    best_choice: tuple[int, ...] | None = None
    bound = greedy_size + 1
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
        # suffix_union[k] is empty, so this also ends the search past the last member;
        # a coverable nonempty missing set makes suffix_best[idx] at least 1
        if missing & ~suffix_union[idx]:
            continue
        lb = -(-missing.bit_count() // suffix_best[idx])
        if len(chosen) + lb >= bound:
            continue
        stack.append((idx + 1, chosen, missing))
        stack.append((idx + 1, chosen + (idx,), missing & ~full[idx]))

    assert best_choice is not None
    subfamily = FuzzyFamily.of(
        family.carrier, family.chain, (members[i] for i in best_choice)
    )
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
    gaps = [_first_uncovered(per_factor[j], f.carrier.size) for j, f in enumerate(factors)]
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
        needed = -(-n // pick.values[x])
        mults[pick] = max(mults.get(pick, 0), needed)

    projection = space.projections[j]
    certificate = CoverCertificate(
        tuple((mv_preimage(projection, a), m) for a, m in mults.items())
    )
    assert is_additive_cover(certificate)
    return ProductSubcover(j, certificate)


# -- terms over {oplus, odot, meet} -------------------------------------------------

OPLUS = "oplus"
ODOT = "odot"
MEET = "meet"
VAR = "var"
_BINARY = (OPLUS, ODOT, MEET)


class Term(Record):
    """An expression tree with binary oplus/odot/meet nodes and variable leaves;
    equality, the hash and the repr go by the post-order, found without recursion."""

    __slots__ = ("op", "index", "left", "right")

    def __init__(
        self,
        op: str,
        index: int | None = None,
        left: "Term | None" = None,
        right: "Term | None" = None,
    ):
        if op == VAR:
            if index is None or index < 0 or left or right:
                raise InputError("a variable leaf needs a nonnegative index and no children")
        elif op in _BINARY:
            if left is None or right is None or index is not None:
                raise InputError(f"a {op} node needs exactly two children")
        else:
            raise InputError(f"unknown term operation {op!r}")
        _set(self, "op", op)
        _set(self, "index", index)
        _set(self, "left", left)
        _set(self, "right", right)

    @classmethod
    def var(cls, index: int) -> "Term":
        return cls(VAR, index=index)

    @classmethod
    def oplus(cls, left: "Term", right: "Term") -> "Term":
        return cls(OPLUS, left=left, right=right)

    @classmethod
    def odot(cls, left: "Term", right: "Term") -> "Term":
        return cls(ODOT, left=left, right=right)

    @classmethod
    def meet(cls, left: "Term", right: "Term") -> "Term":
        return cls(MEET, left=left, right=right)

    @property
    def length(self) -> int:
        return len(_subterms(self))

    @property
    def arity(self) -> int:
        return 1 + max(node.index for node in _subterms(self) if node.op == VAR)

    def _signature(self) -> tuple[tuple[str, int | None], ...]:
        # every arity is fixed, so the post-order of (op, index) determines the tree
        return tuple((node.op, node.index) for node in _subterms(self))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Term) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        """Postfix notation, e.g. Term(x0 x1 oplus) for Term.oplus(Term.var(0), Term.var(1))."""
        return f"Term({' '.join(f'x{i}' if op == VAR else op for op, i in self._signature())})"


def _subterms(term: Term) -> list[Term]:
    """Every node of the term tree, children before parents, from a walk on an
    explicit stack, so a deep term does not hit the recursion limit."""
    order, stack = [], [term]
    while stack:
        node = stack.pop()
        order.append(node)
        if node.op != VAR:
            stack += (node.left, node.right)
    return order[::-1]


def _subterm_values(term: Term, args: Sequence[FuzzySet]) -> dict[int, FuzzySet]:
    """The value of every subterm with the pointwise chain operations, keyed by
    node identity (hashing every node would cost O(n²)), from one post-order pass."""
    if term.arity > len(args):
        raise InputError(
            f"term uses {term.arity} variables but only {len(args)} arguments were given"
        )
    first = args[0]
    for a in args[1:]:
        first._same_space(a)
    values: dict[int, FuzzySet] = {}
    for node in _subterms(term):
        if node.op == VAR:
            value = args[node.index]
        else:
            lhs, rhs = values[id(node.left)], values[id(node.right)]
            if node.op == OPLUS:
                value = lhs.oplus(rhs)
            elif node.op == ODOT:
                value = lhs.odot(rhs)
            else:
                value = lhs.meet(rhs)
        values[id(node)] = value
    return values


def eval_term(term: Term, args: Sequence[FuzzySet]) -> FuzzySet:
    """Evaluate the term with the pointwise chain operations."""
    return _subterm_values(term, args)[id(term)]


def term_witness(
    term: Term, args: Sequence[FuzzySet], point: int, family: FuzzyFamily
) -> int:
    """Descend the term to a variable that is in the family and positive at the point.

    At an oplus node both subterm values lie in the ideal (downward closure),
    so the descent follows a side positive at the point; at odot/meet nodes
    both sides are positive there and the descent follows a side whose value
    is in the family, preferring the left one.  A multiplicative node where
    neither side lies in the family is outside this operation's domain: that
    decomposition property belongs to maximal covers, not to every ideal.
    Every subterm is evaluated once, before the descent.
    """
    if not is_ideal(family):
        raise PreconditionError("the family is not an ideal")
    values = _subterm_values(term, args)
    value = values[id(term)]
    if not 0 <= point < value.carrier.size:
        raise InputError(f"{point!r} is not a valid point index")
    if value not in family:
        raise PreconditionError("the term value is not a member of the ideal")
    if value.values[point] == 0:
        raise PreconditionError("the term value vanishes at the given point")

    node = term
    while node.op != VAR:
        left_value = values[id(node.left)]
        right_value = values[id(node.right)]
        if node.op == OPLUS:
            node = node.left if left_value.values[point] > 0 else node.right
        else:
            if left_value in family:
                node = node.left
            elif right_value in family:
                node = node.right
            else:
                raise PreconditionError(
                    f"neither side of a {node.op} node lies in the ideal; "
                    "the descent needs the maximal-cover decomposition property"
                )
    j = node.index
    assert args[j] in family and args[j].values[point] > 0
    return j
