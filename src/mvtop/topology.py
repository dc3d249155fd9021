"""MV-topologies on finite carriers: generation from subbases and decidable predicates.

Topologies are stored extensionally (the full family of opens), so every
predicate is a finite scan.  Generation closes the subbase under the base
operations, then joins the base members; both steps stop at the same size cap.
Validation checks closure on the join-irreducible members only: oplus, odot
and meet distribute over join, and every member is a join of them.

The hot scans (closure, the topology, base and Hausdorff checks) compute on
the ints a `FuzzyFamily` packs its members into, and return families of ints
whose members are built only when asked for.  Their inputs were validated when
they were built, so those results are valid by construction, unchecked.
"""

from __future__ import annotations

from .core import Carrier, Chain, FuzzyFamily, FuzzySet, Record
from .errors import ResourceLimitError

DEFAULT_MAX_OPENS = 20_000


class Topology(Record):
    """The explicit family of open fuzzy sets, which holds the carrier and chain;
    equality and the hash are spelled out, as the suites' memo compares them."""

    __slots__ = ("opens",)

    @property
    def carrier(self) -> Carrier:
        return self.opens.carrier

    @property
    def chain(self) -> Chain:
        return self.opens.chain

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.opens == other.opens

    def __hash__(self):
        return hash((self.opens,))


def indiscrete(carrier: Carrier, chain: Chain) -> Topology:
    zero = FuzzySet.zero(carrier, chain)
    one = FuzzySet.one(carrier, chain)
    return Topology(FuzzyFamily.of(carrier, chain, (zero, one)))


def crisp_discrete(carrier: Carrier, chain: Chain) -> Topology:
    """All crisp subsets, i.e. the classical discrete topology embedded at values {0, n}."""
    size, cap = 1 << carrier.size, DEFAULT_MAX_OPENS
    if size > cap:
        raise ResourceLimitError("crisp discrete topology exceeds the size cap", limit=cap, reached=size)
    n = chain.n
    members = []
    for mask in range(size):
        values = tuple(n if mask >> i & 1 else 0 for i in range(carrier.size))
        members.append(FuzzySet._trusted(carrier, chain, values))
    return Topology(FuzzyFamily.of(carrier, chain, members))


def _extend(queue: list[int], seen: set[int], new: Iterable[int], cap: int, what: str) -> None:
    """Append the values of new not yet seen; the one that takes a closure past
    its cap raises, so a cap error always reads one past the cap."""
    for z in new:
        if z not in seen:
            seen.add(z)
            if len(seen) > cap:
                raise ResourceLimitError(
                    f"{what} closure exceeded the size cap", limit=cap, reached=len(seen)
                )
            queue.append(z)


def base_from_subbase(subbase: FuzzyFamily, *, max_size: int = DEFAULT_MAX_OPENS) -> FuzzyFamily:
    """Least family containing the subbase and closed under oplus, odot, and meet.

    Semi-naive order: each member taken from the queue is combined only with
    the members taken before it and with itself.
    """
    lanes = subbase.lanes
    queue: list[int] = []
    seen: set[int] = set()
    _extend(queue, seen, subbase.packed, max_size, "base")
    for i, x in enumerate(queue):
        for y in queue[: i + 1]:
            results = (lanes.oplus(x, y), lanes.odot(x, y), lanes.meet(x, y))
            _extend(queue, seen, results, max_size, "base")
    return FuzzyFamily._from_packed(subbase.carrier, subbase.chain, lanes, queue)


def generate_from_subbase(subbase: FuzzyFamily, *, max_size: int = DEFAULT_MAX_OPENS) -> Topology:
    """The least topology containing the subbase: 0, 1 and every join of base members.

    Joins distribute over the base operations pointwise, so joining the base
    members is the last step.  They are taken in canonical order, which extends
    the pointwise order: a member that is a join of members below it is open by
    its turn, and only a member that is not yet open is joined with every open
    so far (Birkhoff: the join-irreducible ones generate the lattice).
    """
    base = base_from_subbase(subbase, max_size=max_size)
    lanes = base.lanes
    opens: list[int] = []
    seen: set[int] = set()
    _extend(opens, seen, (0, lanes.top), max_size, "topology")
    for b in base.packed:
        if b not in seen:
            # a list, not a generator: the joins are taken with the opens so far
            _extend(opens, seen, [lanes.join(t, b) for t in opens], max_size, "topology")
    return Topology(FuzzyFamily._from_packed(subbase.carrier, subbase.chain, lanes, opens))


def topology_violation(family: FuzzyFamily) -> str | None:
    """The first failed closure condition found, described, or None when the
    family is a topology.

    Closure is decided on the join-irreducible members J.  Int order extends
    the pointwise order, so one canonical pass finds J: a member is in J iff
    the J-members below it do not join to it, and every member is the join of
    the J-members below it.  Pointwise on a chain, oplus, odot and meet
    distribute over join, so the family is closed iff x join j is present for
    every member x and j in J, and j oplus j', j odot j' and j meet j' are
    present for all j, j' in J: O(|F|·|J| + |J|²).
    """
    lanes, members, present = family.lanes, family.packed, family.present
    if 0 not in present:
        return "the zero set is missing"
    if lanes.top not in present:
        return "the unit set is missing"
    irreducible: list[int] = []
    for j in members:
        if lanes.join_below(irreducible, j) == j:
            continue
        # j is join-irreducible: join it with every member, combine it with J
        irreducible.append(j)
        for name, op, others in (
            ("join", lanes.join, members),
            ("oplus", lanes.oplus, irreducible),
            ("odot", lanes.odot, irreducible),
            ("meet", lanes.meet, irreducible),
        ):
            for x in others:
                out = op(x, j)
                if out not in present:
                    a, b = sorted((x, j))
                    a, b, out = (list(family.set_of(z).values) for z in (a, b, out))
                    return f"not closed under {name}: {a} with {b} gives {out}"
    return None


def is_topology(family: FuzzyFamily) -> bool:
    """Check the defining closure conditions directly on the finite family."""
    return topology_violation(family) is None


def base_witness(candidate: FuzzyFamily, topology: Topology) -> FuzzySet | None:
    """Why the candidate is not a base of the topology, or None when it is one.

    The witness is the first candidate member that is not open, else the first
    open, in canonical order, that is not the join of the candidate members
    below it.
    """
    opens = topology.opens
    for m in candidate:
        if m not in opens:
            return m
    for x in opens.packed:
        if opens.lanes.join_below(candidate.packed, x) != x:
            return opens.set_of(x)
    return None


def is_base(candidate: FuzzyFamily, topology: Topology) -> bool:
    """True iff the candidate is a subfamily of the opens and every open is a
    join of the candidate members below it."""
    return base_witness(candidate, topology) is None


def is_subbase(candidate: FuzzyFamily, topology: Topology) -> bool:
    if any(m not in topology.opens for m in candidate):
        return False
    return generate_from_subbase(candidate).opens == topology.opens


def large_subbase_witness(family: FuzzyFamily) -> tuple[FuzzySet, int, FuzzySet] | None:
    """The first (member, multiplicity k, k-fold multiple) whose multiple is
    missing from the family, or None when the family is a large subbase.

    A member's multiples stop changing at its crisp support, by multiplicity n.
    """
    for m in family:
        previous = m
        for k in range(2, family.chain.n + 1):
            multiple = m.scaled(k)
            if multiple == previous:
                break
            if multiple not in family:
                return m, k, multiple
            previous = multiple
    return None


def is_large_subbase(family: FuzzyFamily) -> bool:
    """True iff the family contains every scalar multiple of each member."""
    return large_subbase_witness(family) is None


def closed_sets(topology: Topology) -> FuzzyFamily:
    return FuzzyFamily.of(
        topology.carrier, topology.chain, (o.complement() for o in topology.opens)
    )


def clopens(topology: Topology) -> FuzzyFamily:
    """The opens whose complement is open too."""
    opens = topology.opens
    return FuzzyFamily.of(
        topology.carrier, topology.chain, (o for o in opens if o.complement() in opens)
    )


def is_zero_dimensional(topology: Topology) -> bool:
    """True iff the clopen sets form a base of the topology."""
    return is_base(clopens(topology), topology)


# -- covers and compactness: the deciders `check` runs; the solvers are in `covers`


def _first_uncovered(members: Sequence[FuzzySet], size: int) -> int | None:
    """The first point where every member vanishes, or None when the supports cover."""
    return next((x for x in range(size) if not any(m.values[x] for m in members)), None)


def is_cover(family: FuzzyFamily) -> bool:
    """True iff the join of the family is the unit set."""
    return family.join().is_one


def has_additive_subcover(family: FuzzyFamily) -> bool:
    """Finite-model criterion: a certificate exists iff the supports cover the carrier."""
    return _first_uncovered(family.members, family.carrier.size) is None


def is_compact(topology: Topology) -> bool:
    """Decide compactness via the finite-model criterion.

    Every open cover attains the top value at each point, so its supports
    cover the carrier and the criterion yields an additive subcover; every
    finite space over a finite chain is therefore compact.  The brute-force
    cross-check lives in the oracles module.
    """
    return has_additive_subcover(topology.opens)


def is_strongly_compact(topology: Topology) -> bool:
    """Every open cover of a finite space is itself a finite subcover."""
    return is_cover(topology.opens)


def is_stone(topology: Topology) -> bool:
    """Compact, Hausdorff, and zero-dimensional."""
    return (
        is_compact(topology)
        and is_hausdorff(topology)
        and is_zero_dimensional(topology)
    )


class SeparationReport(Record):
    """Outcome of the Hausdorff check: per-pair witnesses or the failing pair."""

    __slots__ = ("hausdorff", "witnesses", "failing_pair")
    hausdorff: bool
    witnesses: tuple[tuple[tuple[int, int], tuple[FuzzySet, FuzzySet]], ...]
    failing_pair: tuple[int, int] | None


def check_hausdorff(topology: Topology) -> SeparationReport:
    """Closed form of the Hausdorff check.

    U_x, the meet of the opens with full value at x, is open (a finite meet)
    and below every such open, so a pair x, y is separated iff U_x and U_y are
    disjoint, and (U_x, U_y) is then the first separating pair of opens in
    canonical order.  `oracles.naive_check_hausdorff` is the pair search.
    """
    opens, size, lanes = topology.opens, topology.carrier.size, topology.opens.lanes
    least = [lanes.top] * size
    for x in opens.packed:
        for i in lanes.at_top(x):
            least[i] = lanes.meet(least[i], x)
    sets = [opens.set_of(u) for u in least]
    witnesses = []
    for x in range(size):
        for y in range(x + 1, size):
            if lanes.meet(least[x], least[y]):
                return SeparationReport(False, tuple(witnesses), (x, y))
            witnesses.append(((x, y), (sets[x], sets[y])))
    return SeparationReport(True, tuple(witnesses), None)


def is_hausdorff(topology: Topology) -> bool:
    return check_hausdorff(topology).hausdorff
