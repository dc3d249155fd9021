"""MV-topologies on finite carriers: generation from subbases and decidable predicates.

Topologies are stored extensionally (the full family of opens), so every
predicate is a finite scan.  Generation closes the subbase under the base
operations, then joins the base members; both steps stop at the same size cap.
Validation checks closure on the join-irreducible members only: oplus, odot
and meet distribute over join, and every member is a join of them.

The hot scans (closure, the topology, base and Hausdorff checks) pack their
fuzzy sets into `core.Lanes` ints once, compute on those, and turn results back
into `FuzzySet`s only at the end; their inputs were validated when they were
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import covers as _covers
from .core import Carrier, Chain, FuzzyFamily, FuzzySet, Lanes
from .errors import InputError, ResourceLimitError

DEFAULT_MAX_OPENS = 20_000


@dataclass(frozen=True)
class Topology:
    """A carrier together with the explicit family of its open fuzzy sets."""

    carrier: Carrier
    chain: Chain
    opens: FuzzyFamily

    def __post_init__(self):
        if self.opens.carrier != self.carrier or self.opens.chain != self.chain:
            raise InputError("opens must live on the topology's carrier and chain")

    @property
    def zero(self) -> FuzzySet:
        return FuzzySet.zero(self.carrier, self.chain)

    @property
    def one(self) -> FuzzySet:
        return FuzzySet.one(self.carrier, self.chain)


def indiscrete(carrier: Carrier, chain: Chain) -> Topology:
    zero = FuzzySet.zero(carrier, chain)
    one = FuzzySet.one(carrier, chain)
    return Topology(carrier, chain, FuzzyFamily.of(carrier, chain, (zero, one)))


def crisp_discrete(carrier: Carrier, chain: Chain) -> Topology:
    """All crisp subsets, i.e. the classical discrete topology embedded at values {0, n}."""
    n = chain.n
    members = []
    for mask in range(1 << carrier.size):
        members.append(
            FuzzySet(carrier, chain, tuple(n if mask >> i & 1 else 0 for i in range(carrier.size)))
        )
    return Topology(carrier, chain, FuzzyFamily.of(carrier, chain, members))


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
    carrier, chain = subbase.carrier, subbase.chain
    lanes = Lanes(carrier.size, chain.n)
    queue: list[int] = []
    seen: set[int] = set()
    _extend(queue, seen, (lanes.pack(m.values) for m in subbase), max_size, "base")
    for i, x in enumerate(queue):
        for y in queue[: i + 1]:
            results = (lanes.oplus(x, y), lanes.odot(x, y), lanes.meet(x, y))
            _extend(queue, seen, results, max_size, "base")
    return FuzzyFamily.of(
        carrier, chain, (FuzzySet(carrier, chain, lanes.unpack(z)) for z in queue)
    )


def generate_from_subbase(subbase: FuzzyFamily, *, max_size: int = DEFAULT_MAX_OPENS) -> Topology:
    """The least topology containing the subbase: 0, 1 and every join of base members.

    Joins distribute over the base operations pointwise, so joining the base
    members is the last step.  They are taken in canonical order, which extends
    the pointwise order: a member that is a join of members below it is open by
    its turn, and only a member that is not yet open is joined with every open
    so far (Birkhoff: the join-irreducible ones generate the lattice).
    """
    carrier, chain = subbase.carrier, subbase.chain
    lanes = Lanes(carrier.size, chain.n)
    base = base_from_subbase(subbase, max_size=max_size)
    opens: list[int] = []
    seen: set[int] = set()
    _extend(opens, seen, (0, lanes.top), max_size, "topology")
    for m in base:
        b = lanes.pack(m.values)
        if b not in seen:
            # a list, not a generator: the joins are taken with the opens so far
            _extend(opens, seen, [lanes.join(t, b) for t in opens], max_size, "topology")
    members = (FuzzySet(carrier, chain, lanes.unpack(z)) for z in opens)
    return Topology(carrier, chain, FuzzyFamily.of(carrier, chain, members))


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
    lanes = Lanes(family.carrier.size, family.chain.n)
    members = [lanes.pack(m.values) for m in family]
    present = set(members)
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
                    return (
                        f"not closed under {name}: {list(lanes.unpack(a))} with "
                        f"{list(lanes.unpack(b))} gives {list(lanes.unpack(out))}"
                    )
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
    for m in candidate:
        if m not in topology.opens:
            return m
    lanes = Lanes(topology.carrier.size, topology.chain.n)
    members = [lanes.pack(m.values) for m in candidate]
    for o in topology.opens:
        x = lanes.pack(o.values)
        if lanes.join_below(members, x) != x:
            return o
    return None


def is_base(candidate: FuzzyFamily, topology: Topology) -> bool:
    """True iff the candidate is a subfamily of the opens and every open is a
    join of the candidate members below it."""
    return base_witness(candidate, topology) is None


def is_subbase(
    candidate: FuzzyFamily, topology: Topology, *, max_size: int = DEFAULT_MAX_OPENS
) -> bool:
    if any(m not in topology.opens for m in candidate):
        return False
    return generate_from_subbase(candidate, max_size=max_size).opens == topology.opens


def large_subbase_witness(family: FuzzyFamily) -> tuple[FuzzySet, int, FuzzySet] | None:
    """The first (member, multiplicity k, k-fold multiple) whose multiple is
    missing from the family, or None when the family is a large subbase.

    Multiples stabilize at the crisp support once the multiplicity reaches the
    chain resolution, so only multiplicities up to n need checking.
    """
    for m in family:
        for k in range(2, family.chain.n + 1):
            multiple = m.scaled(k)
            if multiple not in family:
                return m, k, multiple
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


def is_stone(topology: Topology) -> bool:
    """Compact, Hausdorff, and zero-dimensional."""
    return (
        _covers.is_compact(topology)
        and is_hausdorff(topology)
        and is_zero_dimensional(topology)
    )


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of the Hausdorff check: per-pair witnesses or the failing pair."""

    hausdorff: bool
    witnesses: tuple[tuple[tuple[int, int], tuple[FuzzySet, FuzzySet]], ...] = ()
    failing_pair: tuple[int, int] | None = None


def check_hausdorff(topology: Topology) -> SeparationReport:
    """Closed form of the Hausdorff check.

    U_x, the meet of the opens with full value at x, is open (a finite meet)
    and below every such open, so a pair x, y is separated iff U_x and U_y are
    disjoint, and (U_x, U_y) is then the first separating pair of opens in
    canonical order.  `oracles.naive_check_hausdorff` is the pair search.
    """
    carrier, chain = topology.carrier, topology.chain
    lanes = Lanes(carrier.size, chain.n)
    least = [lanes.top] * carrier.size
    for o in topology.opens:
        x = lanes.pack(o.values)
        for i, v in enumerate(o.values):
            if v == chain.n:
                least[i] = lanes.meet(least[i], x)
    sets = [FuzzySet(carrier, chain, lanes.unpack(u)) for u in least]
    witnesses = []
    for x in range(carrier.size):
        for y in range(x + 1, carrier.size):
            if lanes.meet(least[x], least[y]):
                return SeparationReport(False, tuple(witnesses), (x, y))
            witnesses.append(((x, y), (sets[x], sets[y])))
    return SeparationReport(True, tuple(witnesses), None)


def is_hausdorff(topology: Topology) -> bool:
    return check_hausdorff(topology).hausdorff


# -- metric-induced topologies -------------------------------------------------


@dataclass(frozen=True)
class FuzzyPoint:
    """A single-point fuzzy set, recorded as its support index and positive value."""

    support: int
    value: int


@dataclass(frozen=True)
class MetricInstance:
    """A finite metric on a carrier, with exact rational distances."""

    carrier: Carrier
    chain: Chain
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = self.carrier.size
        if len(self.dist) != k or any(len(row) != k for row in self.dist):
            raise InputError("distance matrix shape does not match the carrier")
        for i in range(k):
            if self.dist[i][i] != 0:
                raise InputError("distance matrix must have a zero diagonal")
            for j in range(k):
                d = self.dist[i][j]
                if d < 0:
                    raise InputError("distances must be nonnegative")
                if d != self.dist[j][i]:
                    raise InputError("distance matrix must be symmetric")
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if self.dist[i][l] > self.dist[i][j] + self.dist[j][l]:
                        raise InputError(
                            f"triangle inequality fails at points {i}, {j}, {l}"
                        )

    @classmethod
    def from_rows(
        cls, carrier: Carrier, chain: Chain, rows: Sequence[Sequence[Fraction | int]]
    ) -> "MetricInstance":
        return cls(carrier, chain, tuple(tuple(Fraction(d) for d in row) for row in rows))

    @property
    def diameter(self) -> Fraction:
        return max((d for row in self.dist for d in row), default=Fraction(0))


def open_ball(metric: MetricInstance, center: FuzzyPoint, radius: Fraction) -> FuzzySet:
    """The ball takes the center's value inside the radius and 0 at distance >= radius."""
    metric.chain.check(center.value)
    if center.value < 1:
        raise InputError("a fuzzy point must carry a positive value")
    if not 0 <= center.support < metric.carrier.size:
        raise InputError(f"{center.support!r} is not a valid point index")
    r = Fraction(radius)
    if r <= 0:
        raise InputError("ball radius must be positive")
    row = metric.dist[center.support]
    return FuzzySet(
        metric.carrier,
        metric.chain,
        tuple(center.value if row[y] < r else 0 for y in range(metric.carrier.size)),
    )


def default_centers(metric: MetricInstance) -> tuple[FuzzyPoint, ...]:
    """Every fuzzy point: each carrier point at each positive chain value."""
    return tuple(
        FuzzyPoint(x, v)
        for x in range(metric.carrier.size)
        for v in range(1, metric.chain.n + 1)
    )

def default_radii(metric: MetricInstance) -> tuple[Fraction, ...]:
    """The distinct positive pairwise distances plus one value past the diameter.

    Only finitely many balls are distinct, and these radii realize all of them.
    """
    positive = {d for row in metric.dist for d in row if d > 0}
    return tuple(sorted(positive | {metric.diameter + 1}))


def metric_ball_family(
    metric: MetricInstance,
    centers: Sequence[FuzzyPoint] | None = None,
    radii: Sequence[Fraction] | None = None,
) -> FuzzyFamily:
    if centers is None:
        centers = default_centers(metric)
    if radii is None:
        radii = default_radii(metric)
    balls = [open_ball(metric, c, r) for c in centers for r in radii]
    return FuzzyFamily.of(metric.carrier, metric.chain, balls)


def metric_induced(
    metric: MetricInstance,
    centers: Sequence[FuzzyPoint] | None = None,
    radii: Sequence[Fraction] | None = None,
    *,
    max_size: int = DEFAULT_MAX_OPENS,
) -> Topology:
    """The topology generated by the open balls of the metric."""
    return generate_from_subbase(metric_ball_family(metric, centers, radii), max_size=max_size)
