"""Exact arithmetic of finite Lukasiewicz chains and fuzzy sets over finite carriers.

The value scale is the chain 0, 1/n, ..., 1, stored as the integers 0..n so that
every operation stays exact and every predicate is decidable.  Fuzzy sets,
families, and point maps are immutable; all operations are pure.

`FuzzySet` is the boundary: it validates every value it is built from, and its
operations check their operands.  `Lanes` is the compute representation for
hot scans: a whole value vector packed into one int, with lane-wise operations
that trust their operands because they only ever see validated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import InputError


@dataclass(frozen=True, order=True)
class Chain:
    """The finite value chain with elements 0..n (element k stands for k/n)."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise InputError(f"chain resolution must be an integer >= 1, got {self.n!r}")

    def check(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a <= self.n:
            raise InputError(f"{a!r} is not an element of the chain 0..{self.n}")
        return a

    def _guard(self, a: int, b: int) -> None:
        # plain range checks: cheap enough for the pointwise inner loops
        if not 0 <= a <= self.n or not 0 <= b <= self.n:
            raise InputError(
                f"operands must lie in 0..{self.n}, got {a!r} and {b!r}"
            )

    def add(self, a: int, b: int) -> int:
        """Truncated sum: min(n, a + b)."""
        self._guard(a, b)
        s = a + b
        return self.n if s > self.n else s

    def mul(self, a: int, b: int) -> int:
        """Truncated product: max(0, a + b - n)."""
        self._guard(a, b)
        s = a + b - self.n
        return s if s > 0 else 0

    def meet(self, a: int, b: int) -> int:
        self._guard(a, b)
        return a if a < b else b

    def join(self, a: int, b: int) -> int:
        self._guard(a, b)
        return a if a > b else b

    def neg(self, a: int) -> int:
        """Involutive complement n - a."""
        self._guard(a, 0)
        return self.n - a

    def scaled(self, k: int, a: int) -> int:
        """k-fold truncated sum of a with itself; k <= 0 gives 0."""
        if k <= 0:
            return 0
        s = k * a
        return self.n if s > self.n else s


@dataclass(frozen=True)
class Carrier:
    """An ordered finite set of distinct point labels; index order is canonical."""

    points: tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise InputError("carrier must contain at least one point")
        if any(not isinstance(p, str) for p in self.points):
            raise InputError("carrier points must be strings")
        if len(set(self.points)) != len(self.points):
            raise InputError("carrier points must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise InputError(f"{label!r} is not a point of this carrier") from None

    def label(self, i: int) -> str:
        return self.points[i]


@dataclass(frozen=True)
class FuzzySet:
    """A map from the carrier to the chain, stored as one value per point.

    Equality is componentwise; the canonical order of fuzzy sets is the
    lexicographic order of their value vectors.
    """

    carrier: Carrier
    chain: Chain
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.carrier.size:
            raise InputError(
                f"expected {self.carrier.size} values, got {len(self.values)}"
            )
        for v in self.values:
            self.chain.check(v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, carrier: Carrier, chain: Chain, value: int) -> "FuzzySet":
        chain.check(value)
        return cls(carrier, chain, (value,) * carrier.size)

    @classmethod
    def zero(cls, carrier: Carrier, chain: Chain) -> "FuzzySet":
        return cls.constant(carrier, chain, 0)

    @classmethod
    def one(cls, carrier: Carrier, chain: Chain) -> "FuzzySet":
        return cls.constant(carrier, chain, chain.n)

    # -- pointwise operations ----------------------------------------------

    def _same_space(self, other: "FuzzySet") -> None:
        if self.carrier != other.carrier or self.chain != other.chain:
            raise InputError("fuzzy sets live on different carriers or chains")

    def _zip(self, other: "FuzzySet", op: Callable[[int, int], int]) -> "FuzzySet":
        self._same_space(other)
        return FuzzySet(
            self.carrier,
            self.chain,
            tuple(op(a, b) for a, b in zip(self.values, other.values)),
        )

    def oplus(self, other: "FuzzySet") -> "FuzzySet":
        return self._zip(other, self.chain.add)

    def odot(self, other: "FuzzySet") -> "FuzzySet":
        return self._zip(other, self.chain.mul)

    def meet(self, other: "FuzzySet") -> "FuzzySet":
        return self._zip(other, self.chain.meet)

    def join(self, other: "FuzzySet") -> "FuzzySet":
        return self._zip(other, self.chain.join)

    def complement(self) -> "FuzzySet":
        n = self.chain.n
        return FuzzySet(self.carrier, self.chain, tuple(n - v for v in self.values))

    def scaled(self, k: int) -> "FuzzySet":
        """Scalar multiple: k-fold truncated sum of the set with itself."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise InputError(f"scalar multiplicity must be an integer >= 0, got {k!r}")
        return FuzzySet(
            self.carrier, self.chain, tuple(self.chain.scaled(k, v) for v in self.values)
        )

    # -- predicates and views ------------------------------------------------

    def leq(self, other: "FuzzySet") -> bool:
        self._same_space(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    @property
    def is_one(self) -> bool:
        n = self.chain.n
        return all(v == n for v in self.values)


class Lanes:
    """The value vectors of one carrier size and chain, packed into single ints.

    This is the package's compute representation (SWAR: several lanes share one
    machine word, Lamport 1975).  Point i owns lane i, lane 0 the most
    significant, so int order is the canonical lexicographic order of value
    vectors.  A lane holds a value 0..n below one guard bit, and is wide enough
    that a lane-wise sum of two values never carries into the next lane.  The
    operations trust their operands: values are validated where they enter, by
    `FuzzySet`, and a packed result converts back to a `FuzzySet` only once.
    """

    __slots__ = ("size", "width", "shift", "guard", "top")

    def __init__(self, size: int, n: int):
        width = (2 * n).bit_length() + 1
        low = ((1 << width * size) - 1) // ((1 << width) - 1)  # lowest bit of every lane
        self.size = size
        self.width = width
        self.shift = width - 1
        self.guard = low << self.shift
        self.top = low * n

    def pack(self, values: Iterable[int]) -> int:
        x = 0
        for v in values:
            x = x << self.width | v
        return x

    def unpack(self, x: int) -> tuple[int, ...]:
        mask = (1 << self.shift) - 1
        w = self.width
        return tuple(x >> s & mask for s in range(w * (self.size - 1), -1, -w))

    # Each op below sets the guard bits of (a | guard) - b: a lane keeps its
    # guard bit iff a >= b there, and g - (g >> shift) widens the kept guard
    # bits into lane-wide select masks.

    def oplus(self, a: int, b: int) -> int:
        """Lane-wise min(a + b, n)."""
        s = a + b
        g = ((s | self.guard) - self.top) & self.guard
        return s ^ ((s ^ self.top) & (g - (g >> self.shift)))

    def odot(self, a: int, b: int) -> int:
        """Lane-wise max(a + b - n, 0)."""
        d = ((a + b) | self.guard) - self.top
        g = d & self.guard
        return d & (g - (g >> self.shift))

    def meet(self, a: int, b: int) -> int:
        g = ((a | self.guard) - b) & self.guard
        return a ^ ((a ^ b) & (g - (g >> self.shift)))

    def join(self, a: int, b: int) -> int:
        g = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (g - (g >> self.shift)))

    def leq(self, a: int, b: int) -> bool:
        """True iff a <= b in every lane."""
        return ((b | self.guard) - a) & self.guard == self.guard

    def join_below(self, members: Iterable[int], x: int) -> int:
        """The join of the members below x; 0 when none is."""
        acc = 0
        for m in members:
            if self.leq(m, x):
                acc = self.join(acc, m)
        return acc


@dataclass(frozen=True)
class PointMap:
    """A function between carriers, given by the codomain index of each point."""

    domain: Carrier
    codomain: Carrier
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.domain.size:
            raise InputError(
                f"expected {self.domain.size} image indices, got {len(self.images)}"
            )
        for i in self.images:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.codomain.size:
                raise InputError(f"{i!r} is not a valid codomain index")

    @classmethod
    def identity(cls, carrier: Carrier) -> "PointMap":
        return cls(carrier, carrier, tuple(range(carrier.size)))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def then(self, other: "PointMap") -> "PointMap":
        """Composite map: apply self first, then other."""
        if self.codomain != other.domain:
            raise InputError("maps do not compose: codomain/domain mismatch")
        return PointMap(
            self.domain, other.codomain, tuple(other.images[i] for i in self.images)
        )

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.codomain.size

    @property
    def is_bijective(self) -> bool:
        return self.is_injective and self.is_surjective

    def inverse(self) -> "PointMap":
        if not self.is_bijective:
            raise InputError("only bijective maps can be inverted")
        inv = [0] * self.codomain.size
        for x, y in enumerate(self.images):
            inv[y] = x
        return PointMap(self.codomain, self.domain, tuple(inv))


@dataclass(frozen=True)
class FuzzyFamily:
    """A duplicate-free family of fuzzy sets on one carrier, kept in canonical order.

    The family is the one place that deduplicates fuzzy sets and decides
    membership; both go by value vector, which identifies a member once its
    carrier and chain are checked.
    """

    carrier: Carrier
    chain: Chain
    members: tuple[FuzzySet, ...] = ()
    _by_values: dict[tuple[int, ...], FuzzySet] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for m in self.members:
            if m.carrier != self.carrier or m.chain != self.chain:
                raise InputError("family member lives on a different carrier or chain")
        by_values = {m.values: m for m in self.members}
        object.__setattr__(self, "_by_values", by_values)
        object.__setattr__(self, "members", tuple(by_values[v] for v in sorted(by_values)))

    @classmethod
    def of(cls, carrier: Carrier, chain: Chain, members: Iterable[FuzzySet]) -> "FuzzyFamily":
        return cls(carrier, chain, tuple(members))

    def __iter__(self) -> Iterator[FuzzySet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: FuzzySet) -> bool:
        return self._by_values.get(item.values) == item

    def with_members(self, extra: Iterable[FuzzySet]) -> "FuzzyFamily":
        return FuzzyFamily(self.carrier, self.chain, self.members + tuple(extra))

    def join(self) -> FuzzySet:
        """Pointwise maximum of the members; the empty join is the zero set."""
        out = FuzzySet.zero(self.carrier, self.chain)
        for m in self.members:
            out = out.join(m)
        return out

    def meet(self) -> FuzzySet:
        """Pointwise minimum of the members; the empty meet is the unit set."""
        out = FuzzySet.one(self.carrier, self.chain)
        for m in self.members:
            out = out.meet(m)
        return out


def mv_preimage(f: PointMap, alpha: FuzzySet) -> FuzzySet:
    """Pull a fuzzy set on the codomain back along f by composition.

    This is an MV-algebra homomorphism: it preserves the constants and all of
    the pointwise operations, including joins and meets of whole families.
    """
    if alpha.carrier != f.codomain:
        raise InputError("the set to pull back must live on the map's codomain")
    return FuzzySet(f.domain, alpha.chain, tuple(alpha.values[i] for i in f.images))


def forward_image(f: PointMap, alpha: FuzzySet) -> FuzzySet:
    """Push a fuzzy set forward: sup over each fiber, 0 on empty fibers."""
    if alpha.carrier != f.domain:
        raise InputError("the set to push forward must live on the map's domain")
    out = [0] * f.codomain.size
    for x, v in enumerate(alpha.values):
        y = f.images[x]
        if v > out[y]:
            out[y] = v
    return FuzzySet(f.codomain, alpha.chain, tuple(out))


def _order_and_op_closed(
    family: FuzzyFamily, step: int, op: Callable[[FuzzySet, FuzzySet], FuzzySet]
) -> bool:
    """Nonempty, closed under single-step moves of one value by step (-1 down,
    +1 up, within 0..n), and closed under the binary op.

    Single-step moves generate the pointwise order, so checking them one
    coordinate at a time decides full downward (upward) closure.
    """
    if len(family) == 0:
        return False
    present = family._by_values
    for m in family.members:
        for i, v in enumerate(m.values):
            if 0 <= v + step <= family.chain.n:
                moved = m.values[:i] + (v + step,) + m.values[i + 1 :]
                if moved not in present:
                    return False
    for a in family.members:
        for b in family.members:
            if op(a, b).values not in present:
                return False
    return True


def is_ideal(family: FuzzyFamily) -> bool:
    """True iff the family is nonempty, downward closed, and closed under oplus."""
    return _order_and_op_closed(family, -1, FuzzySet.oplus)


def is_filter(family: FuzzyFamily) -> bool:
    """True iff the family is nonempty, upward closed, and closed under odot."""
    return _order_and_op_closed(family, 1, FuzzySet.odot)
