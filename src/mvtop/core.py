"""Exact arithmetic of finite Lukasiewicz chains and fuzzy sets over finite carriers.

The value scale is the chain 0, 1/n, ..., 1, stored as the integers 0..n so that
every operation stays exact and every predicate is decidable.  Fuzzy sets,
families, and point maps are immutable; all operations are pure.

`FuzzySet` is the boundary: its constructor validates every value it is
given, so each value is checked once, where it enters.  A result computed from
sets already checked (an operation, a complement, a multiple, a preimage, the
constant sets, a vector unpacked from lanes) is valid by construction and is
built by `FuzzySet._trusted`, which checks nothing.
`Lanes` is the compute representation: a whole value vector packed into one
int, with lane-wise operations that trust their operands for the same reason.
A `FuzzyFamily` stores its members so, and is the only place that packs or
unpacks them.

The value classes are `Record`s: plain `__slots__` classes whose positional
constructor, equality, hash, repr and immutability are written once, in
`Record`, so that no class is generated at import; importing costs a command
more than most of its computation does.  Every `Record` takes its fields by
position and nothing else: no keyword and no default.  The classes built in hot
loops (`Chain`, `Carrier`, `FuzzySet`, `FuzzyFamily`) spell out their own
`__init__`, `__eq__` and `__hash__`.
"""

from __future__ import annotations

from .errors import InputError

_set = object.__setattr__  # how a Record writes its own fields
_new = object.__new__  # how a trusted constructor makes an instance without __init__


class Record:
    """An immutable value: the fields are the `__slots__`, in order.

    The constructor takes every field by position, and nothing else, then runs
    `__post_init__`.  Equality (only within one class) and the hash go by the
    fields, the repr is `Name(field=value, ...)`, and assigning or deleting a
    field raises `AttributeError`.  Copies and pickles are rebuilt by the
    constructor from `_astuple()`.
    """

    __slots__ = ()

    def __init__(self, *args):
        fields = self.__slots__
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments, got {len(args)}")
        for field, value in zip(fields, args):
            _set(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple([getattr(self, field) for field in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Chain(Record):
    """The finite value chain with elements 0..n (element k stands for k/n)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"chain resolution must be an integer >= 1, got {n!r}")
        _set(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n,) == (other.n,)

    def __hash__(self):
        return hash((self.n,))

    def check(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a <= self.n:
            raise InputError(f"{a!r} is not an element of the chain 0..{self.n}")
        return a

    # The operations check their operands' range inline, a plain comparison
    # chain that costs no call in the pointwise inner loops; only a failing
    # check calls `_out_of_range` for its error.

    def _out_of_range(self, a: int, b: int) -> InputError:
        return InputError(f"operands must lie in 0..{self.n}, got {a!r} and {b!r}")

    def add(self, a: int, b: int) -> int:
        """Truncated sum: min(n, a + b)."""
        n = self.n
        if not (0 <= a <= n and 0 <= b <= n):
            raise self._out_of_range(a, b)
        s = a + b
        return n if s > n else s

    def mul(self, a: int, b: int) -> int:
        """Truncated product: max(0, a + b - n)."""
        n = self.n
        if not (0 <= a <= n and 0 <= b <= n):
            raise self._out_of_range(a, b)
        s = a + b - n
        return s if s > 0 else 0

    def meet(self, a: int, b: int) -> int:
        n = self.n
        if not (0 <= a <= n and 0 <= b <= n):
            raise self._out_of_range(a, b)
        return a if a < b else b

    def join(self, a: int, b: int) -> int:
        n = self.n
        if not (0 <= a <= n and 0 <= b <= n):
            raise self._out_of_range(a, b)
        return a if a > b else b

    def neg(self, a: int) -> int:
        """Involutive complement n - a."""
        if not 0 <= a <= self.n:
            raise self._out_of_range(a, 0)
        return self.n - a

    def scaled(self, k: int, a: int) -> int:
        """k-fold truncated sum of a with itself; k <= 0 gives 0."""
        n = self.n
        if not 0 <= a <= n:
            raise self._out_of_range(a, 0)
        if k <= 0:
            return 0
        s = k * a
        return n if s > n else s


class Carrier(Record):
    """An ordered finite set of distinct point labels; index order is canonical."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[str, ...]):
        if not points:
            raise InputError("carrier must contain at least one point")
        if any(not isinstance(p, str) for p in points):
            raise InputError("carrier points must be strings")
        if len(set(points)) != len(points):
            raise InputError("carrier points must be pairwise distinct")
        _set(self, "points", points)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points,) == (other.points,)

    def __hash__(self):
        return hash((self.points,))

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


class FuzzySet(Record):
    """A map from the carrier to the chain, stored as one value per point.

    Equality is componentwise; the canonical order of fuzzy sets is the
    lexicographic order of their value vectors.
    """

    __slots__ = ("carrier", "chain", "values")

    def __init__(self, carrier: Carrier, chain: Chain, values: tuple[int, ...]):
        _set(self, "carrier", carrier)
        _set(self, "chain", chain)
        _set(self, "values", values)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.chain, self.values) == (other.carrier, other.chain, other.values)

    def __hash__(self):
        return hash((self.carrier, self.chain, self.values))

    def __post_init__(self):
        values, n = self.values, self.chain.n
        if len(values) != self.carrier.size:
            raise InputError(f"expected {self.carrier.size} values, got {len(values)}")
        for v in values:
            if type(v) is not int or not 0 <= v <= n:
                self.chain.check(v)  # raises, unless v is an int subclass in range

    @classmethod
    def _trusted(cls, carrier: Carrier, chain: Chain, values: tuple[int, ...]) -> FuzzySet:
        """A set whose values are valid by construction: nothing is checked."""
        s = _new(cls)
        _set(s, "carrier", carrier)
        _set(s, "chain", chain)
        _set(s, "values", values)
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, carrier: Carrier, chain: Chain) -> "FuzzySet":
        return cls._trusted(carrier, chain, (0,) * carrier.size)

    @classmethod
    def one(cls, carrier: Carrier, chain: Chain) -> "FuzzySet":
        return cls._trusted(carrier, chain, (chain.n,) * carrier.size)

    # -- pointwise operations ----------------------------------------------

    def _same_space(self, other: FuzzySet) -> None:
        if other.carrier is self.carrier and other.chain is self.chain:
            return
        if self.carrier != other.carrier or self.chain != other.chain:
            raise InputError("fuzzy sets live on different carriers or chains")

    def _zip(self, other: FuzzySet, op: Callable[[int, int], int]) -> FuzzySet:
        self._same_space(other)
        return FuzzySet._trusted(self.carrier, self.chain, tuple(map(op, self.values, other.values)))

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
        return FuzzySet._trusted(self.carrier, self.chain, tuple(n - v for v in self.values))

    def scaled(self, k: int) -> "FuzzySet":
        """Scalar multiple: k-fold truncated sum of the set with itself."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise InputError(f"scalar multiplicity must be an integer >= 0, got {k!r}")
        scale = self.chain.scaled
        return FuzzySet._trusted(self.carrier, self.chain, tuple(scale(k, v) for v in self.values))

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

    def at_top(self, x: int) -> list[int]:
        """The lanes where x holds n: those keeping their guard bit in (x | guard) - top."""
        g = ((x | self.guard) - self.top) & self.guard
        last = self.width * (self.size - 1) + self.shift  # lane 0's guard bit
        return [i for i in range(self.size) if g >> last - self.width * i & 1]

    def join_below(self, members: Iterable[int], x: int) -> int:
        """The join of the members below x; 0 when none is."""
        acc = 0
        for m in members:
            if self.leq(m, x):
                acc = self.join(acc, m)
        return acc


_LANES: dict[tuple[int, int], Lanes] = {}


def _lanes(size: int, n: int) -> Lanes:
    """The `Lanes` of one carrier size and chain, built once: it depends on nothing else."""
    lanes = _LANES.get((size, n))
    if lanes is None:
        lanes = _LANES[size, n] = Lanes(size, n)
    return lanes


class PointMap(Record):
    """A function between carriers, given by the codomain index of each point."""

    __slots__ = ("domain", "codomain", "images")
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

    def then(self, other: "PointMap") -> "PointMap":
        """Composite map: apply self first, then other."""
        if self.codomain != other.domain:
            raise InputError("maps do not compose: codomain/domain mismatch")
        return PointMap(
            self.domain, other.codomain, tuple(other.images[i] for i in self.images)
        )

    @property
    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.images) == self.codomain.size

    def inverse(self) -> "PointMap":
        if not self.is_bijective:
            raise InputError("only bijective maps can be inverted")
        inv = [0] * self.codomain.size
        for x, y in enumerate(self.images):
            inv[y] = x
        return PointMap(self.codomain, self.domain, tuple(inv))


class FuzzyFamily(Record):
    """A duplicate-free family of fuzzy sets on one carrier, kept in canonical order.

    The members are stored packed by `lanes`: `packed` holds the distinct ints
    in increasing (canonical) order and `present` is their frozenset.  The
    family is the one place that deduplicates fuzzy sets, decides membership
    and converts between sets and ints.  `members` is built from `packed` on
    first use, unless the family was built from sets, which it keeps.  Equality
    goes by the ints; the hash, the repr and pickles go by the members.
    """

    __slots__ = ("carrier", "chain", "lanes", "packed", "present", "_members")

    def __init__(self, carrier: Carrier, chain: Chain, members: Iterable[FuzzySet]):
        lanes = _lanes(carrier.size, chain.n)
        by_packed = {}
        for m in members:
            if m.carrier is not carrier or m.chain is not chain:
                if m.carrier != carrier or m.chain != chain:
                    raise InputError("family member lives on a different carrier or chain")
            by_packed[lanes.pack(m.values)] = m
        self._fill(carrier, chain, lanes, by_packed)
        _set(self, "_members", tuple([by_packed[x] for x in self.packed]))

    @classmethod
    def _from_packed(cls, carrier: Carrier, chain: Chain, lanes: Lanes, packed: Iterable[int]) -> FuzzyFamily:
        """The family of distinct ints packed by `lanes`, in any order: nothing is checked."""
        family = _new(cls)
        family._fill(carrier, chain, lanes, packed)
        return family

    def _fill(self, carrier: Carrier, chain: Chain, lanes: Lanes, packed: Iterable[int]) -> None:
        packed = tuple(sorted(packed))
        values = (carrier, chain, lanes, packed, frozenset(packed), None)
        for field, value in zip(self.__slots__, values):
            _set(self, field, value)

    @property
    def members(self) -> tuple[FuzzySet, ...]:
        if self._members is None:
            _set(self, "_members", tuple([self.set_of(x) for x in self.packed]))
        return self._members

    def set_of(self, x: int) -> FuzzySet:
        """The fuzzy set on the family's carrier and chain that packs to x."""
        return FuzzySet._trusted(self.carrier, self.chain, self.lanes.unpack(x))

    def _astuple(self) -> tuple:
        return self.carrier, self.chain, self.members

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.chain, self.packed) == (other.carrier, other.chain, other.packed)

    def __hash__(self):
        return hash((self.carrier, self.chain, self.members))

    def __repr__(self):
        return f"FuzzyFamily(carrier={self.carrier!r}, chain={self.chain!r}, members={self.members!r})"

    @classmethod
    def of(cls, carrier: Carrier, chain: Chain, members: Iterable[FuzzySet]) -> "FuzzyFamily":
        return cls(carrier, chain, members)

    def __iter__(self) -> Iterator[FuzzySet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.packed)

    def __contains__(self, item: FuzzySet) -> bool:
        if item.carrier is not self.carrier or item.chain is not self.chain:
            if item.carrier != self.carrier or item.chain != self.chain:
                return False
        return self.lanes.pack(item.values) in self.present

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
    if alpha.carrier is not f.codomain and alpha.carrier != f.codomain:
        raise InputError("the set to pull back must live on the map's codomain")
    return FuzzySet._trusted(f.domain, alpha.chain, tuple(map(alpha.values.__getitem__, f.images)))
