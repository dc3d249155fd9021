"""Topologies induced by finite metrics: the open balls of fuzzy points.

Distances and radii are exact rationals, so this is the one module that needs
`fractions`.  Balls are made one at a time, center-major, and gathered in one
place, `metric_ball_family`, so its cap stops both the ball family and
`metric_induced` as soon as the distinct balls exceed it.  The metric
document, whose rationals are written as integers or "p/q" strings, is read
and written here: only the `metric` command uses it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Carrier, Chain, FuzzyFamily, FuzzySet, Record
from .documents import _named, _parse_header, _parse_name, _require_int, _require_keys
from .errors import InputError
from .topology import DEFAULT_MAX_OPENS, Topology, _extend, generate_from_subbase


class FuzzyPoint(Record):
    """A single-point fuzzy set, recorded as its support index and positive value."""

    __slots__ = ("support", "value")
    support: int
    value: int


class MetricInstance(Record):
    """A finite metric on a carrier, with exact rational distances."""

    __slots__ = ("carrier", "chain", "dist")
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

    @property
    def diameter(self) -> Fraction:
        return max((d for row in self.dist for d in row), default=Fraction(0))


def _check_center(metric: MetricInstance, center: FuzzyPoint) -> None:
    metric.chain.check(center.value)
    if center.value < 1:
        raise InputError("a fuzzy point must carry a positive value")
    if not 0 <= center.support < metric.carrier.size:
        raise InputError(f"{center.support!r} is not a valid point index")


def _radius(radius: Fraction) -> Fraction:
    r = Fraction(radius)
    if r <= 0:
        raise InputError("ball radius must be positive")
    return r


def _ball(metric: MetricInstance, center: FuzzyPoint, r: Fraction) -> tuple[int, ...]:
    row = metric.dist[center.support]
    return tuple(center.value if row[y] < r else 0 for y in range(metric.carrier.size))


def open_ball(metric: MetricInstance, center: FuzzyPoint, radius: Fraction) -> FuzzySet:
    """The ball takes the center's value inside the radius and 0 at distance >= radius."""
    _check_center(metric, center)
    return FuzzySet._trusted(metric.carrier, metric.chain, _ball(metric, center, _radius(radius)))


def default_centers(metric: MetricInstance) -> Iterator[FuzzyPoint]:
    """Every fuzzy point, one at a time: each carrier point at each positive chain value."""
    for x in range(metric.carrier.size):
        for v in range(1, metric.chain.n + 1):
            yield FuzzyPoint(x, v)


def default_radii(metric: MetricInstance) -> tuple[Fraction, ...]:
    """The distinct positive pairwise distances plus one value past the diameter.

    Only finitely many balls are distinct, and these radii realize all of them.
    """
    positive = {d for row in metric.dist for d in row if d > 0}
    return tuple(sorted(positive | {metric.diameter + 1}))


def _balls(
    metric: MetricInstance,
    centers: Sequence[FuzzyPoint] | None,
    radii: Sequence[Fraction] | None,
) -> Iterator[tuple[int, ...]]:
    """The value vector of every ball, center-major, made one at a time.

    Explicit centers and radii are checked before the first ball is made, even
    when the other list is empty, and the error raised is the first that
    `open_ball` would meet in center-major order: the first center's, then the
    radii's, then the other centers'.  The default centers are valid.
    """
    if radii is None:
        radii = default_radii(metric)
    if centers is None:
        centers = default_centers(metric)
        radii = [_radius(r) for r in radii]
    else:
        if centers:
            _check_center(metric, centers[0])
        radii = [_radius(r) for r in radii]
        for c in centers[1:]:
            _check_center(metric, c)
    for c in centers:
        for r in radii:
            yield _ball(metric, c, r)


def metric_ball_family(
    metric: MetricInstance,
    centers: Sequence[FuzzyPoint] | None = None,
    radii: Sequence[Fraction] | None = None,
    *,
    max_size: int = DEFAULT_MAX_OPENS,
) -> FuzzyFamily:
    """The distinct open balls, center-major; the one that takes them past
    max_size raises the base closure's cap error at once."""
    balls: list[tuple[int, ...]] = []
    _extend(balls, set(), _balls(metric, centers, radii), max_size, "base")
    carrier, chain = metric.carrier, metric.chain
    return FuzzyFamily.of(carrier, chain, (FuzzySet._trusted(carrier, chain, v) for v in balls))


def metric_induced(
    metric: MetricInstance,
    centers: Sequence[FuzzyPoint] | None = None,
    radii: Sequence[Fraction] | None = None,
    *,
    max_size: int = DEFAULT_MAX_OPENS,
) -> Topology:
    """The topology generated by the open balls of the metric, under one cap."""
    balls = metric_ball_family(metric, centers, radii, max_size=max_size)
    return generate_from_subbase(balls, max_size=max_size)


# -- metric documents -----------------------------------------------------------


def parse_rational(value: object, what: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{what} must be an integer or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{what} is not a valid rational: {value!r}") from None
    raise InputError(f"{what} must be an integer or 'p/q' string, got {value!r}")


def render_rational(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class MetricDocument(Record):
    """A finite metric with optional explicit ball centers and radii."""

    __slots__ = ("metric", "centers", "radii", "name")
    metric: MetricInstance
    centers: tuple[FuzzyPoint, ...] | None
    radii: tuple[Fraction, ...] | None
    name: str | None


def parse_metric_document(obj: object) -> MetricDocument:
    _require_keys(obj, {"chain", "points", "dist"}, {"name", "centers", "radii"}, "metric document")
    chain, carrier = _parse_header(obj, "metric document")
    rows = obj["dist"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("dist must be a matrix of rationals")
    metric = MetricInstance(
        carrier,
        chain,
        tuple(tuple(parse_rational(d, "distance") for d in row) for row in rows),
    )
    centers = None
    if "centers" in obj:
        raw = obj["centers"]
        if not isinstance(raw, list):
            raise InputError("centers must be a list of [label, value] pairs")
        parsed = []
        for pair in raw:
            if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
                raise InputError("each center must be a [label, value] pair")
            parsed.append(
                FuzzyPoint(carrier.index(pair[0]), _require_int(pair[1], "center value"))
            )
        centers = tuple(parsed)
    radii = None
    if "radii" in obj:
        raw = obj["radii"]
        if not isinstance(raw, list):
            raise InputError("radii must be a list of rationals")
        radii = tuple(parse_rational(r, "radius") for r in raw)
    return MetricDocument(metric, centers, radii, _parse_name(obj))


def metric_document_to_obj(doc: MetricDocument) -> dict:
    out = _named(doc)
    out["chain"] = doc.metric.chain.n
    out["points"] = list(doc.metric.carrier.points)
    out["dist"] = [[render_rational(d) for d in row] for row in doc.metric.dist]
    if doc.centers is not None:
        out["centers"] = [
            [doc.metric.carrier.label(c.support), c.value] for c in doc.centers
        ]
    if doc.radii is not None:
        out["radii"] = [render_rational(r) for r in doc.radii]
    return out
