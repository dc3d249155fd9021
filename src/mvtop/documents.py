"""JSON document formats for the command-line front end.

Every JSON file, a CLI input or a space reference, is read by `read_document`,
and all JSON is decoded by `loads_document`; each failure, a key given twice in
one object too, is one `InputError` naming its input.  Family documents are
`SpaceDocument`s of kind "family".  A document record is built with every
field given, the absent `name` as None and the absent caps as `{}`.
Documents are exact: integer chain values only, and rationals written as
integers or "p/q" strings.  Serialization is canonical, so identical inputs
produce byte-identical outputs and parse/serialize round-trips are the
identity.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import Carrier, Chain, FuzzyFamily, FuzzySet, PointMap, Record
from .errors import InputError

_CAP_KEYS = {"max_opens"}


def _require_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _require_keys(obj: object, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"a {what} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise InputError(f"{what} is missing fields: {', '.join(sorted(missing))}")
    unknown = keys - required - optional
    if unknown:
        raise InputError(f"{what} has unknown fields: {', '.join(sorted(unknown))}")


def _parse_header(obj: dict, what: str) -> tuple[Chain, Carrier]:
    chain = Chain(obj["chain"])
    points = obj["points"]
    if not isinstance(points, list):  # Carrier would take a string's characters
        raise InputError(f"{what} points must be a list of strings")
    return chain, Carrier(tuple(points))


def _parse_name(obj: dict) -> str | None:
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("name must be a string")
    return name


def _named(doc: SpaceDocument | MapDocument | MetricDocument) -> dict[str, object]:
    return {} if doc.name is None else {"name": doc.name}


def _parse_vectors(raw: object, carrier: Carrier, chain: Chain, what: str) -> FuzzyFamily:
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list of value vectors")
    members = []
    for vec in raw:
        if not isinstance(vec, list):
            raise InputError(f"{what} entries must be lists of integers")
        members.append(FuzzySet(carrier, chain, tuple(vec)))
    return FuzzyFamily.of(carrier, chain, members)


def _parse_caps(raw: object) -> dict[str, int]:
    if not isinstance(raw, dict):
        raise InputError("caps must be an object")
    unknown = set(raw) - _CAP_KEYS
    if unknown:
        raise InputError(f"caps has unknown fields: {', '.join(sorted(unknown))}")
    caps = {}
    for key, value in raw.items():
        caps[key] = _require_int(value, f"cap {key}")
        if caps[key] < 1:
            raise InputError(f"cap {key} must be >= 1")
    return caps


def parse_rational(value: object, what: str) -> Fraction:
    from fractions import Fraction

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


class SpaceDocument(Record):
    """A chain, points and one family of value vectors, named by its kind."""

    __slots__ = ("chain", "carrier", "kind", "family", "name", "caps")
    chain: Chain
    carrier: Carrier
    kind: str  # "subbase", "opens" or "family"
    family: FuzzyFamily
    name: str | None
    caps: dict[str, int]


def parse_space_document(obj: object) -> SpaceDocument:
    _require_keys(obj, {"chain", "points"}, {"subbase", "opens", "name", "caps"}, "space document")
    declared = [k for k in ("subbase", "opens") if k in obj]
    if len(declared) != 1:
        raise InputError("a space document must declare exactly one of subbase/opens")
    chain, carrier = _parse_header(obj, "space document")
    kind = declared[0]
    family = _parse_vectors(obj[kind], carrier, chain, kind)
    name = _parse_name(obj)
    caps = _parse_caps(obj["caps"]) if "caps" in obj else {}
    return SpaceDocument(chain, carrier, kind, family, name, caps)


def space_document_to_obj(doc: SpaceDocument) -> dict:
    out = _named(doc)
    out["chain"] = doc.chain.n
    out["points"] = list(doc.carrier.points)
    out[doc.kind] = [list(m.values) for m in doc.family.members]
    if doc.caps:
        out["caps"] = {k: doc.caps[k] for k in sorted(doc.caps)}
    return out


def parse_family_document(obj: object) -> SpaceDocument:
    _require_keys(obj, {"chain", "points", "family"}, {"name"}, "family document")
    chain, carrier = _parse_header(obj, "family document")
    family = _parse_vectors(obj["family"], carrier, chain, "family")
    return SpaceDocument(chain, carrier, "family", family, _parse_name(obj), {})


class MapDocument(Record):
    """A point map between two spaces, inline or referenced by file path."""

    __slots__ = ("map", "domain", "codomain", "name")
    map: PointMap
    domain: SpaceDocument
    codomain: SpaceDocument
    name: str | None


def parse_map_document(obj: object, *, base_dir: Path | None = None) -> MapDocument:
    _require_keys(obj, {"domain", "codomain", "map"}, {"name"}, "map document")

    def resolve(value: object, what: str) -> SpaceDocument:
        if isinstance(value, str):
            path = Path(value)
            if not path.is_absolute() and base_dir is not None:
                path = base_dir / path
            return parse_space_document(read_document(path, f"{what} space reference {value!r}"))
        return parse_space_document(value)

    domain = resolve(obj["domain"], "domain")
    codomain = resolve(obj["codomain"], "codomain")
    images = obj["map"]
    if not isinstance(images, list):
        raise InputError("map must be a list of codomain indices")
    point_map = PointMap(domain.carrier, codomain.carrier, tuple(images))
    return MapDocument(point_map, domain, codomain, _parse_name(obj))


def map_document_to_obj(doc: MapDocument) -> dict:
    out = _named(doc)
    out["domain"] = space_document_to_obj(doc.domain)
    out["codomain"] = space_document_to_obj(doc.codomain)
    out["map"] = list(doc.map.images)
    return out


class MetricDocument(Record):
    """A finite metric with optional explicit ball centers and radii."""

    __slots__ = ("metric", "centers", "radii", "name")
    metric: MetricInstance
    centers: tuple[FuzzyPoint, ...] | None
    radii: tuple[Fraction, ...] | None
    name: str | None


def parse_metric_document(obj: object) -> MetricDocument:
    from .metric import FuzzyPoint, MetricInstance

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


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def loads_document(text: str, what: str) -> object:
    """Decode JSON text; every failure, the digit limit and a repeated key too,
    is an input error."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise InputError(f"{what} repeats the key {repeated!r}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise InputError(f"{what} is nested too deeply to parse") from None
    except ValueError:  # the only other ValueError of decoding: the digit limit
        raise InputError(f"{what} has an integer literal with too many digits") from None


def read_document(path: str | Path, what: str) -> object:
    """Read and decode one UTF-8 JSON file; every failure is an input error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: non-UTF-8 bytes, a NUL in the path
        raise InputError(f"cannot read {what}: {exc}") from None
    return loads_document(text, what)
