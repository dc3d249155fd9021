"""JSON document formats for the command-line front end.

Every JSON file, a CLI input or a space reference, is read by `read_document`,
and all JSON is decoded by `loads_document`; each failure, a key given twice in
one object too, is one `InputError` naming its input.  Family documents are
`SpaceDocument`s of kind "family".  A document record is built with every
field given, the absent `name` as None and the absent caps as `{}`.
Documents are exact: integer chain values only.  Serialization is canonical,
so identical inputs produce byte-identical outputs and parse/serialize
round-trips are the identity.

`_load`, `_space_document` and `_space_report` serve the CLI commands.
Metric documents are `metric`'s.
"""

from __future__ import annotations

import json
import sys
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


class SpaceDocument(Record):
    """One family of value vectors, which holds the chain and points, named by its kind."""

    __slots__ = ("kind", "family", "name", "caps")
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
    return SpaceDocument(kind, family, name, caps)


def space_document_to_obj(doc: SpaceDocument) -> dict:
    out = _named(doc)
    out["chain"] = doc.family.chain.n
    out["points"] = list(doc.family.carrier.points)
    out[doc.kind] = [list(m.values) for m in doc.family.members]
    if doc.caps:
        out["caps"] = {k: doc.caps[k] for k in sorted(doc.caps)}
    return out


def parse_family_document(obj: object) -> SpaceDocument:
    _require_keys(obj, {"chain", "points", "family"}, {"name"}, "family document")
    chain, carrier = _parse_header(obj, "family document")
    family = _parse_vectors(obj["family"], carrier, chain, "family")
    return SpaceDocument("family", family, _parse_name(obj), {})


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
    point_map = PointMap(domain.family.carrier, codomain.family.carrier, tuple(images))
    return MapDocument(point_map, domain, codomain, _parse_name(obj))


def map_document_to_obj(doc: MapDocument) -> dict:
    out = _named(doc)
    out["domain"] = space_document_to_obj(doc.domain)
    out["codomain"] = space_document_to_obj(doc.codomain)
    out["map"] = list(doc.map.images)
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


def _load(path: str) -> object:
    """The decoded document at `path`, or on stdin if `path` is "-"."""
    if path != "-":
        return read_document(path, repr(path))
    try:
        if sys.stdin is None:  # the process started with stdin closed
            raise OSError("stdin is closed")
        text = sys.stdin.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, a closed stream
        raise InputError(f"cannot read '-': {exc}") from None
    return loads_document(text, "'-'")


def _space_document(path: str) -> SpaceDocument:
    return parse_space_document(_load(path))


def _space_report(kind: str, family: FuzzyFamily, name: str | None, caps: dict[str, int]) -> dict:
    """The family as a space document of the kind."""
    return space_document_to_obj(SpaceDocument(kind, family, name, caps))
