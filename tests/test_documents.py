"""JSON document parsing, canonical serialization, and round trips."""

from fractions import Fraction

import pytest

from mvtop import Carrier, Chain, InputError, PointMap, indiscrete
from mvtop.documents import (
    dumps_canonical,
    loads_document,
    parse_family_document,
    parse_map_document,
    parse_space_document,
    map_document_to_obj,
    space_document_to_obj,
)
from mvtop.metric import (
    FuzzyPoint,
    metric_ball_family,
    metric_document_to_obj,
    parse_metric_document,
    parse_rational,
    render_rational,
)
from mvtop.product import product, tupling


def test_space_document_roundtrip():
    obj = {
        "name": "half",
        "chain": 2,
        "points": ["x"],
        "subbase": [[1]],
        "caps": {"max_opens": 100},
    }
    doc = parse_space_document(obj)
    assert doc.family.chain.n == 2
    assert doc.kind == "subbase"
    assert doc.caps == {"max_opens": 100}
    assert parse_space_document(space_document_to_obj(doc)) == doc


def test_space_document_requires_exactly_one_family():
    with pytest.raises(InputError):
        parse_space_document({"chain": 1, "points": ["a"]})
    with pytest.raises(InputError):
        parse_space_document(
            {"chain": 1, "points": ["a"], "subbase": [[1]], "opens": [[1]]}
        )


def test_space_document_rejects_unknown_fields_and_bad_values():
    with pytest.raises(InputError):
        parse_space_document({"chain": 1, "points": ["a"], "opens": [[1]], "extra": 1})
    with pytest.raises(InputError):
        parse_space_document({"chain": 1, "points": ["a"], "opens": [[2]]})
    with pytest.raises(InputError):
        parse_space_document({"chain": 1, "points": ["a", "a"], "opens": [[1, 1]]})
    with pytest.raises(InputError):
        parse_space_document({"chain": 1.5, "points": ["a"], "opens": [[1]]})


def test_family_document_roundtrip():
    obj = {"chain": 2, "points": ["a", "b"], "family": [[1, 1], [2, 0]]}
    doc = parse_family_document(obj)
    assert parse_family_document(space_document_to_obj(doc)) == doc


def test_map_document_inline_roundtrip():
    obj = {
        "domain": {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [1, 1]]},
        "codomain": {"chain": 1, "points": ["u"], "opens": [[0], [1]]},
        "map": [0, 0],
    }
    doc = parse_map_document(obj)
    assert doc.map.images == (0, 0)
    assert parse_map_document(map_document_to_obj(doc)) == doc


def test_map_document_path_reference(tmp_path):
    space = {"chain": 1, "points": ["u"], "opens": [[0], [1]]}
    path = tmp_path / "space.json"
    path.write_text(dumps_canonical(space), encoding="utf-8")
    obj = {
        "domain": "space.json",
        "codomain": str(path),
        "map": [0],
    }
    doc = parse_map_document(obj, base_dir=tmp_path)
    assert doc.domain == doc.codomain
    with pytest.raises(InputError):
        parse_map_document({"domain": "missing.json", "codomain": space, "map": [0]},
                           base_dir=tmp_path)


def test_metric_document_roundtrip():
    obj = {
        "chain": 2,
        "points": ["a", "b"],
        "dist": [[0, "1/2"], ["1/2", 0]],
        "radii": ["1/2", 2],
        "centers": [["a", 2]],
    }
    doc = parse_metric_document(obj)
    assert doc.metric.dist[0][1] == Fraction(1, 2)
    assert doc.radii == (Fraction(1, 2), Fraction(2))
    assert parse_metric_document(metric_document_to_obj(doc)) == doc


def test_rational_parsing():
    assert parse_rational(3, "d") == Fraction(3)
    assert parse_rational("7/4", "d") == Fraction(7, 4)
    assert render_rational(Fraction(7, 4)) == "7/4"
    assert render_rational(Fraction(4, 2)) == 2
    with pytest.raises(InputError):
        parse_rational(0.5, "d")
    with pytest.raises(InputError):
        parse_rational("x", "d")
    with pytest.raises(InputError):
        parse_rational("1/0", "d")


def test_canonical_serialization_is_stable():
    obj = {"chain": 1, "points": ["a"], "opens": [[0], [1]]}
    doc = parse_space_document(obj)
    text = dumps_canonical(space_document_to_obj(doc))
    assert text == dumps_canonical(space_document_to_obj(doc))
    assert text.endswith("\n")
    assert loads_document(text, "the space") == space_document_to_obj(doc)


def test_malformed_json_is_an_input_error():
    with pytest.raises(InputError):
        loads_document("{not json", "the space")


AB = {"chain": 2, "points": ["a", "b"]}
METRIC = {**AB, "dist": [[0, 1], [1, 0]]}


def _tupling(*maps):
    """`tupling` of maps given as (domain size, codomain size, images) into a 2 x 1 product."""
    carriers = {k: Carrier(tuple("abc"[:k])) for k in (1, 2, 3)}
    space = product([indiscrete(carriers[k], Chain(1)) for k in (2, 1)])
    return tupling([PointMap(carriers[d], carriers[c], images) for d, c, images in maps], space)


# each malformed input, and the one error it is rejected with
REJECTIONS = {
    "cap not an integer": (
        lambda: parse_space_document({**AB, "opens": [], "caps": {"max_opens": "9"}}),
        "cap max_opens must be an integer, got '9'",
    ),
    "name not a string": (
        lambda: parse_family_document({**AB, "family": [], "name": 7}),
        "name must be a string",
    ),
    "vectors not a list": (
        lambda: parse_space_document({**AB, "subbase": {"a": 1}}),
        "subbase must be a list of value vectors",
    ),
    "caps not an object": (
        lambda: parse_space_document({**AB, "opens": [], "caps": [1]}),
        "caps must be an object",
    ),
    "cap below 1": (
        lambda: parse_space_document({**AB, "opens": [], "caps": {"max_opens": 0}}),
        "cap max_opens must be >= 1",
    ),
    "distance a boolean": (
        lambda: parse_metric_document({**AB, "dist": [[0, True], [True, 0]]}),
        "distance must be an integer or 'p/q' string, got True",
    ),
    "centers not a list": (
        lambda: parse_metric_document({**METRIC, "centers": {"a": 1}}),
        "centers must be a list of [label, value] pairs",
    ),
    "center not a pair": (
        lambda: parse_metric_document({**METRIC, "centers": [["a", 1, 2]]}),
        "each center must be a [label, value] pair",
    ),
    "radii not a list": (
        lambda: parse_metric_document({**METRIC, "radii": "1"}),
        "radii must be a list of rationals",
    ),
    "nested too deeply": (
        lambda: loads_document("[" * 100_000, "'-'"),
        "'-' is nested too deeply to parse",
    ),
    "distance matrix not square": (
        lambda: parse_metric_document({**AB, "dist": [[0, 1], [1]]}),
        "distance matrix shape does not match the carrier",
    ),
    "negative distance": (
        lambda: parse_metric_document({**AB, "dist": [[0, -1], [-1, 0]]}),
        "distances must be nonnegative",
    ),
    "center off the carrier": (
        lambda: metric_ball_family(parse_metric_document(METRIC).metric, [FuzzyPoint(2, 1)], [1]),
        "2 is not a valid point index",
    ),
    "too few maps": (lambda: _tupling((1, 2, (0,))), "one map per factor is required"),
    "maps from two domains": (
        lambda: _tupling((1, 2, (0,)), (2, 1, (0, 0))),
        "all maps must share one domain",
    ),
    "map off its factor": (
        lambda: _tupling((1, 2, (0,)), (1, 3, (2,))),
        "map 1 does not land in factor 1's carrier",
    ),
}


@pytest.mark.parametrize("make, message", REJECTIONS.values(), ids=REJECTIONS)
def test_each_rejection_names_what_is_wrong(make, message):
    with pytest.raises(InputError) as rejected:
        make()
    assert str(rejected.value) == message
