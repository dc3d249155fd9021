"""JSON document parsing, canonical serialization, and round trips."""

from fractions import Fraction

import pytest

from mvtop import InputError
from mvtop.documents import (
    dumps_canonical,
    loads_document,
    parse_family_document,
    parse_map_document,
    parse_metric_document,
    parse_rational,
    parse_space_document,
    map_document_to_obj,
    metric_document_to_obj,
    render_rational,
    space_document_to_obj,
)


def test_space_document_roundtrip():
    obj = {
        "name": "half",
        "chain": 2,
        "points": ["x"],
        "subbase": [[1]],
        "caps": {"max_opens": 100},
    }
    doc = parse_space_document(obj)
    assert doc.chain.n == 2
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
