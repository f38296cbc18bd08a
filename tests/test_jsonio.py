import json
from fractions import Fraction

import pytest

from algebroids import (
    Matrix,
    RelationViolationError,
    SchemaError,
    TwistedCochain,
    algebroid_from_json,
    builtin_complex,
    circle_model,
    cochain_from_json,
    cochain_to_json,
    complex_from_json,
    complex_to_json,
    dump_json,
    format_rational,
    from_representation,
    load_json,
    map_from_json,
    parse_rational,
    representation_from_json,
    representation_to_json,
    resolve_complex_spec,
    torus_grid,
    torus_model,
    trivial_system,
)


def test_parse_rational_forms():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7/3") == Fraction(-7, 3)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(5) == Fraction(5)
    # a signed denominator, non-ASCII digits and a trailing newline too
    for bad in ("3/0", "1.5", "a/b", "", None, True, [1], "1/-2", "-1/-2", "\uff11",
                "\u0661/2", "1\n", "1/2\n"):
        with pytest.raises(SchemaError):
            parse_rational(bad)


def test_format_rational_round_trip():
    for q in (Fraction(3, 2), Fraction(-1, 7), Fraction(0), Fraction(4)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4)) == "4/1"


def test_complex_round_trip(torus):
    doc = complex_to_json(torus)
    back = complex_from_json(doc)
    assert back == torus
    assert doc["vertices"] == 9
    assert len(doc["simplices"]) == 27 + 18


def test_complex_from_json_rejects_bad_documents():
    with pytest.raises(SchemaError):
        complex_from_json([])
    with pytest.raises(SchemaError):
        complex_from_json({"schema_version": "99", "vertices": 3, "simplices": []})
    with pytest.raises(SchemaError):
        complex_from_json({"vertices": 3})
    with pytest.raises(SchemaError):
        complex_from_json({"vertices": "3", "simplices": []})


def test_representation_round_trip(torus):
    L = from_representation(torus, {"a": Fraction(3, 2), "b": -2})
    doc = representation_to_json(L)
    back = representation_from_json(torus, doc)
    assert back == L
    # only non-identity transports are written
    assert all(key.startswith("edge_") for key in doc["entries"])


def test_representation_accepts_generator_names(torus):
    doc = {
        "schema_version": "1",
        "rank": 1,
        "entries": {"a": "2/1", "b": "1/1"},
    }
    L = representation_from_json(torus, doc)
    assert L == from_representation(torus, {"a": 2, "b": 1})


def test_representation_matrix_entries(torus):
    doc = {
        "schema_version": "1",
        "entries": {"a": [["1/1", "0/1"], ["0/1", "1/1"]], "b": [["2", "0"], ["0", "2"]]},
    }
    L = representation_from_json(torus, doc)
    assert L.rank == 2
    with pytest.raises(SchemaError):
        representation_from_json(torus, {"entries": {"a": [["1/1", "0/1"]]}, "rank": True})
    with pytest.raises(SchemaError):
        representation_from_json(torus, {"entries": {"a": 1.5}})
    with pytest.raises(SchemaError):
        representation_from_json(torus, "nope")


def test_cochain_round_trip(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    phi = TwistedCochain(L, 1, {(0, 1): Fraction(1, 3), (4, 5): -2})
    doc = cochain_to_json(phi)
    assert doc["degree"] == 1
    assert set(doc["values"]) == {"simplex_0_1", "simplex_4_5"}
    back = cochain_from_json(L, doc)
    assert back == phi


def test_cochain_from_json_rejects_bad_documents(torus):
    L = trivial_system(torus)
    with pytest.raises(SchemaError):
        cochain_from_json(L, {"degree": -1, "values": {}})
    with pytest.raises(SchemaError):
        cochain_from_json(L, {"values": {}})
    with pytest.raises(SchemaError):
        cochain_from_json(L, {"degree": 1, "values": {"edge_0_1": "1/1"}})
    # a simplex that is not in the base is a schema-level mismatch
    with pytest.raises(SchemaError):
        cochain_from_json(L, {"degree": 1, "values": {"simplex_0_5": "1/1"}})


def test_scalar_cochain_values_may_be_bare(torus):
    L = trivial_system(torus)
    doc = {"degree": 1, "values": {"simplex_0_1": "2/1"}}
    phi = cochain_from_json(L, doc)
    assert phi.value((0, 1)) == (Fraction(2),)


def test_algebroid_bundle(torus):
    doc = {
        "schema_version": "1",
        "complex": "builtin:torus3x3",
        "representation": {"rank": 1, "entries": {"a": "2/1"}},
        "omega": {"degree": 2, "values": {"simplex_0_1_4": "1/1"}},
    }
    A = algebroid_from_json(doc)
    assert A.base == torus
    assert not A.omega.is_zero()
    del doc["omega"]
    B = algebroid_from_json(doc)
    assert B.omega.is_zero()
    del doc["representation"]
    with pytest.raises(SchemaError):
        algebroid_from_json(doc)


def test_algebroid_bundle_surfaces_flatness_errors(torus):
    # an isolated non-tree edge override breaks the triangle relations
    doc = {
        "complex": "builtin:torus3x3",
        "representation": {"entries": {"edge_1_2": "2/1"}},
    }
    with pytest.raises(RelationViolationError):
        algebroid_from_json(doc)


def test_map_document(torus):
    doc = {
        "source": "builtin:circle6",
        "target": "builtin:torus3x3",
        "vertex_map": [0, 1, 5, 8, 7, 3],
    }
    f = map_from_json(doc)
    assert f.source == circle_model(6)
    assert [f(v) for v in range(6)] == [0, 1, 5, 8, 7, 3]
    with pytest.raises(SchemaError):
        map_from_json({"source": "builtin:circle6", "target": "builtin:torus3x3"})
    with pytest.raises(SchemaError):
        map_from_json({**doc, "vertex_map": [0, 1, 5, 8, 7, True]})


def test_builtin_complex_names():
    assert builtin_complex("builtin:circle3") == circle_model(3)
    assert builtin_complex("builtin:circle") == circle_model(3)
    assert builtin_complex("builtin:torus") == torus_model()
    assert builtin_complex("builtin:torus3x6") == torus_grid(3, 6)
    for bad in ("builtin:klein", "builtin:circle0x3", "torus"):
        with pytest.raises(SchemaError):
            builtin_complex(bad)


def test_resolve_complex_spec(tmp_path, torus):
    assert resolve_complex_spec("builtin:torus") == torus
    inline = complex_to_json(torus)
    assert resolve_complex_spec(inline) == torus
    path = tmp_path / "c.json"
    path.write_text(dump_json(inline))
    assert resolve_complex_spec(str(path)) == torus
    with pytest.raises(SchemaError):
        resolve_complex_spec(42)
    with pytest.raises(SchemaError):
        resolve_complex_spec(str(tmp_path / "missing.json"))


def test_load_json_reports_syntax_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_json(str(path))


def test_load_json_refuses_nesting_past_the_parser_depth(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_json(str(path))


def test_dump_json_is_deterministic(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    doc = representation_to_json(L)
    assert dump_json(doc) == dump_json(json.loads(dump_json(doc)))
