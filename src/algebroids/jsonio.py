"""JSON schemas for complexes, representations, cochains and algebroids.

Rationals travel as "numerator/denominator" strings so nothing is lost to
binary floats.  Matrix entries are nested row-major string arrays; rank-1
values may be bare strings.  Every document carries schema_version "1".
Simplices and edges appear in object keys as underscore-joined vertex lists:
"edge_4_7", "simplex_0_4_7".
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .algebroid import CommAlgebroid, make_algebroid
from .cohomology import TwistedCochain
from .complexes import (
    Complex,
    SimplicialMap,
    circle_model,
    simplicial_map,
    torus_grid,
    validate_complex,
)
from .errors import AlgebroidError, InputError, SchemaError
from .linalg import Matrix
from .local_systems import LocalSystem, from_representation

SCHEMA_VERSION = "1"

# ASCII digits over the whole string: a signed denominator, a non-ASCII
# digit and a trailing newline are all refused
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"expected a rational like '3/2', got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in {text!r}") from None
    except ValueError:  # past the interpreter's limit on decimal digits
        raise SchemaError(f"rational of {len(text)} characters has too many digits") from None


def format_rational(q) -> str:
    """``numerator/denominator``.  An answer can outgrow its inputs (a
    pulled-back holonomy is a power of one), so a part past the
    interpreter's limit on decimal digits raises InputError."""
    q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # past the interpreter's limit on decimal digits
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        raise InputError(
            f"rational with a {bits}-bit part has too many digits to print", bits=bits
        ) from None


def _check_version(data, what: str) -> None:
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported {what} schema_version {version!r}", expected=SCHEMA_VERSION
        )


def _simplex_key(prefix: str, simplex) -> str:
    return prefix + "_" + "_".join(str(v) for v in simplex)


def _parse_simplex_key(key: str, prefix: str) -> tuple:
    parts = key.split("_")
    if parts[0] != prefix or len(parts) < 2:
        raise SchemaError(f"malformed {prefix} key {key!r}")
    try:
        return tuple(int(p) for p in parts[1:])
    except ValueError:
        raise SchemaError(f"malformed {prefix} key {key!r}") from None


def complex_from_json(data) -> Complex:
    if not isinstance(data, dict):
        raise SchemaError("complex document must be an object")
    _check_version(data, "complex")
    if "vertices" not in data or "simplices" not in data:
        raise SchemaError("complex document needs 'vertices' and 'simplices'")
    vertices = data["vertices"]
    simplices = data["simplices"]
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise SchemaError("'vertices' must be an integer count")
    if not isinstance(simplices, list):
        raise SchemaError("'simplices' must be a list of vertex lists")
    return validate_complex(vertices, [tuple(s) for s in simplices])


def complex_to_json(c: Complex) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "vertices": c.vertex_count,
        "simplices": [list(s) for n in range(1, c.dimension + 1) for s in c.simplices_of_dim(n)],
    }


def _entry_to_matrix(value) -> Matrix:
    if isinstance(value, (str, int)):
        return Matrix([[parse_rational(value)]])
    if isinstance(value, list):
        try:
            rows = [[parse_rational(x) for x in row] for row in value]
            return Matrix(rows)
        except (TypeError, SchemaError) as exc:
            raise SchemaError(f"bad matrix entry: {exc}") from None
    raise SchemaError(f"entry must be a rational string or matrix, got {type(value).__name__}")


def representation_from_json(c: Complex, data) -> LocalSystem:
    if not isinstance(data, dict):
        raise SchemaError("representation document must be an object")
    _check_version(data, "representation")
    entries = data.get("entries")
    if not isinstance(entries, dict):
        raise SchemaError("representation document needs an 'entries' object")
    rank = data.get("rank")
    if rank is not None and (not isinstance(rank, int) or isinstance(rank, bool) or rank < 1):
        raise SchemaError("'rank' must be a positive integer")
    images = {}
    for key, value in entries.items():
        m = _entry_to_matrix(value)
        if key.startswith("edge_"):
            images[_parse_simplex_key(key, "edge")] = m
        else:
            images[key] = m
    return from_representation(c, images, rank=rank)


def representation_to_json(L: LocalSystem) -> dict:
    """Serialize the non-identity transports as explicit edge entries."""
    entries = {}
    for e in L.base.edges:
        m = L.transport[e]
        if not m.is_identity():
            rows = [[format_rational(x) for x in row] for row in m.entries]
            entries[_simplex_key("edge", e)] = rows[0][0] if L.rank == 1 else rows
    return {"schema_version": SCHEMA_VERSION, "rank": L.rank, "entries": entries}


def cochain_from_json(L: LocalSystem, data) -> TwistedCochain:
    if not isinstance(data, dict):
        raise SchemaError("cochain document must be an object")
    _check_version(data, "cochain")
    degree = data.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise SchemaError("cochain document needs a nonnegative integer 'degree'")
    raw = data.get("values", {})
    if not isinstance(raw, dict):
        raise SchemaError("'values' must be an object keyed by simplex")
    values = {}
    for key, vec in raw.items():
        simplex = _parse_simplex_key(key, "simplex")
        if isinstance(vec, (str, int)):
            vec = [vec]
        if not isinstance(vec, list):
            raise SchemaError(f"value for {key!r} must be a list of rationals")
        values[simplex] = tuple(parse_rational(x) for x in vec)
    try:
        return TwistedCochain(L, degree, values)
    except AlgebroidError as exc:
        raise SchemaError(f"cochain does not fit the system: {exc}") from None


def cochain_to_json(phi: TwistedCochain) -> dict:
    values = {}
    for s, vec in phi.values.items():
        if any(x != 0 for x in vec):
            values[_simplex_key("simplex", s)] = [format_rational(x) for x in vec]
    return {
        "schema_version": SCHEMA_VERSION,
        "degree": phi.degree,
        "values": values,
    }


def algebroid_from_json(data) -> CommAlgebroid:
    """Bundle format: complex (inline object or builtin string), a
    representation block, and an omega block."""
    if not isinstance(data, dict):
        raise SchemaError("algebroid document must be an object")
    _check_version(data, "algebroid")
    spec = data.get("complex")
    if spec is None:
        raise SchemaError("algebroid document needs a 'complex'")
    c = resolve_complex_spec(spec)
    rep = data.get("representation")
    if rep is None:
        raise SchemaError("algebroid document needs a 'representation'")
    L = representation_from_json(c, rep)
    omega_data = data.get("omega")
    if omega_data is None:
        omega = TwistedCochain(L, 2)
    else:
        omega = cochain_from_json(L, omega_data)
    return make_algebroid(L, omega)


def map_from_json(data) -> SimplicialMap:
    if not isinstance(data, dict):
        raise SchemaError("map document must be an object")
    _check_version(data, "map")
    for field in ("source", "target", "vertex_map"):
        if field not in data:
            raise SchemaError(f"map document needs {field!r}")
    source = resolve_complex_spec(data["source"])
    target = resolve_complex_spec(data["target"])
    vm = data["vertex_map"]
    if not isinstance(vm, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in vm
    ):
        raise SchemaError("'vertex_map' must be a list of vertex indices")
    return simplicial_map(source, target, vm)


_BUILTIN_RE = re.compile(r"^builtin:(circle(?P<n>\d+)?|torus(?P<r>\d+)x(?P<c>\d+)|torus)$")

# The most vertices a builtin model may have, checked before it is built:
# torus200x200 takes about 2 s and 100 MB to build.
MAX_BUILTIN_VERTICES = 40_000


def builtin_complex(name: str) -> Complex:
    m = _BUILTIN_RE.match(name)
    if not m:
        raise SchemaError(
            f"unknown builtin {name!r}; try builtin:circle3 or builtin:torus3x3"
        )
    circle = m.group(0).startswith("builtin:circle")
    digits = (m.group("n") or "3",) if circle else (m.group("r") or "3", m.group("c") or "3")
    try:
        sizes = [int(d) for d in digits]
    except ValueError:  # past the interpreter's limit on decimal digits
        raise SchemaError(f"builtin size of {max(map(len, digits))} digits is too long") from None
    if math.prod(sizes) > MAX_BUILTIN_VERTICES:
        raise InputError(
            f"builtin model has more than {MAX_BUILTIN_VERTICES} vertices",
            limit=MAX_BUILTIN_VERTICES,
        )
    return circle_model(*sizes) if circle else torus_grid(*sizes)


def resolve_complex_spec(spec) -> Complex:
    """Accept an inline complex object, a builtin name, or a file path."""
    if isinstance(spec, dict):
        return complex_from_json(spec)
    if not isinstance(spec, str):
        raise SchemaError("complex must be an object, builtin name, or file path")
    if spec.startswith("builtin:"):
        return builtin_complex(spec)
    return complex_from_json(load_json(spec))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, or too many digits
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise SchemaError(f"invalid JSON in {path}: nested too deeply") from None


def dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)
