"""Structured errors shared by the library and surfaced by the CLI.

Every error carries a stable machine-readable ``code`` so that callers (and
the command line tool in ``--json`` mode) can dispatch on failures without
parsing prose.
"""

from __future__ import annotations

from fractions import Fraction


class AlgebroidError(Exception):
    """Base class for all library errors."""

    code = "ERROR"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self) -> dict:
        payload = {"code": self.code, "message": self.message}
        if self.details:
            payload["details"] = _jsonable(self.details)
        return payload


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return repr(value)


class DomainMismatchError(AlgebroidError):
    code = "DOMAIN_MISMATCH"


class SingularMatrixError(AlgebroidError):
    code = "SINGULAR_MATRIX"


class NotASubspaceError(AlgebroidError):
    code = "NOT_A_SUBSPACE"


class SchemaError(AlgebroidError):
    code = "BAD_SCHEMA"


class InputError(AlgebroidError):
    code = "BAD_INPUT"


class MissingFaceError(AlgebroidError):
    code = "MISSING_FACE"


class NonIncreasingTupleError(AlgebroidError):
    code = "NON_INCREASING_TUPLE"


class DisconnectedComplexError(AlgebroidError):
    code = "DISCONNECTED"


class MapValidationError(AlgebroidError):
    code = "INVALID_MAP"


class MapMismatchError(AlgebroidError):
    code = "MAP_MISMATCH"


class UnknownGeneratorError(AlgebroidError):
    code = "UNKNOWN_GENERATOR"


class RelationViolationError(AlgebroidError):
    code = "RELATION_VIOLATION"


class NotFlatError(AlgebroidError):
    code = "NOT_FLAT"


class NotClosedError(AlgebroidError):
    code = "NOT_CLOSED"


class NotInvariantError(AlgebroidError):
    code = "NOT_INVARIANT"


class UnsupportedRankError(AlgebroidError):
    code = "UNSUPPORTED_RANK"


class UnsupportedBaseError(AlgebroidError):
    code = "UNSUPPORTED_BASE"


class BaseMismatchError(AlgebroidError):
    code = "BASE_MISMATCH"


class DegreeError(AlgebroidError):
    code = "BAD_DEGREE"


class OutOfMemoryError(AlgebroidError):
    """A computation that exhausted memory, reported as an error line."""

    code = "OUT_OF_MEMORY"
