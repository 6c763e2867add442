"""Scheme description files.

A scheme file is JSON with dims, the two amplitude vectors as
[real, imag] pairs, and a list of Kraus matrices, and no other key; see
schemas/qbc_scheme.schema.json for the exact shape. A dimension must be
an int and every entry a real number; neither is coerced.
"""

from __future__ import annotations

from typing import Any

from ..errors import DimensionMismatchError, EncodingError, StateValidationError
from ..jsonfile import read_json
from .states import HilbertDims, OpenOperation, PureState, QbcScheme


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EncodingError(f"malformed scheme description: {value!r} is not a real number")
    return value


def _complex_vector(pairs) -> list[complex]:
    return [complex(_real(re), _real(im)) for re, im in pairs]


def _pairs(vector) -> list[list[float]]:
    return [[z.real, z.imag] for z in vector]


_KEYS = ("dim_a", "dim_b", "c0", "c1", "kraus")  # every key a scheme file may hold


def scheme_to_dict(scheme: QbcScheme) -> dict[str, Any]:
    return {
        "dim_a": scheme.dims.dim_a,
        "dim_b": scheme.dims.dim_b,
        "c0": _pairs(scheme.c0.amplitudes),
        "c1": _pairs(scheme.c1.amplitudes),
        "kraus": [
            [_pairs(row) for row in op]
            for op in scheme.open_op.kraus_operators
        ],
    }


def scheme_from_dict(data: dict[str, Any]) -> QbcScheme:
    try:
        dim_a, dim_b = data["dim_a"], data["dim_b"]
        if unknown := [key for key in data if key not in _KEYS]:
            raise EncodingError(f"malformed scheme description: unknown key {unknown[0]!r}")
        if type(dim_a) is not int or type(dim_b) is not int:
            raise EncodingError("malformed scheme description: dimensions must be integers, "
                                f"got {dim_a!r} and {dim_b!r}")
        dims = HilbertDims(dim_a, dim_b)
        c0 = PureState(dims, _complex_vector(data["c0"]))
        c1 = PureState(dims, _complex_vector(data["c1"]))
        open_op = OpenOperation([list(map(_complex_vector, op)) for op in data["kraus"]])
    except (KeyError, TypeError, ValueError,
            DimensionMismatchError, StateValidationError) as exc:
        # semantic validity (e.g. an opening that cannot distinguish the
        # commitments) still surfaces as SchemeValidationError below
        raise EncodingError(f"malformed scheme description: {exc}") from exc
    return QbcScheme(dims, c0, c1, open_op)


def load_scheme(path: str) -> QbcScheme:
    return scheme_from_dict(read_json(path, EncodingError))
