"""Scheme description files.

A scheme file is JSON with dims, the two amplitude vectors as
[real, imag] pairs, and a list of Kraus matrices; see
schemas/qbc_scheme.schema.json for the exact shape.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import DimensionMismatchError, EncodingError, StateValidationError
from ..jsonfile import read_json
from .states import HilbertDims, OpenOperation, PureState, QbcScheme


def _complex_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def _pairs(vector: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vector]


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
        dims = HilbertDims(int(data["dim_a"]), int(data["dim_b"]))
        c0 = PureState(dims, _complex_vector(data["c0"]))
        c1 = PureState(dims, _complex_vector(data["c1"]))
        kraus = [
            np.array([[complex(re, im) for re, im in row] for row in op], dtype=np.complex128)
            for op in data["kraus"]
        ]
        open_op = OpenOperation(kraus)
    except (KeyError, TypeError, ValueError,
            DimensionMismatchError, StateValidationError) as exc:
        # semantic validity (e.g. an opening that cannot distinguish the
        # commitments) still surfaces as SchemeValidationError below
        raise EncodingError(f"malformed scheme description: {exc}") from exc
    return QbcScheme(dims, c0, c1, open_op)


def load_scheme(path: str) -> QbcScheme:
    return scheme_from_dict(read_json(path, EncodingError))
