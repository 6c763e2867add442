"""State objects for the bipartite commitment model.

A commitment scheme lives on a tensor product of two finite-dimensional
spaces: the committer keeps side A, the receiver holds side B. Amplitude
vectors are indexed row-major as (a_index, b_index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatchError, SchemeValidationError, StateValidationError

# largest joint dimension dim_a * dim_b a scheme may have
DIM_CAP = 64

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
KRAUS_TOL = 1e-10
DISTINGUISHABILITY_TOL = 1e-12


@dataclass(frozen=True)
class HilbertDims:
    """Dimensions of the committer (A) and receiver (B) spaces."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise StateValidationError(
                f"dimensions must be >= 1, got ({self.dim_a}, {self.dim_b})"
            )
        if self.dim_a * self.dim_b > DIM_CAP:
            raise StateValidationError(
                f"joint dimension {self.dim_a * self.dim_b} exceeds cap {DIM_CAP}"
            )

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b


class PureState:
    """Unit vector on A tensor B."""

    __slots__ = ("dims", "amplitudes")

    def __init__(self, dims: HilbertDims, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] != dims.total:
            raise DimensionMismatchError(
                f"expected {dims.total} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # `not <=` refuses NaN too
            raise StateValidationError(f"state norm {norm!r} is not 1 within {NORM_TOL}")
        self.dims = dims
        self.amplitudes = amps
        self.amplitudes.flags.writeable = False

    @classmethod
    def normalized(cls, dims: HilbertDims, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=np.complex128)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise StateValidationError("cannot normalize the zero vector")
        return cls(dims, amps / norm)

    @classmethod
    def basis(cls, dims: HilbertDims, a_index: int, b_index: int) -> "PureState":
        amps = np.zeros(dims.total, dtype=np.complex128)
        amps[a_index * dims.dim_b + b_index] = 1.0
        return cls(dims, amps)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (dim_a, dim_b)."""
        return self.amplitudes.reshape(self.dims.dim_a, self.dims.dim_b)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def __repr__(self) -> str:
        return f"PureState(dims=({self.dims.dim_a},{self.dims.dim_b}))"


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"density operator must be square, got {mat.shape}")
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_TOL:
            raise StateValidationError("matrix is not Hermitian within tolerance")
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise StateValidationError(f"trace {trace!r} is not 1 within {TRACE_TOL}")
        eigs = np.linalg.eigvalsh(mat)
        if not eigs.min() >= -EIGENVALUE_TOL:
            raise StateValidationError(f"negative eigenvalue {eigs.min()!r}")
        self.dim = mat.shape[0]
        self.matrix = mat
        self.matrix.flags.writeable = False

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class OpenOperation:
    """Trace-preserving completely positive map in Kraus form on A tensor B."""

    __slots__ = ("dim", "kraus_operators")

    def __init__(self, kraus_operators):
        ops = [np.asarray(k, dtype=np.complex128) for k in kraus_operators]
        if not ops:
            raise StateValidationError("the Kraus list must be non-empty")
        dim = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"every Kraus operator must be {dim}x{dim}, got {k.shape}"
                )
        completeness = sum(k.conj().T @ k for k in ops)
        defect = float(np.max(np.abs(completeness - np.eye(dim))))
        if not defect <= KRAUS_TOL:
            raise StateValidationError(
                f"Kraus operators are not trace-preserving (defect {defect:.3e})"
            )
        self.dim = dim
        self.kraus_operators = tuple(ops)
        for k in self.kraus_operators:
            k.flags.writeable = False

    @classmethod
    def identity(cls, dim: int) -> "OpenOperation":
        return cls([np.eye(dim)])

    def __repr__(self) -> str:
        return f"OpenOperation(dim={self.dim}, n_kraus={len(self.kraus_operators)})"


@dataclass(frozen=True)
class QbcScheme:
    """A two-state commitment scheme plus its opening operation.

    Construction fails if the opening cannot tell the two commitments
    apart at all; the measured distinguishability is kept on the object
    so near-degenerate schemes are visible rather than silently accepted.
    """

    dims: HilbertDims
    c0: PureState
    c1: PureState
    open_op: OpenOperation
    open_distinguishability: float = field(init=False)

    def __post_init__(self):
        if self.c0.dims != self.dims or self.c1.dims != self.dims:
            raise DimensionMismatchError("both commitment states must share the scheme dims")
        if self.open_op.dim != self.dims.total:
            raise DimensionMismatchError(
                f"opening acts on dim {self.open_op.dim}, scheme lives on {self.dims.total}"
            )
        from .measures import apply_open, trace_distance  # cycle-free at call time

        gap = trace_distance(apply_open(self.open_op, self.c0), apply_open(self.open_op, self.c1))
        object.__setattr__(self, "open_distinguishability", gap)
        if not gap > DISTINGUISHABILITY_TOL:
            raise SchemeValidationError(
                f"opening does not distinguish the two commitments (trace distance {gap:.3e})"
            )
