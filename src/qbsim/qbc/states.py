"""State objects for the bipartite commitment model.

A commitment scheme lives on a tensor product of two finite-dimensional
spaces: the committer keeps side A, the receiver holds side B. Amplitude
vectors are indexed row-major as (a_index, b_index). Vectors are tuples
and matrices tuples of rows of Python complex numbers; the constructors
accept any nested sequence of numbers, numpy arrays included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from ..errors import DimensionMismatchError, SchemeValidationError, StateValidationError
from .linalg import conj, eigvalsh, gram, norm

# largest joint dimension dim_a * dim_b a scheme may have
DIM_CAP = 64

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
KRAUS_TOL = 1e-10
DISTINGUISHABILITY_TOL = 1e-12


def _matrix(rows) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(map(complex, row)) for row in rows)


def _is_square(matrix: tuple) -> bool:
    return all(len(row) == len(matrix) for row in matrix)


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
        amps = tuple(map(complex, amplitudes))
        if len(amps) != dims.total:
            raise DimensionMismatchError(
                f"expected {dims.total} amplitudes, got {len(amps)}"
            )
        size = norm(amps)
        if not abs(size - 1.0) <= NORM_TOL:  # `not <=` refuses NaN too
            raise StateValidationError(f"state norm {size!r} is not 1 within {NORM_TOL}")
        self.dims = dims
        self.amplitudes = amps

    @classmethod
    def normalized(cls, dims: HilbertDims, amplitudes) -> "PureState":
        amps = tuple(map(complex, amplitudes))
        size = norm(amps)
        if size == 0:
            raise StateValidationError("cannot normalize the zero vector")
        return cls(dims, [complex(z.real / size, z.imag / size) for z in amps])

    @classmethod
    def basis(cls, dims: HilbertDims, a_index: int, b_index: int) -> "PureState":
        amps = [0j] * dims.total
        amps[a_index * dims.dim_b + b_index] = 1 + 0j
        return cls(dims, amps)

    def as_matrix(self) -> tuple[tuple[complex, ...], ...]:
        """Amplitudes as dim_a rows of dim_b."""
        db = self.dims.dim_b
        return tuple(self.amplitudes[a * db:(a + 1) * db] for a in range(self.dims.dim_a))

    def projector(self) -> tuple[tuple[complex, ...], ...]:
        """|psi><psi|."""
        column = [(z,) for z in self.amplitudes]
        return _matrix(gram(column, column))

    def __repr__(self) -> str:
        return f"PureState(dims=({self.dims.dim_a},{self.dims.dim_b}))"


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        mat = _matrix(matrix)
        if not mat or not _is_square(mat):
            raise DimensionMismatchError("density operator must be a non-empty square matrix")
        if not all(abs(z - w.conjugate()) <= HERMITIAN_TOL
                   for row, col in zip(mat, zip(*mat)) for z, w in zip(row, col)):
            raise StateValidationError("matrix is not Hermitian within tolerance")
        trace = sum(mat[i][i] for i in range(len(mat)))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise StateValidationError(f"trace {trace!r} is not 1 within {TRACE_TOL}")
        least = eigvalsh(mat)[0]
        if not least >= -EIGENVALUE_TOL:
            raise StateValidationError(f"negative eigenvalue {least!r}")
        self.dim = len(mat)
        self.matrix = mat

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class OpenOperation:
    """Trace-preserving completely positive map in Kraus form on A tensor B."""

    __slots__ = ("dim", "kraus_operators")

    def __init__(self, kraus_operators):
        ops = tuple(map(_matrix, kraus_operators))
        if not ops:
            raise StateValidationError("the Kraus list must be non-empty")
        dim = len(ops[0])
        for k in ops:
            if len(k) != dim or not _is_square(k):
                raise DimensionMismatchError(f"every Kraus operator must be {dim}x{dim}")
        # sum_k K^H K, entry (i, j): column i of every K against column j; a
        # check, not a reported number, so complex arithmetic serves
        columns = [[c for part in parts for c in part] for parts in zip(*(zip(*k) for k in ops))]
        defects = [abs(sum(map(mul, x, y)) - (i == j))
                   for i, x in enumerate(map(conj, columns)) for j, y in enumerate(columns)]
        bad = [d for d in defects if not d <= KRAUS_TOL]  # a NaN too
        if bad:
            raise StateValidationError(
                f"Kraus operators are not trace-preserving (defect {max(bad):.3e})"
            )
        self.dim = dim
        self.kraus_operators = ops

    @classmethod
    def identity(cls, dim: int) -> "OpenOperation":
        return cls([[[complex(i == j) for j in range(dim)] for i in range(dim)]])

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
