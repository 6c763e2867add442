"""Distinguishability measures and the concealing/binding quantities.

Convention: trace distance D(rho, sigma) = (1/2)||rho - sigma||_1, the
half sum of the absolute eigenvalues of rho - sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from ..errors import DimensionMismatchError
from .linalg import conj, dot, eigvalsh, gram, norm, svd
from .states import DensityOperator, OpenOperation, PureState, QbcScheme


def partial_trace_a(state: PureState) -> DensityOperator:
    """Reduced state on B: what the receiver holds before opening."""
    db = state.dims.dim_b
    # rho_B[b, b'] = sum_a psi[a, b] * conj(psi[a, b'])
    columns = [state.amplitudes[b::db] for b in range(db)]
    return DensityOperator(gram(columns, columns))


def _check_same_dim(rho: DensityOperator, sigma: DensityOperator):
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    _check_same_dim(rho, sigma)
    diff = [[a - b for a, b in zip(x, y)] for x, y in zip(rho.matrix, sigma.matrix)]
    return min(max(0.5 * fsum(map(abs, eigvalsh(diff))), 0.0), 1.0)


def concealing_defect(scheme: QbcScheme) -> float:
    """Trace distance between the receiver's two pre-opening views.

    Zero means the receiver's side carries no information about which
    bit was committed; the scheme is perfectly concealing.
    """
    return trace_distance(partial_trace_a(scheme.c0), partial_trace_a(scheme.c1))


@dataclass(frozen=True)
class BindingReport:
    """Outcome of the optimal committer attack on side A."""

    strength: float
    best_overlap: float
    witness_unitary: tuple[tuple[complex, ...], ...]
    witness_residual: float


def binding_attack(scheme: QbcScheme) -> BindingReport:
    """Maximize |<c1|(U x I_B)|c0>| over unitaries U on A.

    <c1|(U x I)|c0> = Tr(U N) with N = Psi0 Psi1^dagger on A. The maximum
    is the nuclear norm of N (equivalently the fidelity of the two
    B-marginals), attained at U = W V^dagger from the SVD V S W^dagger of
    N; U is returned as an explicit witness. Where N is rank-deficient,
    V is completed as `linalg.svd` states, so for N = 0 the witness is the
    identity.
    """
    rows0, rows1 = scheme.c0.as_matrix(), scheme.c1.as_matrix()
    s, v, w = svd(gram(rows0, rows1))
    best = min(max(fsum(s), 0.0), 1.0)
    witness = tuple(map(tuple, gram(w, v)))
    columns0 = list(zip(*rows0))
    moved = [dot(row, col) for row in witness for col in columns0]
    return BindingReport(
        strength=1.0 - best,
        best_overlap=best,
        witness_unitary=witness,
        witness_residual=distance_up_to_phase(moved, scheme.c1.amplitudes),
    )


def apply_open(op: OpenOperation, state: PureState) -> DensityOperator:
    """sum_k K |psi><psi| K^dagger, as the outer products of the K |psi>."""
    if op.dim != state.dims.total:
        raise DimensionMismatchError(
            f"opening acts on dim {op.dim}, state lives on {state.dims.total}"
        )
    images = list(zip(*([dot(row, state.amplitudes) for row in k]
                        for k in op.kraus_operators)))
    return DensityOperator(gram(images, images))


def distance_up_to_phase(x, y) -> float:
    """Euclidean distance after aligning the global phase of x to y."""
    inner = dot(conj(y), x)
    size = norm((inner,))
    pr, pi = (inner.real / size, inner.imag / size) if size > 0 else (1.0, 0.0)
    # x / phase = x * conj(phase), as |phase| = 1
    return norm([complex(a.real * pr + a.imag * pi - b.real, a.imag * pr - a.real * pi - b.imag)
                 for a, b in zip(x, y)])
