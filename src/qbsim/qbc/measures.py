"""Distinguishability measures and the concealing/binding quantities.

Conventions: trace distance D(rho, sigma) = (1/2)||rho - sigma||_1 and
square-root fidelity F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)),
so 1 - F <= D <= sqrt(1 - F^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError
from .states import DensityOperator, OpenOperation, PureState, QbcScheme


def partial_trace_a(state: PureState) -> DensityOperator:
    """Reduced state on B: what the receiver holds before opening."""
    m = state.as_matrix()
    # rho_B[b, b'] = sum_a psi[a, b] * conj(psi[a, b'])
    return DensityOperator(m.T @ m.conj())


def _check_same_dim(rho: DensityOperator, sigma: DensityOperator):
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    _check_same_dim(rho, sigma)
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.clip(0.5 * np.abs(eigs).sum(), 0.0, 1.0))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(matrix)
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    _check_same_dim(rho, sigma)
    product = _psd_sqrt(rho.matrix) @ _psd_sqrt(sigma.matrix)
    return float(np.clip(np.linalg.svd(product, compute_uv=False).sum(), 0.0, 1.0))


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
    witness_unitary: np.ndarray
    witness_residual: float


def _overlap_matrix(scheme: QbcScheme) -> np.ndarray:
    # <c1|(U x I)|c0> = Tr(U @ N) with N = Psi0 @ Psi1^dagger on A.
    psi0 = scheme.c0.as_matrix()
    psi1 = scheme.c1.as_matrix()
    return psi0 @ psi1.conj().T


def binding_attack(scheme: QbcScheme) -> BindingReport:
    """Maximize |<c1|(U x I_B)|c0>| over unitaries U on A.

    The maximum is the nuclear norm of Psi0 Psi1^dagger (equivalently the
    fidelity of the two B-marginals), attained at U = W V^dagger from the
    SVD V S W^dagger of that matrix; U is returned as an explicit witness.
    """
    n = _overlap_matrix(scheme)
    v, s, wh = np.linalg.svd(n)
    best = float(np.clip(s.sum(), 0.0, 1.0))
    witness = wh.conj().T @ v.conj().T
    moved = (witness @ scheme.c0.as_matrix()).reshape(-1)
    residual = distance_up_to_phase(moved, scheme.c1.amplitudes)
    return BindingReport(
        strength=1.0 - best,
        best_overlap=best,
        witness_unitary=witness,
        witness_residual=residual,
    )


def apply_open(op: OpenOperation, state: PureState) -> DensityOperator:
    if op.dim != state.dims.total:
        raise DimensionMismatchError(
            f"opening acts on dim {op.dim}, state lives on {state.dims.total}"
        )
    rho = state.projector()
    out = np.zeros_like(rho)
    for k in op.kraus_operators:
        out += k @ rho @ k.conj().T
    return DensityOperator(out)


def distance_up_to_phase(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean distance after aligning the global phase of x to y."""
    inner = np.vdot(y, x)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(x / phase - y))

