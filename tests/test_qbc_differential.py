"""The pure-Python commitment numerics against numpy's LAPACK.

Each quantity of `qbc analyze` is recomputed by numpy from the scheme's
amplitudes and Kraus operators, on the three shipped schemes and on
seeded random schemes from 2x2 to 8x8 (half of them with a random
two-operator opening, so the opened states are mixed). Both sides are
backward stable and every matrix here has entries of order one, so
matrices, eigenvalues and the scalar measures agree to TOL. The witness residual is
sqrt(2 - 2 * best overlap) for every optimal witness; near overlap 1 that
square root turns a rounding error of 1e-16 into 1e-8, hence
RESIDUAL_TOL.
"""

from pathlib import Path

import numpy as np
import pytest

from qbsim.qbc import (
    HilbertDims,
    OpenOperation,
    QbcScheme,
    apply_open,
    binding_attack,
    concealing_defect,
    load_scheme,
    partial_trace_a,
    trace_distance,
)
from qbsim.qbc.linalg import eigvalsh, svd

from oracles import haar_unitary, random_pure_state

REPO = Path(__file__).resolve().parent.parent
TOL = 1e-12
RESIDUAL_TOL = 1e-7

SHIPPED = ["bell_pair.json", "concealing_dim3.json", "product.json"]
RANDOM_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4), (8, 2), (2, 8), (8, 8)]


def random_opening(dim: int, rng) -> OpenOperation:
    """sqrt(p) U1 and sqrt(1 - p) U2 for Haar unitaries U1, U2."""
    p = rng.uniform(0.2, 0.8)
    return OpenOperation([np.sqrt(p) * haar_unitary(dim, rng),
                          np.sqrt(1 - p) * haar_unitary(dim, rng)])


def seeded_scheme(index: int) -> QbcScheme:
    dims = HilbertDims(*RANDOM_DIMS[index])
    rng = np.random.default_rng(1000 + index)
    c0, c1 = random_pure_state(dims, rng), random_pure_state(dims, rng)
    opening = (random_opening(dims.total, rng) if index % 2
               else OpenOperation.identity(dims.total))
    return QbcScheme(dims, c0, c1, opening)


def schemes():
    for name in SHIPPED:
        yield pytest.param(lambda name=name: load_scheme(str(REPO / "schemes" / name)), id=name)
    for index, dims in enumerate(RANDOM_DIMS):
        yield pytest.param(lambda index=index: seeded_scheme(index),
                           id=f"random-{dims[0]}x{dims[1]}-{'kraus' if index % 2 else 'id'}")


def np_marginal(amplitudes, dims: HilbertDims) -> np.ndarray:
    psi = np.asarray(amplitudes).reshape(dims.dim_a, dims.dim_b)
    return psi.T @ psi.conj()


def np_opened(scheme: QbcScheme, amplitudes) -> np.ndarray:
    psi = np.asarray(amplitudes)
    rho = np.outer(psi, psi.conj())
    return sum(np.asarray(k) @ rho @ np.asarray(k).conj().T for k in scheme.open_op.kraus_operators)


def np_trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.clip(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum(), 0.0, 1.0))


@pytest.mark.parametrize("make", schemes())
def test_commitment_numerics_match_numpy(make):
    scheme = make()
    dims = scheme.dims
    marginals = [np_marginal(c.amplitudes, dims) for c in (scheme.c0, scheme.c1)]
    opened = [np_opened(scheme, c.amplitudes) for c in (scheme.c0, scheme.c1)]

    for ours, theirs in [(partial_trace_a(scheme.c0), marginals[0]),
                         (partial_trace_a(scheme.c1), marginals[1]),
                         (apply_open(scheme.open_op, scheme.c0), opened[0]),
                         (apply_open(scheme.open_op, scheme.c1), opened[1])]:
        assert np.max(np.abs(np.asarray(ours.matrix) - theirs)) <= TOL
        assert np.max(np.abs(np.array(eigvalsh(ours.matrix))
                             - np.linalg.eigvalsh(theirs))) <= TOL
    for pair in (marginals, opened):
        difference = pair[0] - pair[1]
        assert np.max(np.abs(np.array(eigvalsh(difference.tolist()))
                             - np.linalg.eigvalsh(difference))) <= TOL

    assert abs(trace_distance(partial_trace_a(scheme.c0), partial_trace_a(scheme.c1))
               - np_trace_distance(*marginals)) <= TOL
    assert abs(concealing_defect(scheme) - np_trace_distance(*marginals)) <= TOL
    assert abs(scheme.open_distinguishability - np_trace_distance(*opened)) <= TOL

    psi0 = np.asarray(scheme.c0.as_matrix())
    psi1 = np.asarray(scheme.c1.as_matrix())
    overlap = psi0 @ psi1.conj().T
    v, s, wh = np.linalg.svd(overlap)
    attack = binding_attack(scheme)
    assert abs(attack.best_overlap - np.clip(s.sum(), 0.0, 1.0)) <= TOL
    assert abs(attack.strength - (1.0 - np.clip(s.sum(), 0.0, 1.0))) <= TOL

    witness = np.asarray(attack.witness_unitary)
    assert np.max(np.abs(witness @ witness.conj().T - np.eye(dims.dim_a))) <= TOL
    assert abs(np.trace(witness @ overlap) - s.sum()) <= TOL  # the witness attains the optimum

    def residual(u: np.ndarray) -> float:
        moved = (u @ psi0).reshape(-1)
        target = psi1.reshape(-1)
        inner = np.vdot(target, moved)
        phase = inner / abs(inner) if abs(inner) > 0 else 1.0
        return float(np.linalg.norm(moved / phase - target))

    assert abs(attack.witness_residual - residual(witness)) <= TOL
    assert abs(attack.witness_residual - residual(wh.conj().T @ v.conj().T)) <= RESIDUAL_TOL


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (5, 5), (8, 8)])
def test_svd_of_random_and_rank_deficient_matrices_matches_numpy(shape):
    rng = np.random.default_rng(shape[0])
    full = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rank_one = np.outer(full[:, 0], full[0].conj())
    for matrix in (full, rank_one, np.zeros(shape)):
        s, u, v = svd(matrix.tolist())
        u, v = np.asarray(u), np.asarray(v)
        assert np.max(np.abs(np.sort(s) - np.sort(np.linalg.svd(matrix, compute_uv=False)))) <= TOL
        for unitary in (u, v):
            assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(shape[0]))) <= TOL
        assert np.max(np.abs(u @ np.diag(s) @ v.conj().T - matrix)) <= TOL


def test_the_completion_of_a_zero_overlap_is_the_identity():
    """Psi0 Psi1^dagger = 0 for `product`: the Gram-Schmidt completion of
    the standard basis in index order gives the identity witness."""
    s, u, v = svd([[0j, 0j], [0j, 0j]])
    assert s == [0.0, 0.0]
    assert u == v == ((1 + 0j, 0j), (0j, 1 + 0j))
    scheme = load_scheme(str(REPO / "schemes" / "product.json"))
    assert binding_attack(scheme).witness_unitary == ((1 + 0j, 0j), (0j, 1 + 0j))
