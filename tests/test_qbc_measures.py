"""Measure-level tests built around independent oracles.

The oracles here deliberately avoid the implementation's code paths:
partial trace by explicit index summation, trace distance via singular
values, fidelity via the pure-state overlap special case, and binding
via direct numerical maximization over parameterized unitaries.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from qbsim.errors import DimensionMismatchError
from qbsim.qbc import (
    DensityOperator,
    HilbertDims,
    OpenOperation,
    PureState,
    QbcScheme,
    apply_open,
    binding_attack,
    concealing_defect,
    distance_up_to_phase,
    partial_trace_a,
    trace_distance,
)
from qbsim.qbc.schemes import bell_pair_scheme, product_scheme

from oracles import exactly_concealing_scheme, fidelity, random_pure_state, random_scheme


# ---------------------------------------------------------------- oracles


def partial_trace_oracle(state: PureState) -> np.ndarray:
    """Explicit double loop over B indices, summing over the A basis."""
    da, db = state.dims.dim_a, state.dims.dim_b
    psi = state.amplitudes
    rho = np.zeros((db, db), dtype=np.complex128)
    for b in range(db):
        for bp in range(db):
            acc = 0.0 + 0.0j
            for a in range(da):
                acc += psi[a * db + b] * np.conj(psi[a * db + bp])
            rho[b, bp] = acc
    return rho


def trace_distance_oracle(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * np.linalg.svd(np.asarray(rho) - np.asarray(sigma), compute_uv=False).sum()


def unitary_from_angles(theta: float, phi: float, psi: float) -> np.ndarray:
    """2x2 unitary up to global phase; the global phase cannot change |<.|.>|."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c * np.exp(1j * phi), s * np.exp(1j * psi)],
            [-s * np.exp(-1j * psi), c * np.exp(-1j * phi)],
        ]
    )


def max_overlap_search(scheme: QbcScheme) -> float:
    """Grid + local polish maximization of |<c1|(U x I)|c0>| over U(2)."""
    psi0 = np.asarray(scheme.c0.as_matrix())
    psi1 = np.asarray(scheme.c1.as_matrix())

    def overlap(angles):
        u = unitary_from_angles(*angles)
        return abs(np.vdot(psi1.reshape(-1), (u @ psi0).reshape(-1)))

    grid = np.linspace(0.0, np.pi, 8)
    best_angles, best = None, -1.0
    for theta in grid:
        for phi in np.linspace(-np.pi, np.pi, 8, endpoint=False):
            for psi_ in np.linspace(-np.pi, np.pi, 8, endpoint=False):
                val = overlap((theta, phi, psi_))
                if val > best:
                    best, best_angles = val, (theta, phi, psi_)
    res = minimize(lambda a: -overlap(a), best_angles, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    return max(best, -res.fun)


def random_density(dim, rng) -> DensityOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho))


# ---------------------------------------------------------- partial trace


def test_product_state_traces_to_its_b_factor():
    dims = HilbertDims(2, 2)
    state = PureState.basis(dims, 0, 1)  # |0>_A |1>_B
    rho = partial_trace_a(state)
    assert np.allclose(rho.matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_maximally_entangled_state_has_maximally_mixed_marginal():
    dims = HilbertDims(2, 2)
    s = 1 / np.sqrt(2)
    rho = partial_trace_a(PureState(dims, [s, 0, 0, s]))
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_index_summation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        state = random_pure_state(HilbertDims(3, 2), rng)
        expected = partial_trace_oracle(state)
        got = partial_trace_a(state).matrix
        assert np.max(np.abs(got - expected)) < 1e-12


def test_partial_trace_linearity_through_mixtures():
    # alpha-weighted mixtures of projectors reduce to the weighted
    # mixture of reduced states.
    rng = np.random.default_rng(11)
    dims = HilbertDims(2, 3)
    for _ in range(20):
        s1, s2 = random_pure_state(dims, rng), random_pure_state(dims, rng)
        alpha = rng.uniform(0.1, 0.9)
        mixed = alpha * partial_trace_oracle(s1) + (1 - alpha) * partial_trace_oracle(s2)
        direct = (
            alpha * np.asarray(partial_trace_a(s1).matrix)
            + (1 - alpha) * np.asarray(partial_trace_a(s2).matrix)
        )
        assert np.max(np.abs(mixed - direct)) < 1e-12


def test_partial_trace_dimension_mismatch():
    dims22 = HilbertDims(2, 2)
    with pytest.raises(DimensionMismatchError):
        PureState(dims22, np.ones(6) / np.sqrt(6))


# --------------------------------------------------------- trace distance


def test_trace_distance_identical_states_is_zero():
    rho = DensityOperator(np.diag([0.5, 0.5]))
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states_is_one():
    rho = DensityOperator(np.diag([1.0, 0.0]))
    sigma = DensityOperator(np.diag([0.0, 1.0]))
    assert abs(trace_distance(rho, sigma) - 1.0) < 1e-12


def test_trace_distance_diagonal_example():
    rho = DensityOperator(np.diag([0.75, 0.25]))
    sigma = DensityOperator(np.diag([0.25, 0.75]))
    assert abs(trace_distance(rho, sigma) - 0.5) < 1e-12


def test_trace_distance_matches_svd_oracle_and_is_symmetric():
    rng = np.random.default_rng(13)
    for dim in (2, 3, 4):
        for _ in range(10):
            rho, sigma = random_density(dim, rng), random_density(dim, rng)
            expected = trace_distance_oracle(rho.matrix, sigma.matrix)
            assert abs(trace_distance(rho, sigma) - expected) < 1e-12
            assert abs(trace_distance(rho, sigma) - trace_distance(sigma, rho)) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_distance(DensityOperator(np.diag([1.0])), DensityOperator(np.diag([1.0, 0.0])))


# --------------------------------------------------------------- fidelity


def test_fidelity_identical_is_one_orthogonal_is_zero():
    rho = DensityOperator(np.diag([0.3, 0.7]))
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10
    assert fidelity(DensityOperator(np.diag([1, 0])), DensityOperator(np.diag([0, 1]))) < 1e-12


def test_fidelity_matches_pure_state_overlap():
    rng = np.random.default_rng(17)
    dims = HilbertDims(1, 3)
    for _ in range(20):
        s1, s2 = random_pure_state(dims, rng), random_pure_state(dims, rng)
        expected = abs(np.vdot(s1.amplitudes, s2.amplitudes))
        got = fidelity(DensityOperator(s1.projector()), DensityOperator(s2.projector()))
        assert abs(got - expected) < 1e-9


def test_fuchs_van_de_graaf_inequality_on_random_pairs():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        rho, sigma = random_density(dim, rng), random_density(dim, rng)
        d = trace_distance(rho, sigma)
        f = fidelity(rho, sigma)
        assert 1 - f <= d + 1e-9
        assert d <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9


def test_fidelity_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho, sigma = random_density(3, rng), random_density(3, rng)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10


# ------------------------------------------------- concealing and binding


def test_bell_scheme_is_perfectly_concealing_and_not_binding():
    scheme = bell_pair_scheme()
    assert concealing_defect(scheme) < 1e-10
    report = binding_attack(scheme)
    assert report.strength < 1e-6
    # The bit flip on A is the textbook witness; ours must act identically.
    assert report.witness_residual < 1e-6
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    moved = (x @ scheme.c0.as_matrix()).reshape(-1)
    assert distance_up_to_phase(moved, scheme.c1.amplitudes) < 1e-12


def test_product_scheme_is_fully_revealing_and_perfectly_binding():
    scheme = product_scheme()
    assert abs(concealing_defect(scheme) - 1.0) < 1e-12
    assert abs(binding_attack(scheme).strength - 1.0) < 1e-12


def test_concealing_defect_composes_the_two_oracles():
    rng = np.random.default_rng(29)
    for _ in range(25):
        scheme = random_scheme(HilbertDims(2, 2), rng)
        expected = trace_distance_oracle(
            partial_trace_oracle(scheme.c0), partial_trace_oracle(scheme.c1)
        )
        assert abs(concealing_defect(scheme) - expected) < 1e-12


def test_binding_closed_form_matches_unitary_search():
    rng = np.random.default_rng(31)
    for _ in range(40):
        scheme = random_scheme(HilbertDims(2, 2), rng)
        closed = binding_attack(scheme).best_overlap
        searched = max_overlap_search(scheme)
        assert abs(closed - searched) < 1e-6


def test_binding_closed_form_equals_marginal_fidelity():
    rng = np.random.default_rng(37)
    for _ in range(25):
        scheme = random_scheme(HilbertDims(2, 3), rng)
        f = fidelity(
            DensityOperator(partial_trace_oracle(scheme.c0)),
            DensityOperator(partial_trace_oracle(scheme.c1)),
        )
        assert abs(binding_attack(scheme).best_overlap - f) < 1e-9


def test_no_go_exactly_concealing_schemes_are_never_binding():
    rng = np.random.default_rng(41)
    for dim in (2, 3):
        for _ in range(20):
            scheme = exactly_concealing_scheme(dim, rng)
            assert concealing_defect(scheme) < 1e-10
            report = binding_attack(scheme)
            assert report.strength < 1e-6
            # witness soundness: the returned unitary really moves c0 to c1
            assert report.witness_residual < 1e-6


def test_witness_is_unitary():
    rng = np.random.default_rng(43)
    scheme = random_scheme(HilbertDims(3, 2), rng)
    u = np.asarray(binding_attack(scheme).witness_unitary)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)


# ------------------------------------------------------------- apply_open


def test_identity_open_preserves_projectors():
    rng = np.random.default_rng(47)
    state = random_pure_state(HilbertDims(2, 2), rng)
    out = apply_open(OpenOperation.identity(4), state)
    assert np.allclose(out.matrix, state.projector(), atol=1e-12)


def test_open_keeps_orthogonal_product_states_distinguishable():
    scheme = product_scheme()
    d = trace_distance(
        apply_open(scheme.open_op, scheme.c0), apply_open(scheme.open_op, scheme.c1)
    )
    assert d > 0.99
