"""Construction invariants for the state objects."""

import numpy as np
import pytest

from qbsim.errors import SchemeValidationError, StateValidationError
from qbsim.qbc import (
    DensityOperator,
    HilbertDims,
    OpenOperation,
    PureState,
    QbcScheme,
)

from oracles import random_pure_state


def test_dims_must_be_positive():
    with pytest.raises(StateValidationError):
        HilbertDims(0, 2)
    with pytest.raises(StateValidationError):
        HilbertDims(2, -1)


def test_dims_product_cap():
    with pytest.raises(StateValidationError):
        HilbertDims(9, 8)  # 72 > 64
    assert HilbertDims(8, 8).total == 64


def test_pure_state_requires_unit_norm():
    dims = HilbertDims(2, 2)
    with pytest.raises(StateValidationError):
        PureState(dims, [1.0, 1.0, 0.0, 0.0])
    state = PureState.normalized(dims, [1.0, 1.0, 0.0, 0.0])
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_pure_state_amplitudes_are_frozen():
    state = PureState.basis(HilbertDims(2, 2), 0, 0)
    with pytest.raises(TypeError):  # a tuple
        state.amplitudes[0] = 0.0


def test_density_operator_invariants():
    with pytest.raises(StateValidationError):
        DensityOperator(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(StateValidationError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(StateValidationError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    ok = DensityOperator(np.diag([0.25, 0.75]))
    assert ok.dim == 2


def test_open_operation_must_be_trace_preserving_and_non_empty():
    with pytest.raises(StateValidationError):
        OpenOperation([])
    with pytest.raises(StateValidationError):
        OpenOperation([np.eye(2) * 0.5])
    op = OpenOperation([np.eye(2) / np.sqrt(2), np.diag([1, -1]) / np.sqrt(2)])
    assert len(op.kraus_operators) == 2


def test_scheme_rejects_indistinguishable_openings():
    dims = HilbertDims(2, 2)
    rng = np.random.default_rng(3)
    state = random_pure_state(dims, rng)
    with pytest.raises(SchemeValidationError):
        QbcScheme(dims, state, state, OpenOperation.identity(4))


def test_scheme_records_open_distinguishability():
    dims = HilbertDims(2, 2)
    c0 = PureState.basis(dims, 0, 0)
    c1 = PureState.basis(dims, 0, 1)
    scheme = QbcScheme(dims, c0, c1, OpenOperation.identity(4))
    assert scheme.open_distinguishability > 0.99
