"""Numerical model of bipartite bit-commitment schemes.

Quantifies how concealing and how binding a scheme is, and exhibits the
trade-off: a perfectly concealing scheme always admits a perfect
committer cheat, which binding_attack returns as an explicit unitary.
The numerics are pure Python (`linalg`), so their results are the same
bits on every CPython build.
"""

from .states import (
    DensityOperator,
    HilbertDims,
    OpenOperation,
    PureState,
    QbcScheme,
)
from .measures import (
    BindingReport,
    apply_open,
    binding_attack,
    concealing_defect,
    distance_up_to_phase,
    partial_trace_a,
    trace_distance,
)
from .io import load_scheme, scheme_from_dict, scheme_to_dict

__all__ = [
    "BindingReport",
    "DensityOperator",
    "HilbertDims",
    "OpenOperation",
    "PureState",
    "QbcScheme",
    "apply_open",
    "binding_attack",
    "concealing_defect",
    "distance_up_to_phase",
    "load_scheme",
    "partial_trace_a",
    "scheme_from_dict",
    "scheme_to_dict",
    "trace_distance",
]
