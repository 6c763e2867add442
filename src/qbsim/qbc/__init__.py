"""Numerical model of bipartite bit-commitment schemes.

Quantifies how concealing and how binding a scheme is, and exhibits the
trade-off: a perfectly concealing scheme always admits a perfect
committer cheat, which binding_attack returns as an explicit unitary.
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
    fidelity,
    partial_trace_a,
    trace_distance,
)
from .schemes import (
    bell_pair_scheme,
    exactly_concealing_scheme,
    product_scheme,
    random_density_matrix,
    random_pure_state,
    random_scheme,
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
    "bell_pair_scheme",
    "binding_attack",
    "concealing_defect",
    "distance_up_to_phase",
    "exactly_concealing_scheme",
    "fidelity",
    "load_scheme",
    "partial_trace_a",
    "product_scheme",
    "random_density_matrix",
    "random_pure_state",
    "random_scheme",
    "scheme_from_dict",
    "scheme_to_dict",
    "trace_distance",
]
