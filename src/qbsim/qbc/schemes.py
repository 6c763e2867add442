"""The two textbook schemes at the ends of the concealing/binding trade-off."""

from __future__ import annotations

from math import sqrt

from .states import HilbertDims, OpenOperation, PureState, QbcScheme


def bell_pair_scheme() -> QbcScheme:
    """Maximally entangled commitments: perfectly concealing, not binding.

    Both commitments reduce to the maximally mixed state on B, and the
    bit-flip unitary on A maps one onto the other.
    """
    dims = HilbertDims(2, 2)
    s = 1 / sqrt(2)
    c0 = PureState(dims, [s, 0, 0, s])  # (|00> + |11>)/sqrt(2)
    c1 = PureState(dims, [0, s, s, 0])  # (|01> + |10>)/sqrt(2)
    return QbcScheme(dims, c0, c1, OpenOperation.identity(4))


def product_scheme() -> QbcScheme:
    """Bit stored directly on B: perfectly binding, not concealing at all."""
    dims = HilbertDims(2, 2)
    c0 = PureState.basis(dims, 0, 0)
    c1 = PureState.basis(dims, 0, 1)
    return QbcScheme(dims, c0, c1, OpenOperation.identity(4))
