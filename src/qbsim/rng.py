"""Deterministic randomness derivation.

Every random decision in a run is drawn from a substream keyed by the
scenario master seed plus a structural path (party, purpose, run index...),
so removing one party or changing the worker count never shifts anyone
else's draws.

Substream `(seed, *path)` is the big-endian 64-bit words of
`shake_256(b"qbsim-rng|" + key + b"|" + chunk)` (NIST FIPS 202), read
one 136-byte chunk at a time: `key` is the `ascii()` text of the tuple
`(seed, *path)`, each integral item as its value and any other as its
`str`, and `chunk` counts 0, 1, 2... in decimal. So `hashlib` alone
recomputes any draw of a run. Nothing is hashed before the first draw.
"""

import hashlib
import itertools
import operator
import struct
from numbers import Integral

_CHUNK = struct.Struct(">17Q")  # one SHAKE-256 squeeze block


def _key(master_seed, path) -> bytes:
    """An injective text of `(seed, *path)`, the same on every Python."""
    items = [operator.index(item) if isinstance(item, Integral) else str(item) for item in path]
    return ascii((operator.index(master_seed), *items)).encode()


def _words(key: bytes):
    prefix = b"qbsim-rng|" + key + b"|"
    for chunk in itertools.count():
        yield from _CHUNK.unpack(hashlib.shake_256(b"%s%d" % (prefix, chunk)).digest(_CHUNK.size))


class Generator:
    """The draws qbsim makes from one substream."""

    __slots__ = ("_next",)

    def __init__(self, key: bytes):
        self._next = _words(key).__next__

    def integers(self, low, high) -> int:
        """Uniform in [low, high): a word's top bits that cover the span,
        redrawn until they fall in it."""
        low, high = operator.index(low), operator.index(high)
        span = high - low
        if not 0 < span <= 1 << 64:
            raise ValueError(f"need low < high <= low + 2**64, got [{low}, {high})")
        shift = 64 - (span - 1).bit_length()
        draw = self._next() >> shift
        while draw >= span:
            draw = self._next() >> shift
        return low + draw

    def random(self) -> float:
        """One double in [0, 1) from the top 53 bits of a word."""
        return (self._next() >> 11) * 2.0**-53

    def permutation(self, n) -> list[int]:
        """`range(n)` shuffled by Fisher-Yates over `integers`."""
        out = list(range(n))
        for i in range(len(out) - 1, 0, -1):
            j = self.integers(0, i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def generator(master_seed: int, *path) -> Generator:
    return Generator(_key(master_seed, path))


def derive_seed(master_seed: int, *path) -> int:
    """A 63-bit sub-seed, e.g. the per-run seed of batch run #i, from
    `shake_256(b"qbsim-seed|" + key)`: a stream apart from the substream."""
    digest = hashlib.shake_256(b"qbsim-seed|" + _key(master_seed, path)).digest(8)
    return int.from_bytes(digest, "big") >> 1
