"""Pairwise one-time key streams.

Models pre-shared key material: each unordered party pair owns a stream
of fixed-width uniformly random blocks, consumed strictly once, with a
configurable budget standing in for the amount of key the pair
established. In-model the blocks come from a SHAKE-256 expansion keyed
by the scenario master seed and the pair, which keeps streams
deterministic per seed and independent of consumption order elsewhere.
Spending a block and reading it are apart: `consume` only counts, and
`block_at` reads a block straight from the XOF, which the transport does
only for a message an adversary hook sees.
"""

from __future__ import annotations

import hashlib

from .errors import KeyExhaustionError
from .parties import PartyId

BLOCK_BYTES = 16  # 128-bit blocks: two 64-bit MAC key halves
DEFAULT_BUDGET = 65536
_CHUNK = 64  # blocks per XOF seed


class KeyStore:
    """Per-pair block streams with one-time consumption discipline."""

    def __init__(self, master_seed: int, budget: int = DEFAULT_BUDGET):
        self._seed = master_seed
        self.budget = budget
        # a pair's one issued-count cell, under both orders of the pair,
        # so a lookup is one probe
        self._issued: dict[tuple[PartyId, PartyId], list[int]] = {}

    def consume(self, a: PartyId, b: PartyId) -> int:
        """Spend the next unused block of the unordered pair and return its
        index; each index is spent once. The block itself is not read:
        `block_at` reads it when a tag needs it."""
        issued = self._issued.get((a, b))
        if issued is None:
            issued = self._issued[a, b] = self._issued[b, a] = [0]
        index = issued[0]
        if index >= self.budget:
            raise KeyExhaustionError(
                f"key budget ({self.budget} blocks) exhausted for {_pair_text(a, b)}")
        issued[0] = index + 1
        return index

    def block_at(self, a: PartyId, b: PartyId, index: int) -> bytes:
        """Block `index` of the pair, once it is checked to have been issued:
        the key of a tag, and at delivery the receiver's check of a tagged
        message's index. Block i is bytes 16(i mod 64) to 16(i mod 64 + 1)
        of the SHAKE-256 output seeded by the master seed, the pair in
        sorted order and i // 64."""
        issued = self._issued.get((a, b))
        if issued is None or not 0 <= index < issued[0]:
            raise KeyExhaustionError(f"block {index} was never issued for {_pair_text(a, b)}")
        first, second = sorted((a, b))
        chunk, offset = divmod(index, _CHUNK)
        seed_material = f"qbsim-keys|{self._seed}|{first}|{second}|{chunk}".encode("ascii")
        return hashlib.shake_256(seed_material).digest(BLOCK_BYTES * (offset + 1))[-BLOCK_BYTES:]


def _pair_text(a: PartyId, b: PartyId) -> str:
    first, second = sorted((a, b))
    return f"{first}-{second}"
