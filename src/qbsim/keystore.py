"""Pairwise one-time key streams.

Models pre-shared key material: each unordered party pair owns a stream
of fixed-width uniformly random blocks, consumed strictly once, with a
configurable budget standing in for the amount of key the pair
established. In-model the blocks come from a SHAKE-256 expansion keyed
by the scenario master seed and the pair, which keeps streams
deterministic per seed and independent of consumption order elsewhere.
"""

from __future__ import annotations

import hashlib

from .errors import KeyExhaustionError
from .parties import PartyId

BLOCK_BYTES = 16  # 128-bit blocks: two 64-bit MAC key halves
DEFAULT_BUDGET = 65536
_CHUNK = 64  # blocks expanded per XOF call


class KeyStore:
    """Per-pair block streams with one-time consumption discipline."""

    def __init__(self, master_seed: int, budget: int = DEFAULT_BUDGET):
        self._seed = master_seed
        self.budget = budget
        self._chunks: dict[tuple[tuple[PartyId, PartyId], int], bytes] = {}
        self._consumed: dict[tuple[PartyId, PartyId], int] = {}

    @staticmethod
    def _pair(a: PartyId, b: PartyId) -> tuple[PartyId, PartyId]:
        return (a, b) if a.sort_key <= b.sort_key else (b, a)

    def _block(self, pair: tuple[PartyId, PartyId], index: int) -> bytes:
        chunk_index, offset = divmod(index, _CHUNK)
        raw = self._chunks.get((pair, chunk_index))
        if raw is None:
            seed_material = (f"qbsim-keys|{self._seed}|{pair[0]}|{pair[1]}|{chunk_index}"
                             .encode("ascii"))
            raw = hashlib.shake_256(seed_material).digest(BLOCK_BYTES * _CHUNK)
            self._chunks[(pair, chunk_index)] = raw
        start = offset * BLOCK_BYTES
        return raw[start:start + BLOCK_BYTES]

    def consume(self, a: PartyId, b: PartyId) -> tuple[int, bytes]:
        """Next unused block for the unordered pair; each index is spent once."""
        pair = self._pair(a, b)
        index = self._consumed.get(pair, 0)
        if index >= self.budget:
            raise KeyExhaustionError(
                f"key budget ({self.budget} blocks) exhausted for {pair[0]}-{pair[1]}")
        self._consumed[pair] = index + 1
        return index, self._block(pair, index)

    def block_at(self, a: PartyId, b: PartyId, index: int) -> bytes:
        """Look up an already-issued block (receiver-side verification)."""
        pair = self._pair(a, b)
        if index >= self._consumed.get(pair, 0):
            raise KeyExhaustionError(f"block {index} was never issued for {pair[0]}-{pair[1]}")
        return self._block(pair, index)
