"""Pairwise one-time key streams.

Models pre-shared key material: each unordered party pair owns a stream
of fixed-width uniformly random blocks, consumed strictly once, with a
configurable budget standing in for the amount of key the pair
established. In-model the blocks come from a SHAKE-256 expansion keyed
by the scenario master seed and the pair, which keeps streams
deterministic per seed and independent of consumption order elsewhere.
Spending a block and reading it are apart: a block is expanded only
when `block_at` reads it, which the transport does only for a message
an adversary hook sees.
"""

from __future__ import annotations

import hashlib

from .errors import KeyExhaustionError
from .parties import PartyId

BLOCK_BYTES = 16  # 128-bit blocks: two 64-bit MAC key halves
DEFAULT_BUDGET = 65536
_CHUNK = 64  # blocks expanded per XOF call


class _Stream:
    """One unordered pair's key stream: the blocks issued so far and the
    SHAKE chunks expanded so far, keyed by chunk index."""

    __slots__ = ("seed_prefix", "issued", "chunks")

    def __init__(self, master_seed: int, first: PartyId, second: PartyId):
        self.seed_prefix = f"qbsim-keys|{master_seed}|{first}|{second}|"
        self.issued = 0
        self.chunks: dict[int, bytes] = {}

    def block(self, index: int) -> bytes:
        chunk_index, offset = divmod(index, _CHUNK)
        raw = self.chunks.get(chunk_index)
        if raw is None:
            seed_material = f"{self.seed_prefix}{chunk_index}".encode("ascii")
            raw = self.chunks[chunk_index] = hashlib.shake_256(seed_material).digest(
                BLOCK_BYTES * _CHUNK)
        start = offset * BLOCK_BYTES
        return raw[start:start + BLOCK_BYTES]


class KeyStore:
    """Per-pair block streams with one-time consumption discipline."""

    def __init__(self, master_seed: int, budget: int = DEFAULT_BUDGET):
        self._seed = master_seed
        self.budget = budget
        # both orders of a pair key its one stream, so a lookup is one probe
        self._streams: dict[tuple[PartyId, PartyId], _Stream] = {}

    def consume(self, a: PartyId, b: PartyId) -> int:
        """Spend the next unused block of the unordered pair and return its
        index; each index is spent once. The block itself is not expanded:
        `block_at` reads it when a tag needs it."""
        stream = self._streams.get((a, b))
        if stream is None:
            stream = self._streams[a, b] = self._streams[b, a] = _Stream(
                self._seed, *sorted((a, b)))
        index = stream.issued
        if index >= self.budget:
            raise KeyExhaustionError(
                f"key budget ({self.budget} blocks) exhausted for {_pair_text(a, b)}")
        stream.issued = index + 1
        return index

    def block_at(self, a: PartyId, b: PartyId, index: int) -> bytes:
        """Block `index` of the pair, once it is checked to have been issued:
        the key of a tag, and at delivery the receiver's check of a tagged
        message's index. Only here is a SHAKE chunk expanded."""
        stream = self._streams.get((a, b))
        if stream is None or not 0 <= index < stream.issued:
            raise KeyExhaustionError(f"block {index} was never issued for {_pair_text(a, b)}")
        return stream.block(index)


def _pair_text(a: PartyId, b: PartyId) -> str:
    first, second = sorted((a, b))
    return f"{first}-{second}"
