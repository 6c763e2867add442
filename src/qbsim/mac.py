"""One-time message authentication: Wegman-Carter polynomial hashing.

Each message consumes one fresh key block holding two field elements
(r, s); the tag is Horner evaluation of the payload's chunks at r,
reduced mod p at every step, plus the one-time mask s. Every chunk
carries a constant high bit and the byte length is appended as a final
chunk, which makes the padded chunk sequence injective in the payload; two distinct payloads therefore
collide for at most (chunks + 2) values of r, giving a forgery bound of
(chunks + 2) / p per attempt against an adversary without the key.

The 64-bit halves of a key block are reduced mod p, which skews
per-element probabilities by at most 9/8 for the default field; at the
simulator's scale this is a documented constant-factor slack on the
bound, not a structural weakness.
"""

from __future__ import annotations

from dataclasses import dataclass

# Default field: Mersenne prime 2^61 - 1 (tags serialize in 8 bytes).
DEFAULT_PRIME = (1 << 61) - 1
# Small fields for the soundness stress tests.
PRIME_16 = 65521
PRIME_32 = 4294967291


@dataclass(frozen=True)
class PolyMac:
    """Polynomial-evaluation one-time MAC over GF(prime)."""

    prime: int = DEFAULT_PRIME

    @property
    def chunk_bits(self) -> int:
        # High-bit head-room: chunk + 2^chunk_bits stays below the prime.
        return self.prime.bit_length() - 2

    def key_from_block(self, block: bytes) -> tuple[int, int]:
        # r from the first half of the block, s from the rest
        tail_bits = (len(block) - len(block) // 2) * 8
        whole = int.from_bytes(block, "big")
        return (whole >> tail_bits) % self.prime, (whole & ((1 << tail_bits) - 1)) % self.prime

    def hash_payload(self, r: int, payload: bytes) -> int:
        """The polynomial hash at r: the tag under the mask s = 0."""
        return self.tag((r, 0), payload)

    def tag(self, key: tuple[int, int], payload: bytes) -> int:
        # Horner's rule at r over the chunks, most significant first, each
        # with the constant high bit, then the byte length; plus s
        r, s = key
        p = self.prime
        width = self.chunk_bits
        high = 1 << width
        mask = high - 1
        nbits = len(payload) * 8
        top = -(-nbits // width) * width  # bits in the padded chunk sequence
        padded = int.from_bytes(payload, "big") << (top - nbits)
        acc = 0
        for shift in range(top - width, -1, -width):
            acc = (acc * r + (padded >> shift & mask) + high) % p
        return (acc * r + len(payload) + s) % p

    def verify(self, key: tuple[int, int], payload: bytes, tag: int) -> bool:
        return self.tag(key, payload) == tag
