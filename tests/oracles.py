"""Shared independent oracles used by unit and acceptance tests.

Everything here reimplements the checked computation from scratch
(struct-level parsing, straight-line arithmetic) so a transcription bug
in the package cannot hide behind its own code paths. ExplicitDomain is
the one fixture: a small consensus domain the tests can enumerate.
"""

import struct
from fractions import Fraction

from qbsim.consensus import BOT


class ExplicitDomain:
    """Finite candidate set; BOT is always a member."""

    def __init__(self, values):
        self.values = frozenset(bytes(v) for v in values) | {BOT}

    def contains(self, value: bytes) -> bool:
        return value in self.values


def recompute_lottery_from_ledger(body: bytes, ticket_bits: int, cheat_policy: str) -> dict:
    """Parse a ticket-list ledger body with a local parser and redo the
    XOR, distances and revenue shares from first principles."""
    tag, count = struct.unpack_from(">BH", body, 0)
    assert tag == 0x01
    pos = 3
    opened = {}
    for _ in range(count):
        idx, code = struct.unpack_from(">HB", body, pos)
        pos += 3
        if code == 0:
            (bitlen,) = struct.unpack_from(">H", body, pos)
            pos += 2
            nbytes = (bitlen + 7) // 8
            opened[idx] = int.from_bytes(body[pos:pos + nbytes], "big")
            pos += nbytes
    assert pos == len(body)
    if (cheat_policy == "abort" and len(opened) != count) or not opened:
        return {"aborted": True}
    acc = 0
    for value in opened.values():
        acc ^= value
    distances = {i: bin(value ^ acc).count("1") for i, value in opened.items()}
    weights = {i: ticket_bits - d + 1 for i, d in distances.items()}
    total = sum(weights.values())
    return {
        "aborted": False,
        "winning": acc,
        "distances": distances,
        "revenues": {i: Fraction(w, total) for i, w in weights.items()},
    }


def lottery_result_matches_ledger(result, ticket_bits: int, cheat_policy: str) -> bool:
    oracle = recompute_lottery_from_ledger(result.decided_body, ticket_bits, cheat_policy)
    out = result.outcome
    if oracle["aborted"] != out.aborted:
        return False
    if out.aborted:
        return True
    if oracle["winning"] != out.winning.value:
        return False
    if oracle["distances"] != out.distances:
        return False
    return all(out.revenues[i] == share for i, share in oracle["revenues"].items())


def reference_hash_payload(prime: int, r: int, payload: bytes) -> int:
    """Wegman-Carter polynomial hash by one shift and mask per chunk:
    chunks of bit_length(prime) - 2 bits, most significant first, the
    last one zero-padded, each with a constant high bit, then the byte
    length as a final coefficient, evaluated at r mod prime."""
    cb = prime.bit_length() - 2
    high = 1 << cb
    mask = high - 1
    nbits = len(payload) * 8
    nchunks = -(-nbits // cb) if nbits else 0
    padded = int.from_bytes(payload, "big") << (nchunks * cb - nbits) if nbits else 0
    acc = 0
    for i in range(nchunks - 1, -1, -1):
        acc = (acc * r + ((padded >> (i * cb)) & mask) + high) % prime
    return (acc * r + len(payload)) % prime


def auction_argmax(bids: dict) -> tuple[int, set]:
    """Brute-force winning bid and argmax set over {index: value}."""
    top = max(bids.values())
    return top, {i for i, v in bids.items() if v == top}
