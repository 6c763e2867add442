"""MAC soundness, including the exhaustive small-field key-space sweep."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import reference_hash_payload
from qbsim.mac import DEFAULT_PRIME, PRIME_16, PRIME_32, PolyMac

PRIMES = (DEFAULT_PRIME, PRIME_32, PRIME_16)


def test_tag_verifies_and_tamper_fails():
    mac = PolyMac()
    key = mac.key_from_block(bytes(range(16)))
    payload = b"ticket list body"
    tag = mac.tag(key, payload)
    assert mac.verify(key, payload, tag)
    assert not mac.verify(key, payload + b"x", tag)
    assert not mac.verify(key, b"Ticket list body", tag)


@given(st.binary(min_size=0, max_size=120), st.binary(min_size=0, max_size=120))
def test_distinct_payloads_distinct_hashes_whp(a, b):
    # r fixed and random; collisions would need r to be a root of the
    # difference polynomial, measure ~L/p under the default field.
    if a == b:
        return
    mac = PolyMac()
    r = 123456789123456789 % DEFAULT_PRIME
    assert mac.hash_payload(r, a) != mac.hash_payload(r, b)


@given(st.sampled_from(PRIMES), st.binary(max_size=300), st.integers(min_value=0))
def test_hash_payload_matches_reference(prime, payload, r):
    r %= prime
    assert PolyMac(prime).hash_payload(r, payload) == reference_hash_payload(prime, r, payload)


@given(st.binary(max_size=300), st.lists(st.integers(min_value=0), min_size=2, max_size=20))
def test_one_payload_under_many_keys_and_fields_matches_reference(payload, rs):
    # one payload hashed under many keys; each field cuts its own chunks
    for prime in PRIMES:
        mac = PolyMac(prime)
        for r in rs:
            assert mac.hash_payload(r % prime, payload) == reference_hash_payload(
                prime, r % prime, payload)


@given(st.sampled_from(PRIMES), st.binary(min_size=1, max_size=300),
       st.integers(min_value=0), st.data())
def test_one_bit_changed_payload_matches_reference(prime, payload, r, data):
    r %= prime
    mac = PolyMac(prime)
    assert mac.hash_payload(r, payload) == reference_hash_payload(prime, r, payload)
    bit = data.draw(st.integers(min_value=0, max_value=len(payload) * 8 - 1))
    flipped = (int.from_bytes(payload, "big") ^ (1 << bit)).to_bytes(len(payload), "big")
    assert mac.hash_payload(r, flipped) == reference_hash_payload(prime, r, flipped)


@pytest.mark.parametrize("prime", PRIMES)
def test_hash_payload_matches_reference_at_every_length(prime):
    """Seeded payloads of every length from 0 to 200 bytes, across the
    chunk-group boundaries where the accumulator is reduced, with the
    largest and smallest keys r as well as random ones."""
    rng = random.Random(prime)
    mac = PolyMac(prime)
    for length in range(201):
        payload = rng.randbytes(length)
        for r in (0, 1, prime - 1, rng.randrange(prime), rng.randrange(prime)):
            assert mac.hash_payload(r, payload) == reference_hash_payload(prime, r, payload)


@pytest.mark.parametrize("prime", PRIMES)
def test_key_and_tag_match_their_definitions(prime):
    """A key is the block's two halves mod p, and a tag is the reference
    hash plus the mask s, mod p."""
    rng = random.Random(prime + 1)
    mac = PolyMac(prime)
    for length in (0, 1, 7, 8, 9, 31, 120):
        block, payload = rng.randbytes(16), rng.randbytes(length)
        r, s = mac.key_from_block(block)
        assert (r, s) == (int.from_bytes(block[:8], "big") % prime,
                          int.from_bytes(block[8:], "big") % prime)
        assert mac.tag((r, s), payload) == (reference_hash_payload(prime, r, payload) + s) % prime


def test_leading_zero_bytes_are_not_ambiguous():
    mac = PolyMac()
    r = 98765432123456789 % DEFAULT_PRIME
    assert mac.hash_payload(r, b"\x00\x05") != mac.hash_payload(r, b"\x05")
    assert mac.hash_payload(r, b"\x05\x00") != mac.hash_payload(r, b"\x05")
    assert mac.hash_payload(r, b"") != mac.hash_payload(r, b"\x00")


def test_exhaustive_key_space_forgery_bound_16_bit_field():
    """Sweep every r of the 16-bit field: a fixed tag-reusing forgery can
    verify only when r is a root of the difference polynomial, so the
    number of accepting keys must stay within the algebraic bound."""
    mac = PolyMac(prime=PRIME_16)
    payload = b"pay 7 to buyer 3"
    forged = b"pay 9 to buyer 3"
    max_chunks = -(-len(payload) * 8 // mac.chunk_bits) + 2
    accepting = 0
    for r in range(PRIME_16):
        # s is determined by the observed tag, so sweeping r alone
        # covers the whole key space consistent with one observation.
        if mac.hash_payload(r, payload) == mac.hash_payload(r, forged):
            accepting += 1
    assert accepting <= max_chunks
    assert accepting / PRIME_16 < 2e-3


def test_monte_carlo_forgeries_32_bit_tags_all_rejected():
    """100k random forgery attempts against 32-bit tags: the expected
    acceptance count is ~100k * L / 2^32, i.e. zero at this scale."""
    mac = PolyMac(prime=PRIME_32)
    rng = np.random.default_rng(2024)
    key = mac.key_from_block(rng.bytes(16))
    payload = b"auction outcome: winner 2 bid 7"
    true_tag = mac.tag(key, payload)
    accepted = 0
    raw = rng.bytes(100_000 * 4)
    tags = np.frombuffer(raw, dtype=np.uint32)
    flips = rng.integers(0, len(payload) * 8, size=100_000)
    payload_int = int.from_bytes(payload, "big")
    nbytes = len(payload)
    for i in range(100_000):
        forged_payload = (payload_int ^ (1 << int(flips[i]))).to_bytes(nbytes, "big")
        forged_tag = int(tags[i])
        if mac.verify(key, forged_payload, forged_tag):
            accepted += 1
    assert accepted == 0
    assert true_tag < PRIME_32

