"""Deterministic randomness derivation.

Every random decision in a run is drawn from a substream keyed by the
scenario master seed plus a structural path (party, purpose, run index...),
so removing one party or changing the worker count never shifts anyone
else's draws.

A substream is the stream of numpy's
`Generator(PCG64(SeedSequence(entropy)))`, written in pure Python so a
run loads no numpy: SeedSequence's hash mixing of the entropy words into
a four-word pool, PCG64 XSL-RR (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014), half-word buffering for 32-bit draws, Lemire's
bounded integers (Lemire, "Fast Random Integer Generation in an
Interval", ACM TOMACS 2019) and masked rejection for shuffles.
`tests/test_rng.py` pins the equality draw for draw against numpy.
A generator computes its PCG state at its first draw, so a substream
nothing draws from costs no seeding.
"""

from __future__ import annotations

import hashlib
import operator
from numbers import Integral

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _entropy_words(master_seed, path) -> list[int]:
    """The uint32 words SeedSequence reads from `[seed, *path words]`:
    the 64-bit seed as one word or two, then two words per path item,
    least significant first. An integral item is its own value, any
    other the first eight bytes of the SHA-256 of its text, read as two
    big-endian words."""
    seed = operator.index(master_seed) & MASK64
    words = [seed & MASK32, seed >> 32] if seed >> 32 else [seed]
    for item in path:
        if isinstance(item, Integral):
            value = operator.index(item)
        else:
            digest = hashlib.sha256(str(item).encode("utf-8")).digest()
            value = int.from_bytes(digest[:4], "big") | int.from_bytes(digest[4:8], "big") << 32
        words += [value & MASK32, value >> 32 & MASK32]
    return words


_PAIRS = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst]


def _pool(words: list[int]) -> list[int]:
    """SeedSequence's entropy pool after `mix_entropy`: the first four
    words hashed into the pool, each pool word mixed into the other
    three as the pool changes, then each further word into all four.
    Every `hashmix` advances the running constant `h` by one product."""
    h = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value = (words[i] if i < len(words) else 0) ^ h
        h = h * _MULT_A & MASK32
        value = value * h & MASK32
        pool.append(value ^ value >> 16)
    sources = [(pool, src, dst) for src, dst in _PAIRS]
    sources += [(words, i, dst) for i in range(_POOL_SIZE, len(words))
                for dst in range(_POOL_SIZE)]
    for source, src, dst in sources:
        value = source[src] ^ h
        h = h * _MULT_A & MASK32
        value = value * h & MASK32
        mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & MASK32
        pool[dst] = mixed ^ mixed >> 16
    return pool


# generate_state's word i XORs with _STATE_HASH[i] and multiplies by
# _STATE_HASH[i + 1]; four 64-bit words at most
_STATE_HASH = [_INIT_B * pow(_MULT_B, i, 1 << 32) & MASK32 for i in range(9)]


def _state64(pool: list[int], count: int) -> list[int]:
    """SeedSequence.generate_state(count, uint64), count <= 4."""
    words = []
    for i in range(2 * count):
        value = (pool[i % _POOL_SIZE] ^ _STATE_HASH[i]) * _STATE_HASH[i + 1] & MASK32
        words.append(value ^ value >> 16)
    return [words[2 * i] | words[2 * i + 1] << 32 for i in range(count)]


class Generator:
    """The draws of numpy's `Generator(PCG64(...))` that qbsim uses."""

    __slots__ = ("_words", "_state", "_inc", "_half")

    def __init__(self, words: list[int]):
        self._words = words
        self._state = None  # PCG state, set at the first draw
        self._inc = 0
        self._half = None  # upper half of a 64-bit output, next 32-bit draw

    def _seed(self):
        high, low, inc_high, inc_low = _state64(_pool(self._words), 4)
        self._inc = inc = ((inc_high << 64 | inc_low) << 1 | 1) & MASK128
        self._state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & MASK128

    def _next64(self) -> int:
        if self._state is None:
            self._seed()
        self._state = state = (self._state * _PCG_MULT + self._inc) & MASK128
        value = ((state >> 64) ^ state) & MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & MASK32

    def integers(self, low, high) -> int:
        """Uniform in [low, high), as `numpy.random.Generator.integers`."""
        low, high = operator.index(low), operator.index(high)
        if low >= high:
            raise ValueError("low >= high")
        span = high - low
        if span > 1 << 64:
            raise ValueError("high - low exceeds 2**64")
        if span == 1:
            return low  # numpy draws nothing for a single value
        # Lemire on 32-bit half-words up to 2**32 values, else on 64-bit
        # words; a span of 2**32 or 2**64 returns the draw unchanged
        bits, draw = (32, self._next32) if span <= 1 << 32 else (64, self._next64)
        mask = (1 << bits) - 1
        product = draw() * span
        if product & mask < span:
            threshold = (1 << bits) % span
            while product & mask < threshold:
                product = draw() * span
        return low + (product >> bits)

    def random(self) -> float:
        """One double in [0, 1) from the top 53 bits of a 64-bit output."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def permutation(self, n) -> list[int]:
        """`range(n)` shuffled by numpy's Fisher-Yates with masked
        rejection draws."""
        out = list(range(n))
        for i in range(len(out) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= MASK32 else self._next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            out[i], out[j] = out[j], out[i]
        return out


def generator(master_seed: int, *path) -> Generator:
    return Generator(_entropy_words(master_seed, path))


def derive_seed(master_seed: int, *path) -> int:
    """A 63-bit sub-seed, e.g. the per-run seed of batch run #i."""
    return _state64(_pool(_entropy_words(master_seed, path)), 1)[0] & 0x7FFFFFFFFFFFFFFF
