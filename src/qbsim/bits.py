"""Fixed-length bit strings: lottery tickets and serialized bids.

A BitString is immutable. Bit 0 is the most significant position, so the
text form reads left to right and the integer form is big-endian.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DimensionMismatchError, QbsimError


class BitString:
    __slots__ = ("_value", "_length")

    def __init__(self, bits: Iterable[int]):
        value = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise QbsimError(f"bit values must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            length += 1
        if length == 0:
            raise QbsimError("bit strings must be non-empty")
        self._value = value
        self._length = length

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        if length < 1:
            raise QbsimError("bit strings must be non-empty")
        if value < 0 or value >> length:
            raise QbsimError(f"value {value} does not fit in {length} bits")
        out = cls.__new__(cls)
        out._value = value
        out._length = length
        return out

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if not text or set(text) - {"0", "1"}:
            raise QbsimError(f"not a bit string literal: {text!r}")
        return cls.from_int(int(text, 2), len(text))

    @classmethod
    def random(cls, rng, length: int) -> "BitString":
        # one draw per 32-bit limb, most significant first; another limb
        # width would change every seeded ticket
        value = 0
        remaining = length
        while remaining > 0:
            take = min(32, remaining)
            value = (value << take) | int(rng.integers(0, 1 << take))
            remaining -= take
        return cls.from_int(value, length)

    @property
    def value(self) -> int:
        return self._value

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length - 1, -1, -1):
            yield (self._value >> i) & 1

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return (self._value >> (self._length - 1 - index)) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._value == other._value
            and self._length == other._length
        )

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        return f"BitString({self.text!r})"

    @property
    def text(self) -> str:
        return format(self._value, f"0{self._length}b")

    def to_bytes(self) -> bytes:
        return self._value.to_bytes((self._length + 7) // 8, "big")

    def xor(self, other: "BitString") -> "BitString":
        if len(other) != self._length:
            raise DimensionMismatchError(
                f"length mismatch: {self._length} vs {len(other)}"
            )
        return BitString.from_int(self._value ^ other._value, self._length)

    def hamming_distance(self, other: "BitString") -> int:
        if len(other) != self._length:
            raise DimensionMismatchError(
                f"length mismatch: {self._length} vs {len(other)}"
            )
        return (self._value ^ other._value).bit_count()

    def flip(self, index: int) -> "BitString":
        if not 0 <= index < self._length:
            raise IndexError(index)
        return BitString.from_int(
            self._value ^ (1 << (self._length - 1 - index)), self._length
        )


def xor_all(tickets: Iterable[BitString]) -> BitString:
    """Position-wise XOR fold; the lottery's winning-ticket rule."""
    tickets = list(tickets)
    if not tickets:
        raise QbsimError("cannot XOR an empty ticket list")
    acc = tickets[0]
    for t in tickets[1:]:
        acc = acc.xor(t)
    return acc
