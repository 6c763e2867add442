"""Party identities: players, buyers, the seller, miners."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import QbsimError


class Role(Enum):
    PLAYER = "player"
    BUYER = "buyer"
    SELLER = "seller"
    MINER = "miner"


# Stable one-byte codes for canonical encodings.
ROLE_CODES = {Role.PLAYER: 0, Role.BUYER: 1, Role.SELLER: 2, Role.MINER: 3}
CODE_ROLES = {code: role for role, code in ROLE_CODES.items()}


@dataclass(frozen=True, eq=False)
class PartyId:
    role: Role
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise QbsimError(f"party index must be non-negative, got {self.index}")
        # identities key every queue/ledger dict and name every logged
        # message on the hot path; cache the hash, sort key and text
        # instead of re-deriving them per use
        object.__setattr__(self, "sort_key", (self.role.value, self.index))
        object.__setattr__(self, "_hash", hash(self.sort_key))
        object.__setattr__(self, "_str", f"{self.role.value}:{self.index}")

    def __eq__(self, other) -> bool:
        return (self is other
                or (isinstance(other, PartyId) and self.sort_key == other.sort_key))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str

    def __lt__(self, other: "PartyId") -> bool:
        return self.sort_key < other.sort_key


def player(i: int) -> PartyId:
    return PartyId(Role.PLAYER, i)


def buyer(i: int) -> PartyId:
    return PartyId(Role.BUYER, i)


def seller() -> PartyId:
    return PartyId(Role.SELLER, 0)


def miner(i: int) -> PartyId:
    return PartyId(Role.MINER, i)
