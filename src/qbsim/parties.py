"""Party identities: players, buyers, the seller, miners."""

from __future__ import annotations

from enum import Enum
from operator import itemgetter

from .errors import QbsimError


class Role(Enum):
    PLAYER = "player"
    BUYER = "buyer"
    SELLER = "seller"
    MINER = "miner"


# Stable one-byte codes for canonical encodings.
ROLE_CODES = {Role.PLAYER: 0, Role.BUYER: 1, Role.SELLER: 2, Role.MINER: 3}
CODE_ROLES = {code: role for role, code in ROLE_CODES.items()}
_ROLE_OF = {role.value: role for role in Role}


class PartyId(tuple):
    """A party: the tuple `(role value, index)`, e.g. `("miner", 3)`.

    Identities key every queue, stream and ledger dict on the message
    path, so they hash, compare and sort as plain tuples, in C. A party
    therefore compares equal to the plain tuple of the same value.
    `role`, `index` and `str` (`"miner:3"`) name its parts."""

    __slots__ = ()

    def __new__(cls, role: Role, index: int):
        if index < 0:
            raise QbsimError(f"party index must be non-negative, got {index}")
        return tuple.__new__(cls, (role.value, index))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self.role, self[1]

    role = property(lambda self: _ROLE_OF[self[0]])
    index = property(itemgetter(1))

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"


def player(i: int) -> PartyId:
    return PartyId(Role.PLAYER, i)


def buyer(i: int) -> PartyId:
    return PartyId(Role.BUYER, i)


def seller() -> PartyId:
    return PartyId(Role.SELLER, 0)


def miner(i: int) -> PartyId:
    return PartyId(Role.MINER, i)
