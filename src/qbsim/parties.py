"""Party identities: players, buyers, the seller, miners. A role is its
name; its one-byte wire code is its position in `ROLES`."""

from __future__ import annotations

from operator import itemgetter

from .errors import QbsimError

# A role's canonical code is its position: append a new role, never reorder.
ROLES = ("player", "buyer", "seller", "miner")


class PartyId(tuple):
    """A party: the tuple `(role, index)`, e.g. `("miner", 3)`.

    Identities key every queue, stream and ledger dict on the message
    path, so they hash, compare and sort as plain tuples, in C. A party
    therefore compares equal to the plain tuple of the same value.
    `role`, `index` and `str` (`"miner:3"`) name its parts."""

    __slots__ = ()

    def __new__(cls, role: str, index: int):
        if role not in ROLES:
            raise QbsimError(f"unknown role {role!r} (expected one of {', '.join(ROLES)})")
        if index < 0:
            raise QbsimError(f"party index must be non-negative, got {index}")
        return tuple.__new__(cls, (role, index))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)

    role = property(itemgetter(0))
    index = property(itemgetter(1))

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"


def player(i: int) -> PartyId:
    return PartyId("player", i)


def buyer(i: int) -> PartyId:
    return PartyId("buyer", i)


def seller() -> PartyId:
    return PartyId("seller", 0)


def miner(i: int) -> PartyId:
    return PartyId("miner", i)
