"""Canonical byte encodings of ledger record bodies and transport payloads, defined by
one table: a kind is its tag byte and its fields in wire order, big-endian, lists counted
and ordered. `encode` and `decode` both walk the fields: one Struct, the head, holds all
their fixed-width integers, and only the last field adds bytes after it. Each field
refuses every byte string its writer would not produce, so only the one encoding of a
content decodes, `encode(**decode(data)) == data` whenever `data` decodes, and a decoder
raises `EncodingError` and nothing else: a consensus value that does not decode is a BOT vote.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from operator import itemgetter

from .bits import BitString
from .errors import EncodingError
from .parties import ROLES, PartyId

# widest values: counts, party indices and bit lengths travel as ">H", bids as ">Q"
MAX_COUNT = (1 << 8 * struct.calcsize(">H")) - 1
MAX_BID_BITS = 8 * struct.calcsize(">Q")


class _Int:
    """A fixed-width unsigned integer, `fmt` its Struct code. A field that converts has
    `lift(head, at, data, pos, out)`, which sets its value in the dict `out` from the head's
    integers at `at` on and the bytes at `pos` and returns their end, and
    `lower(fields, ints)`, which appends its head integers and returns its bytes after them."""

    lift = lower = None

    def __init__(self, name: str, fmt: str | None = None):
        self.name, self.names, self.fmt = name, (name,), fmt or self.fmt


class _Party(_Int):
    """A PartyId: its role's code byte, the role's position in `ROLES`, then a ">H" index."""

    fmt = "BH"
    codes = {role: code for code, role in enumerate(ROLES)}

    def lift(self, head, at, data, pos, out):
        if head[at] >= len(ROLES):
            raise EncodingError(f"{self.name}: unknown role code {head[at]}")
        out[self.name] = PartyId(ROLES[head[at]], head[at + 1])
        return pos

    def lower(self, fields, ints):
        party = fields[self.name]
        ints += (self.codes[party.role], party.index)
        return b""


class _Bits(_Int):
    """A BitString: a ">H" length of at least 1, then whole bytes with zero padding bits."""

    fmt = "H"

    def lift(self, head, at, data, pos, out):
        length, end = head[at], pos + (head[at] + 7) // 8
        value = int.from_bytes(data[pos:end], "big")
        if not length or end > len(data) or value >> length:
            raise EncodingError(f"{self.name}: no bits, truncated, or padding bits set")
        out[self.name] = BitString.from_int(value, length)
        return end

    def lower(self, fields, ints):
        bits = fields[self.name]
        ints.append(len(bits))
        return bits.to_bytes()


class _Value(_Int):
    """A consensus value: a flag byte, a ">H" size and that many bytes; flag 1, size 0 is None."""

    fmt = "BH"

    def lift(self, head, at, data, pos, out):
        flag, size = head[at], head[at + 1]
        if flag > 1 or flag and size or pos + size > len(data):
            raise EncodingError(f"{self.name}: flag {flag}, size {size}")
        out[self.name] = None if flag else data[pos:pos + size]
        return pos + size

    def lower(self, fields, ints):
        value = fields[self.name]
        ints += (1, 0) if value is None else (0, len(value))
        return value or b""


class _List(_Int):
    """A ">H" count, then that many items of `fields`, each the one value it holds or the
    tuple of them. With `ascending`, the items' first values rise strictly."""

    fmt = "H"

    def __init__(self, name: str, *fields, ascending: bool = False):
        super().__init__(name)
        self.item, self.ascending = _Layout(fields), ascending
        self.many, self.get = len(self.item.names) > 1, itemgetter(*self.item.names)

    def lift(self, head, at, data, pos, out):
        items, read, get, item = [], self.item.read, self.get, {}
        for _ in range(head[at]):
            pos = read(data, pos, item)
            items.append(get(item))
        out[self.name] = self._checked(tuple(items))
        return pos

    def lower(self, fields, ints):
        items, names, write = self._checked(fields[self.name]), self.item.names, self.item.write
        ints.append(len(items))
        return b"".join([write(dict(zip(names, item)) if self.many else {names[0]: item})
                         for item in items])

    def _checked(self, items):
        last = -1
        for item in items if self.ascending else ():
            if item[0] <= last:
                raise EncodingError(f"{self.name} must ascend by their first value")
            last = item[0]
        return items


class _Code(_Int):
    """A code byte, the position of one of `branches`, each `(label, *fields)`. The code
    stands for its label and its branch's fields follow the head; the other branches'
    fields are None. A code whose branches carry no fields is a flag."""

    fmt = "B"

    def __init__(self, name: str, *branches):
        super().__init__(name)
        layouts = [(label, _Layout(fields)) for label, *fields in branches]
        self.names += tuple(name for _, layout in layouts for name in layout.names)
        self.branches = [(label, layout, dict.fromkeys(name for name in self.names[1:]
                                                       if name not in layout.names))
                         for label, layout in layouts]
        self.codes = {label: (code, *rest) for code, (label, *rest) in enumerate(self.branches)}

    def lift(self, head, at, data, pos, out):
        if head[at] >= len(self.branches):
            raise EncodingError(f"unknown {self.name} code {head[at]}")
        out[self.name], layout, absent = self.branches[head[at]]
        out.update(absent)
        return layout.read(data, pos, out) if layout.reads else pos

    def lower(self, fields, ints):
        code, layout, absent = self.codes[fields[self.name]]
        for name in absent:
            if fields.get(name) is not None:
                raise EncodingError(f"a {fields[self.name]!r} {self.name} carries no {name}")
        ints.append(code)
        return layout.write(fields) if layout.writes else b""


class _Layout:
    """Fields in wire order, after the tag byte `tag` if one is given: the head Struct
    reads and writes all their fixed-width integers, and the last field's bytes follow."""

    def __init__(self, fields, tag: int | None = None):
        self.prefix = () if tag is None else (tag,)
        head = struct.Struct(">" + "B" * len(self.prefix) + "".join(f.fmt for f in fields))
        self.unpack, self.pack, self.size = head.unpack_from, head.pack, head.size
        self.names = tuple(name for field in fields for name in field.names)
        starts = accumulate((len(field.fmt) for field in fields), initial=len(self.prefix))
        self.reads = [(field.name, at, field.lift) for field, at in zip(fields, starts)]
        self.writes = [(field.name, field.lower) for field in fields]

    def read(self, data, pos, out):
        head, pos = self.unpack(data, pos), pos + self.size
        for name, at, lift in self.reads:
            if lift is None:
                out[name] = head[at]
            else:
                pos = lift(head, at, data, pos, out)
        return pos

    def write(self, fields):
        ints, tail = [*self.prefix], b""
        for name, lower in self.writes:
            if lower is None:
                ints.append(fields[name])
            else:
                tail = lower(fields, ints)
        return self.pack(*ints) + tail


# The table: tag -> (kind, *fields). Ledger record bodies take the tags below _PAYLOADS and
# transport payloads the tags from it on.
_PAYLOADS = b"\x20"
_TABLE = {
    0x01: ("ticket_list", _List("entries", _Int("index", "H"), _Code(
        "status", ("opened", _Bits("ticket")), ("cheat_detected",), ("missing",)),
        ascending=True)),
    0x02: ("auction_outcome", _Code("verdict", ("valid", _Int("winning_bid", "Q"),
        _Party("winner"), _List("losing_bids", _Int("bid", "Q"))), ("bot", _Party("cheater")),
        ("no_bids",))),
    0x20: ("commit_notify", _Int("commitment_id", "I"), _Int("bit_length", "H")),
    0x21: ("open", _Int("commitment_id", "I"), _Bits("claimed")),
    0x22: ("consensus", _Int("instance", "I"), _Int("phase", "B"), _Int("round", "B"),
           _Value("value")),
    0x23: ("auction_claim", _Party("winner"), _Int("bid", "Q")),
    0x24: ("auction_losers", _List("bids", _Int("bid", "Q"))),
    0x25: ("auction_vlist", _Int("winning_bid", "Q"), _List("losing_bids", _Int("bid", "Q"))),
    0x26: ("auction_response", _Code("complaint", (False,), (True,)), _Int("slot", "H")),
    0x27: ("open_request", _Int("commitment_id", "I")),
}
TAGS = {kind: tag for tag, (kind, *_) in _TABLE.items()}
_BY_KIND = {kind: _Layout(fields, tag) for tag, (kind, *fields) in _TABLE.items()}
_BY_TAG = {bytes([tag]): (kind, _BY_KIND[kind]) for kind, tag in TAGS.items()}
# a ledger record's tag byte -> its kind
RECORD_KINDS = {tag: kind for tag, (kind, _) in _BY_TAG.items() if tag < _PAYLOADS}
_TICKET_LIST, _AUCTION_OUTCOME = (bytes([TAGS[k]]) for k in ("ticket_list", "auction_outcome"))


def encode(kind: str, **fields) -> bytes:
    """The one encoding of `fields` as a `kind`; a field its branch lacks is None or absent."""
    try:
        return _BY_KIND[kind].write(fields)
    except (struct.error, KeyError, TypeError, AttributeError) as exc:  # a missing or bad value
        raise EncodingError(f"a {kind} cannot carry its fields: {exc!r}") from None


def decode(data: bytes) -> dict:
    """The fields of `data`: its "kind" and the fields `encode` takes."""
    if data[:1] not in _BY_TAG:
        raise EncodingError(f"unknown kind tag {data[:1].hex() or '(none)'}")
    kind, layout = _BY_TAG[data[:1]]
    fields = {"kind": kind}
    try:
        end = layout.read(data, 0, fields)
    except struct.error:
        raise EncodingError(f"truncated {kind}") from None
    if end != len(data):
        raise EncodingError(f"{len(data) - end} trailing bytes after a {kind}")
    return fields


def decode_payload(payload: bytes) -> dict:
    """A transport payload's fields (`decode`); a record body is none."""
    if payload[:1] < _PAYLOADS:
        raise EncodingError(f"tag {payload[:1].hex() or '(none)'} is no payload kind")
    return decode(payload)


def decode_ticket_list(body: bytes) -> list[tuple[int, str, BitString | None]]:
    """A ticket-list body's entries: (player index, status, ticket or None)."""
    if body[:1] != _TICKET_LIST:
        raise EncodingError(f"tag {body[:1].hex() or '(none)'} is no ticket list")
    return list(decode(body)["entries"])


def decode_verification_output(body: bytes) -> dict:
    """An auction-outcome body's fields (`decode`)."""
    if body[:1] != _AUCTION_OUTCOME:
        raise EncodingError(f"tag {body[:1].hex() or '(none)'} is no auction outcome")
    return decode(body)
