"""Canonical byte encodings.

Two families live here: ledger record bodies (what consensus decides on
and miners append) and transport message payloads. Everything is
big-endian with fixed integer widths and explicitly ordered lists, so a
given logical content has exactly one encoding.
"""

from __future__ import annotations

import struct

from .bits import BitString
from .errors import EncodingError
from .parties import CODE_ROLES, ROLE_CODES, PartyId

# widest values the fixed-width fields carry: counts, party indices and
# bit lengths travel as ">H", bids as ">Q"
MAX_COUNT = (1 << 8 * struct.calcsize(">H")) - 1
MAX_BID_BITS = 8 * struct.calcsize(">Q")

# ledger record body tags
TICKET_LIST_TAG = 0x01
AUCTION_OUTCOME_TAG = 0x02

# per-player ticket status codes
STATUS_OPENED = 0
STATUS_CHEAT = 1
STATUS_MISSING = 2
_STATUS_NAMES = {STATUS_OPENED: "opened", STATUS_CHEAT: "cheat_detected",
                 STATUS_MISSING: "missing"}
_STATUS_CODES = {name: code for code, name in _STATUS_NAMES.items()}

# transport payload kinds
MSG_COMMIT_NOTIFY = 0x20
MSG_OPEN = 0x21
MSG_CONSENSUS = 0x22
MSG_AUCTION_CLAIM = 0x23
MSG_AUCTION_LOSERS = 0x24
MSG_AUCTION_VLIST = 0x25
MSG_AUCTION_RESPONSE = 0x26
MSG_OPEN_REQUEST = 0x27


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise EncodingError("truncated encoding")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values if len(values) > 1 else values[0]

    def take_bytes(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise EncodingError("truncated encoding")
        out = self.data[self.pos:self.pos + size]
        self.pos += size
        return out

    def finish(self):
        if self.pos != len(self.data):
            raise EncodingError(f"{len(self.data) - self.pos} trailing bytes")


def encode_party(party: PartyId) -> bytes:
    return struct.pack(">BH", ROLE_CODES[party.role], party.index)


def _read_party(reader: _Reader) -> PartyId:
    code, index = reader.take(">BH")
    if code not in CODE_ROLES:
        raise EncodingError(f"unknown role code {code}")
    return PartyId(CODE_ROLES[code], index)


# ------------------------------------------------------- ticket lists


def encode_ticket_list(entries) -> bytes:
    """entries: ordered list of (player_index, status_name, BitString|None)."""
    out = [struct.pack(">BH", TICKET_LIST_TAG, len(entries))]
    last_index = -1
    for index, status, ticket in entries:
        if index <= last_index:
            raise EncodingError("ticket entries must be in ascending player order")
        last_index = index
        code = _STATUS_CODES[status]
        out.append(struct.pack(">HB", index, code))
        if code == STATUS_OPENED:
            if ticket is None:
                raise EncodingError("opened entries carry a ticket")
            out.append(struct.pack(">H", len(ticket)))
            out.append(ticket.to_bytes())
        elif ticket is not None:
            raise EncodingError("only opened entries carry a ticket")
    return b"".join(out)


def decode_ticket_list(body: bytes) -> list[tuple[int, str, BitString | None]]:
    reader = _Reader(body)
    tag, count = reader.take(">BH")
    if tag != TICKET_LIST_TAG:
        raise EncodingError(f"not a ticket list (tag {tag})")
    entries = []
    last_index = -1
    for _ in range(count):
        index, code = reader.take(">HB")
        if index <= last_index:
            raise EncodingError("ticket entries out of order")
        last_index = index
        if code not in _STATUS_NAMES:
            raise EncodingError(f"unknown status code {code}")
        ticket = None
        if code == STATUS_OPENED:
            bitlen = reader.take(">H")
            if bitlen < 1:
                raise EncodingError("zero-length ticket")
            ticket = BitString.from_bytes(reader.take_bytes((bitlen + 7) // 8), bitlen)
        entries.append((index, _STATUS_NAMES[code], ticket))
    reader.finish()
    return entries


# -------------------------------------------------- verification output


def encode_verification_output(output) -> bytes:
    """output: auction.VerificationOutput."""
    if not output.valid and output.cheater is None:  # every bid was excluded
        return struct.pack(">BB", AUCTION_OUTCOME_TAG, 2)
    if not output.valid:
        return struct.pack(">BB", AUCTION_OUTCOME_TAG, 1) + encode_party(output.cheater)
    parts = [
        struct.pack(">BB", AUCTION_OUTCOME_TAG, 0),
        struct.pack(">Q", output.winning_bid),
        encode_party(output.winner),
        struct.pack(">H", len(output.losing_bids)),
    ]
    parts.extend(struct.pack(">Q", bid) for bid in output.losing_bids)
    return b"".join(parts)


def decode_verification_output(body: bytes) -> dict:
    reader = _Reader(body)
    tag, verdict = reader.take(">BB")
    if tag != AUCTION_OUTCOME_TAG:
        raise EncodingError(f"not an auction outcome (tag {tag})")
    if verdict == 1:
        cheater = _read_party(reader)
        reader.finish()
        return {"valid": False, "cheater": cheater}
    if verdict == 2:
        reader.finish()
        return {"valid": False, "cheater": None}
    if verdict != 0:
        raise EncodingError(f"unknown verdict {verdict}")
    winning_bid = reader.take(">Q")
    winner = _read_party(reader)
    count = reader.take(">H")
    losing = tuple(reader.take(">Q") for _ in range(count))
    reader.finish()
    return {"valid": True, "winning_bid": winning_bid, "winner": winner,
            "losing_bids": losing}


# ------------------------------------------------- transport payloads


def encode_commit_notify(commitment_id: int, bit_length: int) -> bytes:
    return struct.pack(">BIH", MSG_COMMIT_NOTIFY, commitment_id, bit_length)


def encode_open(commitment_id: int, claimed: BitString) -> bytes:
    return (struct.pack(">BIH", MSG_OPEN, commitment_id, len(claimed))
            + claimed.to_bytes())


def encode_consensus(instance: int, phase: int, round_: int,
                     value: bytes | None) -> bytes:
    """value None encodes the 'undecided' marker of the middle round."""
    if value is None:
        return struct.pack(">BIBBBH", MSG_CONSENSUS, instance, phase, round_, 1, 0)
    return struct.pack(">BIBBBH", MSG_CONSENSUS, instance, phase, round_, 0,
                       len(value)) + value


def encode_auction_claim(winner: PartyId, bid: int) -> bytes:
    return struct.pack(">B", MSG_AUCTION_CLAIM) + encode_party(winner) + struct.pack(">Q", bid)


def encode_auction_losers(bids) -> bytes:
    return struct.pack(">BH", MSG_AUCTION_LOSERS, len(bids)) + b"".join(
        struct.pack(">Q", b) for b in bids
    )


def encode_auction_vlist(winning_bid: int, losing_bids) -> bytes:
    return struct.pack(">BQH", MSG_AUCTION_VLIST, winning_bid, len(losing_bids)) + b"".join(
        struct.pack(">Q", b) for b in losing_bids
    )


def encode_auction_response(complaint: bool, slot: int = 0) -> bytes:
    return struct.pack(">BBH", MSG_AUCTION_RESPONSE, 1 if complaint else 0, slot)


def encode_open_request(commitment_id: int) -> bytes:
    return struct.pack(">BI", MSG_OPEN_REQUEST, commitment_id)


def decode_payload(payload: bytes) -> dict:
    """Parse any transport payload into a readable dict (logs, scans)."""
    if not payload:
        raise EncodingError("empty payload")
    reader = _Reader(payload)
    kind = reader.take(">B")
    if kind == MSG_COMMIT_NOTIFY:
        cid, bitlen = reader.take(">IH")
        out = {"kind": "commit_notify", "commitment_id": cid, "bit_length": bitlen}
    elif kind == MSG_OPEN:
        cid, bitlen = reader.take(">IH")
        bits = BitString.from_bytes(reader.take_bytes((bitlen + 7) // 8), bitlen)
        out = {"kind": "open", "commitment_id": cid, "claimed": bits}
    elif kind == MSG_CONSENSUS:
        instance, phase, round_, flag, size = reader.take(">IBBBH")
        value = None if flag == 1 else reader.take_bytes(size)
        out = {"kind": "consensus", "instance": instance, "phase": phase,
               "round": round_, "undecided": flag == 1, "value": value}
    elif kind == MSG_AUCTION_CLAIM:
        winner = _read_party(reader)
        bid = reader.take(">Q")
        out = {"kind": "auction_claim", "winner": winner, "bid": bid}
    elif kind == MSG_AUCTION_LOSERS:
        count = reader.take(">H")
        out = {"kind": "auction_losers",
               "bids": tuple(reader.take(">Q") for _ in range(count))}
    elif kind == MSG_AUCTION_VLIST:
        bw, count = reader.take(">QH")
        out = {"kind": "auction_vlist", "winning_bid": bw,
               "losing_bids": tuple(reader.take(">Q") for _ in range(count))}
    elif kind == MSG_AUCTION_RESPONSE:
        complaint, slot = reader.take(">BH")
        out = {"kind": "auction_response", "complaint": complaint == 1, "slot": slot}
    elif kind == MSG_OPEN_REQUEST:
        out = {"kind": "open_request", "commitment_id": reader.take(">I")}
    else:
        raise EncodingError(f"unknown payload kind {kind}")
    reader.finish()
    return out
