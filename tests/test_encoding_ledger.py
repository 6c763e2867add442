"""Canonical encoding round-trips and ledger append-only semantics."""

import pytest
from hypothesis import given, strategies as st

from qbsim.bits import BitString
from qbsim.encoding import (
    decode_payload,
    decode_ticket_list,
    decode_verification_output,
    encode_auction_claim,
    encode_auction_losers,
    encode_auction_response,
    encode_auction_vlist,
    encode_commit_notify,
    encode_consensus,
    encode_open,
    encode_ticket_list,
    encode_verification_output,
)
from qbsim.errors import EncodingError, LedgerError
from qbsim.ledger import LedgerRecord, MinerLedger, RecordKind, ledgers_consistent
from qbsim.parties import buyer


ticket_entry = st.tuples(
    st.sampled_from(["opened", "cheat_detected", "missing"]),
    st.lists(st.integers(0, 1), min_size=1, max_size=16),
)


@given(st.lists(ticket_entry, min_size=1, max_size=6))
def test_ticket_list_roundtrip(raw):
    entries = []
    for i, (status, bits) in enumerate(raw):
        ticket = BitString(bits) if status == "opened" else None
        entries.append((i, status, ticket))
    body = encode_ticket_list(entries)
    assert decode_ticket_list(body) == entries


def test_ticket_list_rejects_unordered_and_junk():
    t = BitString.from_text("01")
    with pytest.raises(EncodingError):
        encode_ticket_list([(1, "opened", t), (0, "opened", t)])
    with pytest.raises(EncodingError):
        decode_ticket_list(b"\xff\x00\x01")
    with pytest.raises(EncodingError):
        decode_ticket_list(encode_ticket_list([(0, "opened", t)]) + b"\x00")


class _FakeOutput:
    def __init__(self, valid, cheater=None, winning_bid=None, winner=None, losing_bids=None):
        self.valid = valid
        self.cheater = cheater
        self.winning_bid = winning_bid
        self.winner = winner
        self.losing_bids = losing_bids


@given(st.integers(1, 2**40), st.lists(st.integers(1, 2**40), max_size=5), st.integers(0, 9))
def test_verification_output_roundtrip(bid, losers, widx):
    out = _FakeOutput(True, winning_bid=bid, winner=buyer(widx), losing_bids=tuple(losers))
    decoded = decode_verification_output(encode_verification_output(out))
    assert decoded == {"valid": True, "winning_bid": bid, "winner": buyer(widx),
                       "losing_bids": tuple(losers)}


def test_bot_output_roundtrip():
    from qbsim.parties import seller

    out = _FakeOutput(False, cheater=seller())
    decoded = decode_verification_output(encode_verification_output(out))
    assert decoded == {"valid": False, "cheater": seller()}


def test_payload_decoders():
    assert decode_payload(encode_commit_notify(7, 8)) == {
        "kind": "commit_notify", "commitment_id": 7, "bit_length": 8}
    claimed = BitString.from_text("10110")
    assert decode_payload(encode_open(3, claimed))["claimed"] == claimed
    c = decode_payload(encode_consensus(1, 2, 3, b"xy"))
    assert (c["instance"], c["phase"], c["round"], c["value"]) == (1, 2, 3, b"xy")
    assert decode_payload(encode_consensus(1, 2, 2, None))["undecided"]
    assert decode_payload(encode_auction_claim(buyer(2), 7)) == {
        "kind": "auction_claim", "winner": buyer(2), "bid": 7}
    assert decode_payload(encode_auction_losers([3, 5]))["bids"] == (3, 5)
    v = decode_payload(encode_auction_vlist(7, [3, 5]))
    assert v["winning_bid"] == 7 and v["losing_bids"] == (3, 5)
    r = decode_payload(encode_auction_response(False, slot=2))
    assert not r["complaint"] and r["slot"] == 2
    with pytest.raises(EncodingError):
        decode_payload(b"\xee garbage")
    with pytest.raises(EncodingError):
        decode_payload(b"")


def test_ledger_append_heights():
    led = MinerLedger()
    body = encode_ticket_list([(0, "opened", BitString.from_text("01"))])
    r0 = led.append_finalized(RecordKind.TICKET_LIST, body, 0)
    assert r0.height == 0
    r1 = led.append_finalized(RecordKind.TICKET_LIST, body, 1)
    assert r1.height == 1
    assert led.height == 2


def test_ledger_record_validation():
    with pytest.raises(LedgerError):
        LedgerRecord(-1, RecordKind.TICKET_LIST, b"x", 0)
    with pytest.raises(LedgerError):
        LedgerRecord(0, RecordKind.TICKET_LIST, b"", 0)


def test_ledgers_consistent_and_divergence_point():
    body = encode_ticket_list([(0, "opened", BitString.from_text("11"))])
    other = encode_ticket_list([(0, "opened", BitString.from_text("10"))])
    a, b = MinerLedger(), MinerLedger()
    for led in (a, b):
        led.append_finalized(RecordKind.TICKET_LIST, body, 0)
    assert ledgers_consistent([a, b]) == (True, None)
    a.append_finalized(RecordKind.TICKET_LIST, body, 1)
    b.append_finalized(RecordKind.TICKET_LIST, other, 1)
    assert ledgers_consistent([a, b]) == (False, 1)
    # length divergence
    c = MinerLedger()
    c.append_finalized(RecordKind.TICKET_LIST, body, 0)
    assert ledgers_consistent([a, c]) == (False, 1)
    assert ledgers_consistent([a]) == (True, None)
