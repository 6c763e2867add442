"""Canonical encoding round-trips and ledger append-only semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from qbsim.bits import BitString
from qbsim.encoding import (
    TAGS,
    decode_payload,
    decode_ticket_list,
    decode_verification_output,
    encode,
)
from qbsim.errors import EncodingError, LedgerError
from qbsim.ledger import LedgerRecord, MinerLedger, RecordKind, ledgers_consistent
from qbsim.parties import buyer, miner, seller


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
    body = encode("ticket_list", entries=entries)
    assert decode_ticket_list(body) == entries


def test_ticket_list_rejects_unordered_and_junk():
    t = BitString.from_text("01")
    with pytest.raises(EncodingError):
        encode("ticket_list", entries=[(1, "opened", t), (0, "opened", t)])
    with pytest.raises(EncodingError):
        encode("ticket_list", entries=[(0, "opened", t), (0, "opened", t)])
    with pytest.raises(EncodingError):
        encode("ticket_list", entries=[(0, "missing", t)])
    with pytest.raises(EncodingError):
        decode_ticket_list(bytes.fromhex("01" "0001" "0000" "03"))  # status code 3
    with pytest.raises(EncodingError):
        decode_ticket_list(b"\xff\x00\x01")
    with pytest.raises(EncodingError):
        decode_ticket_list(encode("ticket_list", entries=[(0, "opened", t)]) + b"\x00")


@given(st.integers(1, 2**40), st.lists(st.integers(1, 2**40), max_size=5), st.integers(0, 9))
def test_verification_output_roundtrip(bid, losers, widx):
    decoded = decode_verification_output(encode(
        "auction_outcome", verdict="valid", winning_bid=bid, winner=buyer(widx),
        losing_bids=tuple(losers)))
    assert decoded == {"kind": "auction_outcome", "verdict": "valid", "winning_bid": bid,
                       "winner": buyer(widx), "losing_bids": tuple(losers), "cheater": None}


def test_bot_output_roundtrip():
    decoded = decode_verification_output(encode("auction_outcome", verdict="bot",
                                                cheater=seller()))
    assert decoded == {"kind": "auction_outcome", "verdict": "bot", "winning_bid": None,
                       "winner": None, "losing_bids": None, "cheater": seller()}


def test_payload_decoders():
    assert decode_payload(encode("commit_notify", commitment_id=7, bit_length=8)) == {
        "kind": "commit_notify", "commitment_id": 7, "bit_length": 8}
    claimed = BitString.from_text("10110")
    assert decode_payload(encode("open", commitment_id=3, claimed=claimed))["claimed"] == claimed
    c = decode_payload(encode("consensus", instance=1, phase=2, round=3, value=b"xy"))
    assert (c["instance"], c["phase"], c["round"], c["value"]) == (1, 2, 3, b"xy")
    assert decode_payload(encode("consensus", instance=1, phase=2, round=2, value=None))[
        "value"] is None
    assert decode_payload(encode("auction_claim", winner=buyer(2), bid=7)) == {
        "kind": "auction_claim", "winner": buyer(2), "bid": 7}
    assert decode_payload(encode("auction_losers", bids=[3, 5]))["bids"] == (3, 5)
    v = decode_payload(encode("auction_vlist", winning_bid=7, losing_bids=[3, 5]))
    assert v["winning_bid"] == 7 and v["losing_bids"] == (3, 5)
    r = decode_payload(encode("auction_response", complaint=False, slot=2))
    assert not r["complaint"] and r["slot"] == 2
    with pytest.raises(EncodingError):  # the undecided flag with a size and its byte
        decode_payload(bytes.fromhex("22" "00000000" "01" "02" "01" "0001" "ab"))
    with pytest.raises(EncodingError):
        decode_payload(bytes.fromhex("26" "02" "0000"))  # complaint byte 2
    with pytest.raises(EncodingError):
        decode_verification_output(b"\x02\x03")  # verdict code 3
    with pytest.raises(EncodingError):
        decode_payload(b"\xee garbage")
    with pytest.raises(EncodingError):
        decode_payload(b"")


@pytest.mark.parametrize("decoder, hexdata", [
    (decode_payload, "21" "00000005" "0000"),  # an open of no bits
    (decode_payload, "21" "00000005" "0003" "ff"),  # an open with padding bits set
    (decode_ticket_list, "01" "0001" "0000" "00" "0003" "ff"),  # a ticket with padding bits set
    (decode_payload, "22" "00000000" "01" "01" "02" "0000"),  # a consensus flag of 2
    (decode_payload, "22" "00000000" "01" "02" "01" "0001"),  # the undecided flag with a size
    (decode_payload, "26" "07" "0000"),  # an auction_response complaint byte of 7
], ids=["open-empty", "open-padding", "ticket-padding", "flag-2", "undecided-size",
        "complaint-7"])
def test_a_malformed_or_non_canonical_field_is_an_encoding_error(decoder, hexdata):
    with pytest.raises(EncodingError):
        decoder(bytes.fromhex(hexdata))


_T8, _T3 = BitString.from_text("10110011"), BitString.from_text("101")
VALID = [
    encode("ticket_list", entries=[(0, "opened", _T8), (2, "cheat_detected", None),
                                   (5, "missing", None), (7, "opened", _T3)]),
    encode("auction_outcome", verdict="valid", winning_bid=9, winner=buyer(1),
           losing_bids=[3, 9]),
    encode("auction_outcome", verdict="bot", cheater=seller()),
    encode("auction_outcome", verdict="no_bids"),
    encode("commit_notify", commitment_id=7, bit_length=8),
    encode("open", commitment_id=3, claimed=_T3),
    encode("consensus", instance=1, phase=2, round=3, value=b"xy"),
    encode("consensus", instance=1, phase=2, round=2, value=None),
    encode("auction_claim", winner=miner(2), bid=7),
    encode("auction_losers", bids=[3, 5]),
    encode("auction_vlist", winning_bid=7, losing_bids=[]),
    encode("auction_response", complaint=True, slot=0),
    encode("open_request", commitment_id=4),
]
DECODERS = [(decode_payload, lambda fields: encode(**fields)),
            (decode_ticket_list, lambda entries: encode("ticket_list", entries=entries)),
            (decode_verification_output, lambda fields: encode(**fields))]


def mutated(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, at, byte in edits:
        at %= len(out) + 1
        if op == "insert":
            out.insert(at, byte)
        elif at < len(out) and op == "delete":
            del out[at]
        elif at < len(out):
            out[at] = byte
    return bytes(out)


edits = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                           st.integers(0, 63), st.integers(0, 255)), min_size=1, max_size=3)


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(st.one_of(st.binary(max_size=48),
                 st.builds(lambda data, tail: data[:1] + tail, st.sampled_from(VALID),
                           st.binary(max_size=24)),
                 st.builds(mutated, st.sampled_from(VALID), edits)))
def test_every_decoder_refuses_or_reencodes_to_the_same_bytes(data):
    """Any byte string raises `EncodingError` from a decoder, or its
    fields encode back to exactly those bytes."""
    for decoder, reencode in DECODERS:
        try:
            fields = decoder(data)
        except EncodingError:
            continue
        assert reencode(fields) == data


def test_the_fuzz_corpus_holds_every_kind():
    assert {data[0] for data in VALID} == set(TAGS.values())


def test_ledger_append_heights():
    led = MinerLedger()
    body = encode("ticket_list", entries=[(0, "opened", BitString.from_text("01"))])
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
    body = encode("ticket_list", entries=[(0, "opened", BitString.from_text("11"))])
    other = encode("ticket_list", entries=[(0, "opened", BitString.from_text("10"))])
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
