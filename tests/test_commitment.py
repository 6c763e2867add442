"""Commit/open sessions: concealing, binding, cheat-detection rates."""

import numpy as np
import pytest

from qbsim.bits import BitString
from qbsim.commitment import (
    IDEAL,
    Backend,
    CommitmentRegistry,
    OpenResult,
    REJECT_EQUIVOCATION,
    REJECT_UNKNOWN,
    REJECT_WRONG_PARTY,
    parse_backend,
)
from qbsim.errors import CommitmentStateError, QbsimError
from qbsim.eventlog import EventLog
from qbsim.parties import miner, player


def make_registry(seed=1, detail=True):
    log = EventLog(detail=detail)
    return CommitmentRegistry(np.random.default_rng(seed), log), log


def test_commit_reveals_only_id_and_length():
    reg, log = make_registry()
    cid = reg.commit(player(1), miner(1), BitString.from_text("0101"), IDEAL)
    assert log.records == [{"seq": 0, "event": "commit", "id": cid, "committer": "player:1",
                            "receiver": "miner:1", "backend": "ideal", "length": 4}]
    # the log never carries the committed bits
    assert all("0101" not in str(r.values()) for r in log.records)


def test_identical_values_get_distinct_ids():
    reg, _ = make_registry()
    v = BitString.from_text("1100")
    a = reg.commit(player(0), miner(0), v, IDEAL)
    b = reg.commit(player(0), miner(0), v, IDEAL)
    assert a != b


def test_honest_open_accepted_with_original_value():
    reg, log = make_registry()
    v = BitString.from_text("0101")
    cid = reg.commit(player(0), miner(0), v, IDEAL)
    result = reg.open(cid, player(0), BitString.from_text("0101"))
    assert result == OpenResult.accept(v)
    assert log.records[-1]["event"] == "open"
    with pytest.raises(CommitmentStateError, match="already opened"):
        reg.open(cid, player(0), v)


def test_ideal_backend_rejects_any_changed_value():
    reg, log = make_registry()
    cid = reg.commit(player(0), miner(0), BitString.from_text("0101"), IDEAL)
    result = reg.open(cid, player(0), BitString.from_text("1101"))
    assert not result.accepted and result.reason == REJECT_EQUIVOCATION
    assert log.records[-1]["event"] == "cheat_detected"
    with pytest.raises(CommitmentStateError, match="already cheat_detected"):
        reg.open(cid, player(0), BitString.from_text("0101"))


def test_ideal_binding_exhaustive_short_lengths():
    # every (committed, claimed) pair with committed != claimed, lengths <= 8
    reg, _ = make_registry()
    for length in range(1, 9):
        for v in range(1 << length):
            committed = BitString.from_int(v, length)
            claimed = BitString.from_int((v + 1) % (1 << length), length)
            cid = reg.commit(player(0), miner(0), committed, IDEAL)
            assert not reg.open(cid, player(0), claimed).accepted


def test_ideal_binding_randomized_all_pairs_sample():
    rng = np.random.default_rng(99)
    reg, _ = make_registry()
    for _ in range(500):
        length = int(rng.integers(9, 64))
        committed = BitString.random(rng, length)
        flip_at = int(rng.integers(0, length))
        cid = reg.commit(player(0), miner(0), committed, IDEAL)
        assert not reg.open(cid, player(0), committed.flip(flip_at)).accepted


def test_unknown_wrong_party_double_open():
    reg, _ = make_registry()
    v = BitString.from_text("01")
    cid = reg.commit(player(0), miner(0), v, IDEAL)
    assert reg.open(999, player(0), v).reason == REJECT_UNKNOWN
    assert reg.open(cid, player(1), v).reason == REJECT_WRONG_PARTY
    assert reg.open(cid, player(0), v).accepted
    with pytest.raises(CommitmentStateError):
        reg.open(cid, player(0), v)


def test_cheat_sensitive_certain_detection_at_p_one():
    reg, _ = make_registry()
    backend = parse_backend("cheat:1")
    for flip_at in range(4):
        cid = reg.commit(player(0), miner(0), BitString.from_text("0000"), backend)
        claimed = BitString.from_text("0000").flip(flip_at)
        assert not reg.open(cid, player(0), claimed).accepted


def test_cheat_sensitive_detection_rate_matches_closed_form():
    # k flipped bits escape detection with probability (1-p)^k
    reg, _ = make_registry(seed=7, detail=False)
    p, k, trials = 0.5, 8, 100_000
    backend = parse_backend(f"cheat:{p}")
    committed = BitString.from_text("00000000")
    claimed = BitString.from_text("11111111")
    rejected = 0
    for _ in range(trials):
        cid = reg.commit(player(0), miner(0), committed, backend)
        if not reg.open(cid, player(0), claimed).accepted:
            rejected += 1
    expected = 1 - (1 - p) ** k  # 0.99609375
    assert abs(rejected / trials - expected) < 0.005


def test_cheat_sensitive_rates_various_k_within_3_sigma():
    reg, _ = make_registry(seed=11, detail=False)
    p, trials = 0.3, 20_000
    backend = parse_backend(f"cheat:{p}")
    for k in (1, 2, 5):
        committed = BitString.from_int(0, 8)
        claimed = BitString.from_int((1 << k) - 1, 8)
        rejected = 0
        for _ in range(trials):
            cid = reg.commit(player(0), miner(0), committed, backend)
            if not reg.open(cid, player(0), claimed).accepted:
                rejected += 1
        expected = 1 - (1 - p) ** k
        sigma = (expected * (1 - expected) / trials) ** 0.5
        assert abs(rejected / trials - expected) <= 3 * sigma + 1e-9


def test_adversarial_receiver_guess_rate_is_chance():
    """A receiver reading its commit record must not beat 50% on 1-bit values."""
    rng = np.random.default_rng(13)
    reg, log = make_registry(seed=17)
    hits = 0
    trials = 1000
    for i in range(trials):
        secret = BitString.from_int(int(rng.integers(0, 2)), 1)
        cid = reg.commit(player(0), miner(0), secret, IDEAL)
        view = log.records[-1]
        # best available strategy: any deterministic function of the view
        guess = (view["id"] + view["length"]) % 2
        hits += guess == secret.value
    rate = hits / trials
    sigma = 0.5 / trials ** 0.5
    assert abs(rate - 0.5) <= 3 * sigma


def test_status_machine_never_mixes_opened_and_cheat_detected():
    reg, log = make_registry(seed=23, detail=False)
    backend = parse_backend("cheat:0.4")
    rng = np.random.default_rng(29)
    ids = []
    for _ in range(2000):
        committed = BitString.random(rng, 6)
        cid = reg.commit(player(0), miner(0), committed, backend)
        claimed = committed.flip(int(rng.integers(0, 6))) if rng.random() < 0.5 else committed
        reg.open(cid, player(0), claimed)
        ids.append(cid)
    # each record is exactly one of the two terminal states
    assert log.counters["open"] + log.counters["cheat_detected"] == len(ids)
    for cid in ids:
        with pytest.raises(CommitmentStateError, match="already (opened|cheat_detected)$"):
            reg.open(cid, player(0), BitString.from_int(0, 6))


def test_parse_backend():
    assert parse_backend("ideal") == IDEAL == Backend(1.0, "ideal")
    assert parse_backend("cheat:0.50") == Backend(0.5, "cheat:0.5")
    assert [str(parse_backend(t)) for t in ("ideal", "cheat:1", "cheat:0.25")] == [
        "ideal", "cheat:1", "cheat:0.25"]
    with pytest.raises(QbsimError):
        parse_backend("sha256")
    with pytest.raises(QbsimError):
        parse_backend("cheat:0")
    for p in (0.0, 1.5, float("nan")):
        with pytest.raises(QbsimError):
            Backend(p, "cheat")


def test_open_draws_from_the_registry_rng_only_when_p_below_one():
    rng = np.random.default_rng(3)
    reg = CommitmentRegistry(rng, EventLog(detail=False))
    committed, claimed = BitString.from_text("0000"), BitString.from_text("1111")
    for backend in (IDEAL, parse_backend("cheat:1")):
        state = rng.bit_generator.state
        cid = reg.commit(player(0), miner(0), committed, backend)
        assert not reg.open(cid, player(0), claimed).accepted
        assert rng.bit_generator.state == state
    cid = reg.commit(player(0), miner(0), committed, parse_backend("cheat:0.5"))
    reg.open(cid, player(0), claimed)
    assert rng.bit_generator.state != state
