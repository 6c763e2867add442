"""Auction protocol: winner decision, seller cheating, privacy scans."""

import numpy as np
import pytest

from qbsim import auction
from qbsim.auction import (
    AuctionParams,
    bid_privacy_violations,
    complaint_openings,
    decide_winner,
    parse_buyer_policy,
    permute_losing,
    posterior_privacy_violations,
    run_auction,
)
from qbsim.commitment import parse_backend
from qbsim.encoding import TAGS, decode_payload, encode
from qbsim.errors import ConfigError, QbsimError
from qbsim.parties import buyer, miner, seller
from qbsim.runtime import Policy
from qbsim.scenario import ScenarioConfig, run_scenario, validate_report

from oracles import records_before_phase


def fixed_bids(*values):
    return {i: Policy("fixed", (v,)) for i, v in enumerate(values)}


# ------------------------------------------------------------ pure pieces


def test_decide_winner_argmax():
    rng = np.random.default_rng(1)
    bids = [(buyer(0), 3), (buyer(1), 7), (buyer(2), 5)]
    assert decide_winner(bids, rng) == (buyer(1), 7)
    assert decide_winner([(buyer(0), 4)], rng) == (buyer(0), 4)
    with pytest.raises(QbsimError):
        decide_winner([], rng)


def test_decide_winner_tie_break_uniform():
    rng = np.random.default_rng(2)
    bids = [(buyer(i), 9) for i in range(3)]
    counts = {i: 0 for i in range(3)}
    trials = 6000
    for _ in range(trials):
        w, v = decide_winner(bids, rng)
        assert v == 9
        counts[w.index] += 1
    expected = trials / 3
    sigma = (trials * (1 / 3) * (2 / 3)) ** 0.5
    for c in counts.values():
        assert abs(c - expected) <= 3 * sigma


def test_permute_losing_preserves_multiset_and_is_uniform():
    rng = np.random.default_rng(3)
    bids = [(buyer(0), 3), (buyer(1), 7), (buyer(2), 5)]
    orders = {(3, 5): 0, (5, 3): 0}
    trials = 4000
    for _ in range(trials):
        out = tuple(permute_losing(bids, 1, rng))
        assert sorted(out) == [3, 5]
        orders[out] += 1
    sigma = (trials * 0.25) ** 0.5
    assert abs(orders[(3, 5)] - trials / 2) <= 3 * sigma


def test_permute_losing_single_and_duplicates():
    rng = np.random.default_rng(4)
    assert permute_losing([(buyer(0), 2), (buyer(1), 8)], 1, rng) == [2]
    for _ in range(50):
        out = permute_losing(
            [(buyer(0), 4), (buyer(1), 4), (buyer(2), 9)], 2, rng)
        assert sorted(out) == [4, 4]


# ------------------------------------------------------------- honest runs


def test_honest_run_example():
    params = AuctionParams(buyers=3, miners=2, seed=10, buyer_policies=fixed_bids(3, 7, 5))
    result = run_auction(params)
    out = result.outcome
    assert out.valid
    assert out.winner == buyer(1)
    assert out.winning_bid == 7
    assert sorted(out.losing_bids) == [3, 5]
    assert result.cheaters == ()
    assert result.honest_ledgers_consistent == (True, None)
    assert complaint_openings(result) == 0
    assert posterior_privacy_violations(result) == []
    assert bid_privacy_violations(result) == []


def brute_force_argmax(bids: dict) -> tuple[int, set]:
    top = max(bids.values())
    return top, {b for b, v in bids.items() if v == top}


def test_random_honest_runs_match_argmax_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(2, 6))
        values = [int(v) for v in rng.integers(1, 1000, size=m)]
        params = AuctionParams(buyers=m, miners=int(rng.integers(1, 4)),
                               seed=int(rng.integers(0, 2**60)),
                               buyer_policies=fixed_bids(*values))
        result = run_auction(params)
        top, argmax = brute_force_argmax(dict(enumerate(values)))
        assert result.outcome.valid
        assert result.outcome.winning_bid == top
        assert result.outcome.winner.index in argmax
        losing = list(values)
        losing.remove(result.outcome.winning_bid)
        assert sorted(result.outcome.losing_bids) == sorted(losing)


def test_two_way_tie_split():
    wins = {0: 0, 1: 0}
    for seed in range(400):
        result = run_auction(AuctionParams(
            buyers=2, miners=1, seed=seed, buyer_policies=fixed_bids(4, 4)))
        wins[result.outcome.winner.index] += 1
    sigma = (400 * 0.25) ** 0.5
    assert abs(wins[0] - 200) <= 3 * sigma


def test_honest_duplicate_losing_bids_need_no_openings():
    params = AuctionParams(buyers=4, miners=2, seed=12, buyer_policies=fixed_bids(4, 4, 9, 2))
    result = run_auction(params)
    assert result.outcome.valid
    assert sorted(result.outcome.losing_bids) == [2, 4, 4]
    assert complaint_openings(result) == 0
    assert result.false_accusers == ()


# ------------------------------------------------------- cheating sellers


def test_wrong_winner_detected():
    # reported winner buyer 2 (bid 5); buyer 1's bid 7 vanishes from the
    # combined list, the complaint is upheld, every miner outputs bot
    params = AuctionParams(buyers=3, miners=2, seed=13, seller_policy="wrong-winner",
                           buyer_policies=fixed_bids(3, 7, 5))
    result = run_auction(params)
    assert not result.outcome.valid
    assert result.outcome.cheater == seller()
    assert seller() in result.cheaters
    assert all(not out.valid for out in result.per_miner_outputs.values())
    assert result.honest_ledgers_consistent == (True, None)


def test_inflate_bid_detected():
    params = AuctionParams(buyers=3, miners=2, seed=14, seller_policy="inflate",
                           buyer_policies=fixed_bids(3, 7, 5))
    result = run_auction(params)
    assert not result.outcome.valid
    assert result.outcome.cheater == seller()


def test_drop_loser_detected():
    params = AuctionParams(buyers=3, miners=2, seed=15, seller_policy="drop-loser",
                           buyer_policies=fixed_bids(3, 7, 5))
    result = run_auction(params)
    assert not result.outcome.valid
    assert result.outcome.cheater == seller()


def test_drop_duplicate_loser_detected_by_multiplicity():
    # two buyers bid 4; dropping one of them keeps the value present, so
    # only the claimant/multiplicity check can catch it
    params = AuctionParams(buyers=4, miners=2, seed=16, seller_policy="drop-loser",
                           buyer_policies=fixed_bids(4, 4, 9, 4))
    caught = 0
    for seed in range(16, 28):
        params = AuctionParams(buyers=4, miners=2, seed=seed,
                               seller_policy="drop-loser",
                               buyer_policies=fixed_bids(4, 4, 9, 4))
        result = run_auction(params)
        if result.degenerate_policy:
            continue
        assert not result.outcome.valid
        caught += 1
    assert caught > 0


def test_seller_deviations_detected_over_random_bids():
    rng = np.random.default_rng(17)
    for policy in ("wrong-winner", "inflate", "drop-loser"):
        for _ in range(15):
            m = int(rng.integers(2, 5))
            values = rng.choice(np.arange(1, 2**20), size=m, replace=False)
            params = AuctionParams(
                buyers=m, miners=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2**60)),
                seller_policy=policy,
                buyer_policies=fixed_bids(*[int(v) for v in values]))
            result = run_auction(params)
            if result.degenerate_policy:
                continue  # only when the script has no room to cheat
            assert not result.outcome.valid, (policy, values)
            assert result.outcome.cheater == seller()


def test_wrong_winner_degenerates_when_all_bids_equal():
    params = AuctionParams(buyers=3, miners=1, seed=18, seller_policy="wrong-winner",
                           buyer_policies=fixed_bids(6, 6, 6))
    result = run_auction(params)
    assert result.degenerate_policy
    assert result.outcome.valid


@pytest.mark.parametrize("policy", ["honest", "wrong-winner", "inflate", "drop-loser"])
def test_a_seller_policy_name_runs_the_same_deviation_as_its_config(policy):
    bids = {"0": "fixed:3", "1": "fixed:7", "2": "fixed:5"}
    config = ScenarioConfig(protocol="auction", buyers=3, miners=2, seed=13,
                            seller_policy=policy, buyer_policies=bids)
    report = run_scenario(config)
    result = run_auction(AuctionParams(buyers=3, miners=2, seed=13, seller_policy=policy,
                                       buyer_policies=fixed_bids(3, 7, 5)))
    assert result.context.log.records == report["event_log"]
    assert result.outcome.valid == (policy == "honest")


def test_inflate_on_equal_bids_blames_the_seller():
    result = run_auction(AuctionParams(buyers=2, miners=1, seed=1, seller_policy="inflate",
                                       buyer_policies=fixed_bids(4, 4)))
    assert not result.degenerate_policy
    assert result.outcome.cheater == seller()


@pytest.mark.parametrize("policy", [None, "bogus", "WRONG_WINNER", "Honest"])
def test_an_unknown_seller_policy_is_one_violation_on_every_path(policy):
    def assert_one_violation(call):
        with pytest.raises(ConfigError) as err:
            call()
        assert len(err.value.violations) == 1
        assert "seller policy" in err.value.violations[0]
        assert repr(policy) in err.value.violations[0]

    assert_one_violation(lambda: run_auction(
        AuctionParams(buyers=2, miners=1, seed=1, seller_policy=policy)))
    assert_one_violation(ScenarioConfig(protocol="auction", buyers=2, miners=1, seed=1,
                                        seller_policy=policy).params)


# ------------------------------------------------------- cheating buyers


def test_bid_change_rejected_and_buyer_excluded_under_ideal():
    params = AuctionParams(buyers=3, miners=2, seed=19, buyer_policies={
        0: Policy("fixed", (3,)), 1: Policy("change", (7, 9)), 2: Policy("fixed", (5,))})
    result = run_auction(params)
    assert buyer(1) in result.cheaters
    assert result.excluded_buyers == (buyer(1),)
    # auction proceeds over the remaining bids
    assert result.outcome.valid
    assert result.outcome.winning_bid == 5
    assert result.outcome.winner == buyer(2)


def test_bid_change_sometimes_succeeds_under_cheat_sensitive():
    outcomes = set()
    for seed in range(40):
        params = AuctionParams(buyers=2, miners=1, seed=seed, backend=parse_backend("cheat:0.3"),
                               buyer_policies={0: Policy("fixed", (3,)),
                                               1: Policy("change", (7, 9))})
        result = run_auction(params)
        if buyer(1) in result.excluded_buyers:
            outcomes.add("caught")
        elif result.outcome.valid and result.outcome.winning_bid == 9:
            outcomes.add("slipped")
    assert outcomes == {"caught", "slipped"}


def test_false_accuser_marked_and_verification_continues():
    params = AuctionParams(buyers=3, miners=2, seed=20, buyer_policies={
        0: Policy("fixed", (3,)), 1: Policy("fixed", (7,)), 2: Policy("complain", (5,))})
    result = run_auction(params)
    assert result.outcome.valid  # honest seller survives the framing
    assert result.false_accusers == (buyer(2),)
    assert seller() not in result.cheaters
    assert complaint_openings(result) > 0


# ------------------------------------------------------ privacy and misc


def test_posterior_privacy_over_random_honest_runs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        params = AuctionParams(buyers=m, miners=int(rng.integers(1, 3)),
                               seed=int(rng.integers(0, 2**60)))
        result = run_auction(params)
        assert posterior_privacy_violations(result) == []
        assert bid_privacy_violations(result) == []
        assert complaint_openings(result) == 0


def miner_linked_bids(result, m) -> dict:
    """The (buyer, bid) pairs miner `m` rebuilds from its own view: the
    `auction_vlist` it broadcast, and the non-complaint `auction_response`
    sends delivered to it, each naming a slot of that list."""
    log, name = result.context.log, str(m)
    (vlist,) = [decode_payload(bytes.fromhex(rec["payload"])) for rec in log.of_kind("broadcast")
                if rec["sender"] == name and rec["payload"].startswith(f"{TAGS['auction_vlist']:02x}")]
    slots = [vlist["winning_bid"], *vlist["losing_bids"]]
    linked = {}
    for rec in log.of_kind("send"):
        if (rec["receiver"] == name and "delivered" in rec
                and rec["payload"].startswith(f"{TAGS['auction_response']:02x}")):
            msg = decode_payload(bytes.fromhex(rec["payload"]))
            if not msg["complaint"]:
                linked[rec["sender"]] = slots[msg["slot"]]
    return linked


def test_a_miner_links_every_losing_bid_to_its_buyer():
    """Posterior privacy holds against ledger readers and other buyers,
    not against the miners: a buyer's response names the slot of its bid
    in the list the miner built, over an authenticated channel. This pins
    the leak as it stands, so a change that closes it shows here."""
    linked = losing = 0
    for seed in range(100):
        result = run_auction(AuctionParams(buyers=4, miners=4, seed=seed))
        assert result.outcome.valid
        pairs = miner_linked_bids(result, miner(0))
        for b, bid in result.true_bids.items():
            if b != result.outcome.winner:
                losing += 1
                linked += pairs.get(str(b)) == bid
    assert (linked, losing) == (300, 300)


@pytest.mark.parametrize("seed", range(10))
def test_bids_leave_every_record_before_verification_unchanged_but_the_sellers(seed):
    """Bid privacy as noninterference: with the seed fixed, permuting the
    bids changes no record before phase 4 other than those addressed to
    the seller, who alone receives the openings."""
    views = []
    for bids in ((5, 9, 3), (9, 3, 5)):
        result = run_auction(AuctionParams(buyers=3, miners=4, seed=seed,
                                           buyer_policies=fixed_bids(*bids)))
        views.append([rec for rec in records_before_phase(result.context.log.records, 4)
                      if rec.get("receiver") != str(seller())])
    assert views[0] == views[1]


def test_bid_privacy_scan_reports_a_planted_seller_to_buyer_message(monkeypatch):
    make_context = auction.make_context

    def make_context_leaking_to_buyer_0(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        ctx.network.send_authenticated(seller(), buyer(0), b"\x00leak")  # delivered in phase 1
        return ctx

    monkeypatch.setattr(auction, "make_context", make_context_leaking_to_buyer_0)
    result = run_auction(AuctionParams(buyers=3, miners=2, seed=1))
    (violation,) = bid_privacy_violations(result)
    assert "'sender': 'seller:0'" in violation and "'receiver': 'buyer:0'" in violation
    assert result.outcome.valid  # the leak changes no verdict; only the scan sees it


def test_scans_read_the_messages_of_broadcast_records(monkeypatch):
    """A planted seller broadcast to buyers 0 and 2, delivered in phase 1,
    is two privacy violations; a planted miner broadcast of an open
    request to two buyers is two openings demanded."""
    make_context = auction.make_context

    def make_context_with_broadcasts(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        ctx.network.broadcast(seller(), [buyer(0), buyer(2)], b"\x00leak")
        ctx.network.broadcast(miner(1), [buyer(1), buyer(2)], encode("open_request", commitment_id=0))
        return ctx

    monkeypatch.setattr(auction, "make_context", make_context_with_broadcasts)
    result = run_auction(AuctionParams(buyers=3, miners=2, seed=1))
    seller_leaks = [v for v in bid_privacy_violations(result) if "seller:0 -> " in v]
    assert len(seller_leaks) == 2
    assert "seller:0 -> buyer:0, msg_id 0," in seller_leaks[0]
    assert "seller:0 -> buyer:2, msg_id 1," in seller_leaks[1]
    assert complaint_openings(result) == 2
    assert result.outcome.valid  # no planted message changes a verdict


def test_privacy_scans_refuse_summary_mode_results():
    result = run_auction(AuctionParams(buyers=3, miners=2, seed=1, detail=False))
    with pytest.raises(QbsimError, match="detail log"):
        bid_privacy_violations(result)
    with pytest.raises(QbsimError, match="detail log"):
        complaint_openings(result)


@pytest.mark.parametrize("miners", [2, 4])
def test_dropped_seller_messages_make_the_miner_blame_the_seller(monkeypatch, miners):
    config = ScenarioConfig(protocol="auction", buyers=3, miners=miners, seed=1)
    honest = run_scenario(config)
    make_context = auction.make_context

    def make_context_dropping_seller_to_miner_0(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        ctx.network.set_hook(seller(), miner(0), lambda msg: ("drop",))
        return ctx

    monkeypatch.setattr(auction, "make_context", make_context_dropping_seller_to_miner_0)
    report = run_scenario(config)
    validate_report(report)
    assert report["per_miner_outputs"]["miner:0"] == {"verdict": "bot", "cheater": "seller:0"}
    if miners == 2:  # one honest miner's bot against the other's valid
        assert report["outcome"] == {"verdict": "no_consensus"}
    else:  # f_tol = 1 absorbs the miner that heard nothing
        assert report["outcome"] == honest["outcome"]


def test_lost_commit_notice_leaves_the_false_complaint_to_the_miner(monkeypatch):
    """The miner opens the commitment `commit_to` made to it, so a lost
    commit notice neither crashes the run nor voids the complaint."""
    make_context = auction.make_context

    def make_context_dropping_buyer_0_notice_to_miner_0(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        ctx.network.set_hook(buyer(0), miner(0),
                             lambda msg: ("drop",) if msg.payload[0] == 0x20 else None)
        return ctx

    monkeypatch.setattr(auction, "make_context", make_context_dropping_buyer_0_notice_to_miner_0)
    report = run_scenario(ScenarioConfig(
        protocol="auction", buyers=3, miners=2, seed=1,
        buyer_policies={"0": "complain:5", "1": "fixed:7", "2": "fixed:3"}))
    validate_report(report)
    assert [rec["sender"] for rec in report["event_log"]
            if rec["event"] == "adversary_drop"] == ["buyer:0"]
    assert report["false_accusers"] == ["buyer:0"]


def test_removing_one_miner_leaves_outcome_unchanged():
    policies = fixed_bids(12, 5, 9)
    r3 = run_auction(AuctionParams(buyers=3, miners=3, seed=22, buyer_policies=dict(policies)))
    r2 = run_auction(AuctionParams(buyers=3, miners=2, seed=22, buyer_policies=dict(policies)))
    assert r3.outcome == r2.outcome


def test_buyer_policy_parsing():
    assert parse_buyer_policy("honest") == Policy("honest")
    assert parse_buyer_policy("fixed:7") == Policy("fixed", (7,))
    assert parse_buyer_policy("change:7:9") == Policy("change", (7, 9))
    assert parse_buyer_policy("complain:5") == Policy("complain", (5,))
    with pytest.raises(QbsimError):
        parse_buyer_policy("bribe")


@pytest.mark.parametrize("bid", ["7", True, 7.0, None])
def test_a_policy_bid_that_is_not_an_int_is_one_violation(bid):
    params = AuctionParams(buyers=2, miners=1, seed=1, buyer_policies={0: Policy("fixed", (bid,))})
    with pytest.raises(ConfigError) as err:
        run_auction(params)
    assert err.value.violations == [f"buyer 0: policy bids must be integers, got ({bid!r},)"]


def test_preconditions():
    with pytest.raises(QbsimError):
        run_auction(AuctionParams(buyers=1, miners=1, seed=1))
    with pytest.raises(QbsimError):
        run_auction(AuctionParams(buyers=2, miners=0, seed=1))
    with pytest.raises(QbsimError):
        run_auction(AuctionParams(buyers=2, miners=1, seed=1, bid_width=0))
    with pytest.raises(QbsimError):
        run_auction(AuctionParams(buyers=2, miners=1, seed=1,
                                  buyer_policies={0: Policy("fixed", (0,)),
                                                  1: Policy("fixed", (1,))}))
