"""Lottery protocol: outcome math, adversary handling, ledger oracle."""

from fractions import Fraction

import numpy as np
import pytest

from qbsim.bits import BitString, xor_all
from qbsim.commitment import parse_backend
from qbsim.encoding import encode
from qbsim.errors import ConfigError, QbsimError
from qbsim.lottery import (
    LotteryParams,
    determine_outcome,
    lottery_violations,
    parse_player_policy,
    revenue_shares,
    run_lottery,
)
from qbsim.parties import miner, player
from qbsim.runtime import Policy

from oracles import lottery_result_matches_ledger, records_before_phase


# ------------------------------------------------------------ pure math


def test_winning_ticket_example():
    assert xor_all([BitString.from_text("0101"),
                    BitString.from_text("0011")]).text == "0110"


def test_winning_ticket_odd_count_of_equal_tickets():
    t = BitString.from_text("1010")
    assert xor_all([t, t, t]) == t


def test_winning_ticket_fold_order_irrelevant():
    rng = np.random.default_rng(3)
    tickets = [BitString.random(rng, 16) for _ in range(7)]
    assert xor_all(tickets) == xor_all(list(reversed(tickets)))


def test_hamming_examples():
    assert BitString.from_text("0101").hamming_distance(BitString.from_text("0011")) == 2


def test_revenue_shares_frozen_example():
    # distances (0, m) with m=4: weights (5, 1) -> shares (5/6, 1/6)
    assert revenue_shares([0, 4], 4) == [Fraction(5, 6), Fraction(1, 6)]


def test_revenue_shares_properties():
    shares = revenue_shares([2, 2, 0, 3], 4)
    assert sum(shares) == 1
    assert shares[0] == shares[1]            # equal distance, equal share
    assert shares[2] > shares[0] > shares[3]  # strictly decreasing in distance
    assert all(s > 0 for s in shares)
    assert revenue_shares([3], 8) == [Fraction(1)]


def test_revenue_shares_rejects_out_of_range():
    with pytest.raises(QbsimError):
        revenue_shares([5], 4)


def test_determine_outcome_exclude_recomputes_over_remaining():
    entries = [
        (0, "opened", BitString.from_text("0101")),
        (1, "cheat_detected", None),
        (2, "opened", BitString.from_text("0011")),
    ]
    outcome = determine_outcome(entries, 4, "exclude")
    assert not outcome.aborted
    assert outcome.included == (0, 2)
    assert outcome.excluded == (1,)
    assert outcome.winning.text == "0110"
    assert outcome.revenues[1] == Fraction(0)
    assert sum(outcome.revenues.values()) == 1


def test_determine_outcome_abort_policy():
    entries = [
        (0, "opened", BitString.from_text("01")),
        (1, "cheat_detected", None),
    ]
    outcome = determine_outcome(entries, 2, "abort")
    assert outcome.aborted and outcome.winning is None


# --------------------------------------------------------- end to end


def fixed(text):
    return Policy("fixed", (BitString.from_text(text),))


def equivocate(commit, open_):
    return Policy("equivocate", (BitString.from_text(commit), BitString.from_text(open_)))


def test_two_player_example_symmetric_revenues():
    params = LotteryParams(players=2, ticket_bits=4, miners=1, seed=5, policies={
        0: fixed("0101"),
        1: fixed("0011"),
    })
    result = run_lottery(params)
    out = result.outcome
    assert out.winning.text == "0110"
    assert out.distances == {0: 2, 1: 2}
    assert out.revenues[0] == out.revenues[1] == Fraction(1, 2)
    assert result.cheaters == ()


def test_minimal_one_bit_lottery():
    params = LotteryParams(players=2, ticket_bits=1, miners=1, seed=6)
    result = run_lottery(params)
    assert len(result.outcome.winning) == 1


def assert_matches_oracle(result, params):
    assert lottery_result_matches_ledger(result, params.ticket_bits, params.cheat_policy)


def test_random_honest_runs_match_ledger_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = LotteryParams(
            players=int(rng.integers(2, 6)),
            ticket_bits=int(rng.integers(1, 17)),
            miners=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**60)),
        )
        result = run_lottery(params)
        assert_matches_oracle(result, params)
        assert result.honest_ledgers_consistent == (True, None)


def test_equivocator_rejected_and_excluded_under_ideal_backend():
    params = LotteryParams(players=3, ticket_bits=4, miners=2, seed=21, policies={
        1: equivocate("0000", "1111"),
    })
    result = run_lottery(params)
    assert player(1) in result.cheaters
    assert result.outcome.excluded == (1,)
    assert not result.outcome.aborted
    assert result.outcome.included == (0, 2)
    assert_matches_oracle(result, params)


THREE_BITS, EIGHT_BITS = BitString.from_text("101"), BitString.from_text("11110000")


@pytest.mark.parametrize("forged", [
    encode("ticket_list", entries=[(0, "opened", THREE_BITS), (1, "opened", EIGHT_BITS)]),
    # the third entry a 3-bit ticket in the byte 0xff: its padding bits are set
    encode("ticket_list", entries=[(0, "opened", EIGHT_BITS), (1, "opened", EIGHT_BITS),
                                   (2, "opened", THREE_BITS)])[:-1] + b"\xff",
], ids=["two-entries", "stray-padding"])
def test_a_forged_ticket_list_of_the_wrong_shape_is_a_bot_vote(forged):
    """A Byzantine miner's list that holds two entries, one of them 3 bits
    long, or whose last ticket has stray padding bits, reaches no ledger
    and crashes no winner determination: the consensus domain is the
    lists that decode, with one entry per player, in order, and every
    opened ticket `ticket_bits` long."""
    for seed in range(60):
        params = LotteryParams(
            players=3, ticket_bits=8, miners=4, seed=seed, backend=parse_backend("cheat:0.5"),
            policies={0: equivocate("00000000", "00000001")},
            byzantine_miners={miner(0): lambda phase, round_, recipient: ("value", forged)})
        result = run_lottery(params)
        assert all(record.body != forged
                   for ledger in result.ledgers.values() for record in ledger.records)


def test_equivocator_aborts_run_under_abort_policy():
    params = LotteryParams(players=3, ticket_bits=4, miners=2, seed=22, cheat_policy="abort",
                           policies={1: equivocate("0000", "1111")})
    result = run_lottery(params)
    assert result.outcome.aborted
    assert player(1) in result.cheaters


def test_equivocator_opening_committed_value_is_no_equivocation():
    t = BitString.from_text("0101")
    params = LotteryParams(players=2, ticket_bits=4, miners=2, seed=23,
                           policies={0: Policy("equivocate", (t, t))})
    result = run_lottery(params)
    assert result.cheaters == ()
    assert result.outcome.included == (0, 1)


def test_flipping_one_committed_bit_flips_the_winning_bit():
    base = {
        0: fixed("01010101"),
        1: fixed("00110011"),
        2: fixed("00001111"),
    }
    result = run_lottery(LotteryParams(players=3, ticket_bits=8, miners=2, seed=31,
                                       policies=dict(base)))
    flipped = dict(base)
    flipped[1] = Policy("fixed", (base[1].values[0].flip(5),))
    result2 = run_lottery(LotteryParams(players=3, ticket_bits=8, miners=2, seed=31,
                                        policies=flipped))
    assert result2.outcome.winning == result.outcome.winning.flip(5)


def test_removing_one_miner_leaves_outcome_unchanged():
    policies = {
        0: fixed("0110"),
        2: fixed("1001"),
    }
    out3 = run_lottery(LotteryParams(players=4, ticket_bits=4, miners=3, seed=41,
                                     policies=dict(policies)))
    out2 = run_lottery(LotteryParams(players=4, ticket_bits=4, miners=2, seed=41,
                                     policies=dict(policies)))
    assert out3.outcome.winning == out2.outcome.winning
    assert out3.outcome.revenues == out2.outcome.revenues


def test_adversarial_last_player_cannot_bias_winning_bits():
    # the last committer has seen only sealed commitments, so even an
    # all-ones fixed ticket leaves every winning bit at frequency 1/2
    from qbsim.batch import run_batch
    from qbsim.scenario import ScenarioConfig

    config = ScenarioConfig(protocol="lottery", players=3, ticket_bits=4,
                            miners=1, seed=606, detail_log=False,
                            player_policies={"2": "fixed:1111"})
    runs = 2000
    agg = run_batch(config, runs=runs)
    sigma = 0.5 / runs ** 0.5
    for freq in agg["bit_one_frequencies"]:
        assert abs(freq - 0.5) <= 3 * sigma


def test_miner_verdicts_all_agree():
    params = LotteryParams(players=3, ticket_bits=8, miners=4, seed=51)
    result = run_lottery(params)
    outcomes = {v.winning for v in result.verdicts.values()}
    assert len(outcomes) == 1
    assert set(result.verdicts) == {miner(i) for i in range(4)}


def test_commit_messages_never_carry_ticket_bits():
    # concealing at the transport level: before opening, the only thing
    # on the wire about a ticket is its length
    params = LotteryParams(players=2, ticket_bits=8, miners=2, seed=61, policies={
        0: fixed("10101010"),
        1: fixed("01010101"),
    })
    result = run_lottery(params)
    log = result.context.log
    commits = [r for r in log.records if r["event"] == "commit"]
    assert commits and all(set(r) <= {"seq", "event", "id", "committer", "receiver",
                                      "backend", "length"} for r in commits)


@pytest.mark.parametrize("seed", range(10))
def test_a_ticket_leaves_every_record_before_the_openings_unchanged(seed):
    """Lottery unpredictability as noninterference: with the seed fixed,
    player 0's ticket changes no record before the phase-2 record, so no
    party sees anything of it before the openings."""
    prefixes = []
    for ticket in ("00000000", "11111111"):
        result = run_lottery(LotteryParams(players=3, ticket_bits=8, miners=4, seed=seed,
                                           policies={0: fixed(ticket)}))
        prefixes.append(records_before_phase(result.context.log.records, 2))
    assert prefixes[0] == prefixes[1]


def test_policy_parsing():
    assert parse_player_policy("honest") == Policy("honest")
    assert parse_player_policy("fixed:0101") == fixed("0101")
    assert parse_player_policy("equivocate:0101:1111") == equivocate("0101", "1111")
    with pytest.raises(QbsimError):
        parse_player_policy("fixed:012")
    with pytest.raises(QbsimError):
        parse_player_policy("steal")


def test_a_policy_ticket_of_another_length_is_one_violation():
    params = LotteryParams(players=2, ticket_bits=4, miners=1, seed=1,
                           policies={0: parse_player_policy("fixed:01")})
    assert lottery_violations(params) == ["player 0: policy tickets must have length 4"]


def test_a_policy_ticket_that_is_not_a_bitstring_is_one_violation():
    params = LotteryParams(players=2, ticket_bits=4, miners=1, seed=1,
                           policies={0: Policy("fixed", ("0101",))})
    with pytest.raises(ConfigError) as err:
        run_lottery(params)
    assert err.value.violations == ["player 0: policy tickets must be BitStrings, got ('0101',)"]


@pytest.mark.parametrize("policy", [Policy("steal"), Policy("fixed"),
                                    Policy("honest", (BitString.from_text("0101"),))])
def test_a_policy_the_table_lacks_is_one_violation(policy):
    params = LotteryParams(players=2, ticket_bits=4, miners=1, seed=1, policies={1: policy})
    assert lottery_violations(params) == [f"player 1: unknown policy {policy!r}"]


def test_preconditions():
    with pytest.raises(QbsimError):
        run_lottery(LotteryParams(players=1, ticket_bits=4, miners=1, seed=1))
    with pytest.raises(QbsimError):
        run_lottery(LotteryParams(players=2, ticket_bits=0, miners=1, seed=1))
    with pytest.raises(QbsimError):
        run_lottery(LotteryParams(players=2, ticket_bits=4, miners=0, seed=1))
