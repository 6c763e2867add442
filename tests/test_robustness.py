"""Configs that validation accepts end in a report, and the ones a run
cannot carry are refused before it starts."""

import json
import re
import sys

import pytest

from qbsim.auction import output_from_body, run_auction
from qbsim.cli import entrypoint
from qbsim.consensus import BOT
from qbsim.encoding import decode_ticket_list
from qbsim.errors import ConfigError
from qbsim.lottery import determine_outcome, run_lottery
from qbsim.parties import miner
from qbsim.scenario import ScenarioConfig, run_scenario, validate_report


def cli(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["qbsim", *argv])
    with pytest.raises(SystemExit) as exit_:
        entrypoint()
    return exit_.value.code


# ------------------------------------- honest miners split past the bound


def split_config(protocol, **counts):
    """Past f < n/3 on this seed the reference miner 1 decides BOT while
    miner 2 decides a record."""
    return ScenarioConfig(protocol=protocol, miners=3, seed=1,
                          byzantine_miners={"0": "equivocate"}, **counts)


def test_lottery_split_bot_decision_ends_in_a_report(monkeypatch):
    config = split_config("lottery", players=3, ticket_bits=1)
    result = run_lottery(config.params())
    decisions = result.consensus.decisions
    assert decisions[miner(1)] == BOT and decisions[miner(2)] not in (None, BOT)
    assert result.outcome.aborted and result.decided_body == BOT
    assert result.ledgers[miner(1)].records == ()
    assert result.ledgers[miner(2)].records[0].body == decisions[miner(2)]
    assert result.verdicts[miner(2)] == determine_outcome(
        decode_ticket_list(decisions[miner(2)]), 1, "exclude")
    report = run_scenario(config)
    validate_report(report)
    assert any(rec["event"] == "consensus_no_agreement" for rec in report["event_log"])
    assert cli(monkeypatch, "lottery", "run", "-n", "3", "-m", "1", "-k", "3",
               "--byzantine", "0=equivocate", "-s", "1") == 0


def test_auction_split_bot_decision_appends_the_decided_record():
    result = run_auction(split_config("auction", buyers=3).params())
    decisions = result.consensus.decisions
    assert decisions[miner(1)] == BOT and decisions[miner(2)] not in (None, BOT)
    assert result.outcome.to_dict() == {"verdict": "no_consensus"}
    assert result.ledgers[miner(1)].records == ()
    (record,) = result.ledgers[miner(2)].records
    assert output_from_body(record.body) == result.per_miner_outputs[miner(2)]


# ----------------------------------------------------- key budget bound


def largest_pair_use(report) -> int:
    """The most one-time key blocks any party pair spent in the run."""
    used = {}
    for rec in report["event_log"]:
        if rec["event"] == "send":
            keys = [(rec["receiver"], rec["key_index"])]
        elif rec["event"] == "broadcast":
            keys = [(receiver, key_index) for receiver, key_index, *_ in rec["to"]]
        else:
            continue
        for receiver, key_index in keys:
            pair = frozenset((rec["sender"], receiver))
            used[pair] = max(used.get(pair, 0), key_index + 1)
    return max(used.values())


# a pair of miners: 4 blocks per consensus phase plus one in each of the
# at most two phases one of them is king; a player and a miner: commit
# notice and open; a buyer and a miner: commit notice, claim list,
# response, and an open request plus opening for a complaint
NEEDS = {1: 2, 2: 5, 3: 5, 4: 10, 5: 10, 6: 10, 7: 14}
AUCTION_WORST = dict(buyers=3, bid_width=8, seller_policy="drop-loser",
                     buyer_policies={"0": "complain:30", "1": "fixed:200", "2": "fixed:90"})


def budget_configs():
    for miners, need in NEEDS.items():
        yield pytest.param(dict(protocol="lottery", players=3, ticket_bits=4, miners=miners),
                           need, id=f"lottery-{miners}")
        yield pytest.param(dict(protocol="auction", miners=miners, **AUCTION_WORST),
                           max(need, 5), id=f"auction-{miners}")


@pytest.mark.parametrize("fields, need", budget_configs())
def test_key_budget_equal_to_the_need_runs_and_one_less_is_refused(fields, need, monkeypatch):
    report = run_scenario(ScenarioConfig(seed=3, key_budget=need, **fields))
    validate_report(report)
    assert largest_pair_use(report) == need
    short = ScenarioConfig(seed=3, key_budget=need - 1, **fields)
    with pytest.raises(ConfigError, match="key_budget"):
        run_scenario(short)
    run = run_lottery if fields["protocol"] == "lottery" else run_auction
    with pytest.raises(ConfigError, match="key_budget"):
        run(short.params())


def test_cli_refuses_a_key_budget_below_the_need(monkeypatch, capsys):
    assert cli(monkeypatch, "lottery", "run", "--miners", "4", "--key-budget", "2") == 1
    assert "key_budget" in capsys.readouterr().err


# ------------------------------------------------ every buyer excluded


def test_auction_with_every_buyer_excluded_ends_with_no_bids(monkeypatch, capsys):
    policies = {"0": "change:1:2", "1": "change:1:2", "2": "change:3:4"}
    report = run_scenario(ScenarioConfig(protocol="auction", buyers=3, miners=2,
                                         buyer_policies=policies))
    validate_report(report)
    assert report["outcome"] == {"verdict": "no_bids"}
    assert report["cheaters"] == report["excluded_buyers"] == ["buyer:0", "buyer:1", "buyer:2"]
    assert all(out == {"verdict": "no_bids"} for out in report["per_miner_outputs"].values())
    assert report["assertions"]["honest_ledgers_consistent"] is True
    assert cli(monkeypatch, "auction", "run", "--buyer-policy", "0=change:1:2",
               "--buyer-policy", "1=change:1:2", "--buyer-policy", "2=change:3:4") == 2
    assert "cheaters detected: buyer:0, buyer:1, buyer:2" in capsys.readouterr().err


# ------------------------------------------ integral floats as counts

# Draft 2020-12 counts 3.0 as an integer, so the schema accepts these
FLOAT_COUNT_CONFIGS = {
    "lottery": {"protocol": "lottery", "players": 3.0, "ticket_bits": 8, "miners": 2},
    "auction": {"protocol": "auction", "buyers": 3, "miners": 2.0},
}


@pytest.mark.parametrize("protocol", sorted(FLOAT_COUNT_CONFIGS))
def test_integral_float_counts_run_as_ints(protocol, tmp_path, monkeypatch, capsys):
    data = FLOAT_COUNT_CONFIGS[protocol]
    config = ScenarioConfig.from_dict(data)
    report = run_scenario(config)
    validate_report(report)
    for name, value in data.items():
        if isinstance(value, float):
            assert type(report["config"][name]) is int and report["config"][name] == value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli(monkeypatch, protocol, "run", "--config", str(path)) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["config"] == report["config"]
    assert "Traceback" not in err


# ---------------------------------- malformed policy and backend texts

MALFORMED_TEXTS = [
    ("lottery", "--backend", "cheat:1.2.3", "backend", "cheat:1.2.3"),
    ("lottery", "--player-policy", "0=equivocate:01", "player_policies", {"0": "equivocate:01"}),
    ("auction", "--buyer-policy", "0=fixed:abc", "buyer_policies", {"0": "fixed:abc"}),
    ("auction", "--buyer-policy", "0=change:1", "buyer_policies", {"0": "change:1"}),
]


@pytest.mark.parametrize("protocol, option, argument, name, value", MALFORMED_TEXTS)
def test_malformed_texts_end_in_a_config_error(protocol, option, argument, name, value,
                                               monkeypatch, capsys):
    assert cli(monkeypatch, protocol, "run", option, argument) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "Traceback" not in err
    text = value if isinstance(value, str) else value["0"]
    with pytest.raises(ConfigError, match=re.escape(text)):
        run_scenario(ScenarioConfig.from_dict({"protocol": protocol, name: value}))


@pytest.mark.parametrize("text", ["fixed:+7", "fixed: 7", "fixed:7 ", "fixed:0_7",
                                  "fixed:\u0667", "fixed:007", "fixed:-7", "change:7:07",
                                  "complain:0x7", "fixed:" + "1" * 4301])
def test_a_bid_has_one_spelling(text):
    config = ScenarioConfig(protocol="auction", buyers=2, miners=1, seed=1,
                            buyer_policies={"0": text})
    with pytest.raises(ConfigError) as err:
        config.params()
    assert len(err.value.violations) == 1
    assert text[:20] in err.value.violations[0]


def test_a_bid_in_its_one_spelling_runs():
    config = ScenarioConfig(protocol="auction", buyers=2, miners=1, seed=1,
                            buyer_policies={"0": "fixed:7", "1": "change:10:9"})
    assert run_scenario(config)["outcome"]["winning_bid"] == 7


# ------------------------------------------------ malformed input files


def assert_one_error_line(monkeypatch, capsys, *argv):
    assert cli(monkeypatch, *argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, content", [
    (["qbc", "analyze"], b"not json"),
    (["lottery", "run", "--config"], b"\xff{"),
    (["ledger", "dump", "--report"], b"{"),
])
def test_an_input_file_that_is_not_json_exits_one(argv, content, tmp_path, monkeypatch, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert_one_error_line(monkeypatch, capsys, *argv, str(path))


def test_ledger_dump_of_a_record_body_that_is_not_hex_exits_one(tmp_path, monkeypatch, capsys):
    report = run_scenario(ScenarioConfig(protocol="lottery", players=2, ticket_bits=4,
                                         miners=1, seed=3))
    report["ledgers"]["miner:0"][0]["body"] = "abc"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert_one_error_line(monkeypatch, capsys, "ledger", "dump", "--report", str(path))
