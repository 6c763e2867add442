"""Every config that validation accepts runs; every one it rejects fails
with a ConfigError that names the field, from every entry point."""

import json
import sys

import pytest

from qbsim import auction, lottery
from qbsim.auction import AuctionParams, run_auction
from qbsim.batch import run_batch
from qbsim.cli import entrypoint
from qbsim.errors import ConfigError
from qbsim.lottery import LotteryParams, run_lottery
from qbsim.scenario import ScenarioConfig, run_scenario, validate_report

TOO_MANY = 0x10000  # one past what a ">H" count or index field carries


@pytest.fixture
def no_run(monkeypatch):
    """A config past the limits must be refused before the run starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before its limits were checked")

    monkeypatch.setattr(lottery, "make_context", refuse)
    monkeypatch.setattr(auction, "make_context", refuse)


@pytest.mark.parametrize("seller_policy", ["honest", "inflate"])
def test_bid_width_64_completes(seller_policy):
    # both bounded draws reach 2**64 - 1, one past the int64 range
    config = ScenarioConfig(protocol="auction", buyers=3, bid_width=64, miners=2,
                            seed=21, seller_policy=seller_policy)
    report = run_scenario(config)
    validate_report(report)
    assert report["outcome"]["verdict"] == ("valid" if seller_policy == "honest" else "bot")


@pytest.mark.parametrize("field", ["players", "ticket_bits", "miners"])
def test_lottery_counts_past_the_encoding_raise_config_error(field, no_run):
    fields = dict(players=3, ticket_bits=8, miners=2)
    fields[field] = TOO_MANY
    with pytest.raises(ConfigError, match=field):
        run_scenario(ScenarioConfig(protocol="lottery", **fields))
    with pytest.raises(ConfigError, match=field):
        run_batch(ScenarioConfig(protocol="lottery", **fields), runs=2)
    with pytest.raises(ConfigError, match=field):
        run_lottery(LotteryParams(seed=1, **fields))


@pytest.mark.parametrize("field", ["buyers", "miners"])
def test_auction_counts_past_the_encoding_raise_config_error(field, no_run):
    fields = dict(buyers=3, miners=2)
    fields[field] = TOO_MANY
    with pytest.raises(ConfigError, match=field):
        run_scenario(ScenarioConfig(protocol="auction", **fields))
    with pytest.raises(ConfigError, match=field):
        run_batch(ScenarioConfig(protocol="auction", **fields), runs=2)
    with pytest.raises(ConfigError, match=field):
        run_auction(AuctionParams(seed=1, **fields))


def test_from_dict_rejects_a_mistyped_field_with_config_error():
    with pytest.raises(ConfigError, match="players"):
        ScenarioConfig.from_dict({"protocol": "lottery", "players": "3",
                                  "ticket_bits": 8, "miners": 2})


def test_cli_config_file_with_a_mistyped_field_exits_one(tmp_path, monkeypatch, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"protocol": "lottery", "players": "3",
                                "ticket_bits": 8, "miners": 2}))
    monkeypatch.setattr(sys, "argv", ["qbsim", "lottery", "run", "--config", str(path)])
    with pytest.raises(SystemExit) as exit_:
        entrypoint()
    assert exit_.value.code == 1
    assert "players" in capsys.readouterr().err


SEED_PAST_64_BITS = 1 << 64  # the rng reads a seed modulo 2^64: this one would run as seed 0


def test_cli_refuses_a_seed_past_64_bits(monkeypatch, capsys, no_run):
    monkeypatch.setattr(sys, "argv", ["qbsim", "lottery", "run", "--seed", str(SEED_PAST_64_BITS)])
    with pytest.raises(SystemExit) as exit_:
        entrypoint()
    assert exit_.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and "seed" in out.err


def test_from_dict_refuses_a_seed_past_64_bits():
    config = {"protocol": "lottery", "players": 3, "ticket_bits": 8, "miners": 2}
    with pytest.raises(ConfigError, match=r"\$\.seed"):
        ScenarioConfig.from_dict(dict(config, seed=SEED_PAST_64_BITS))
    assert ScenarioConfig.from_dict(dict(config, seed=SEED_PAST_64_BITS - 1)).params()


@pytest.mark.parametrize("seed", [-1, SEED_PAST_64_BITS], ids=["negative", "past 64 bits"])
def test_library_entries_refuse_a_seed_outside_64_bits(seed, no_run):
    with pytest.raises(ConfigError, match="seed"):
        run_lottery(LotteryParams(players=3, ticket_bits=8, miners=2, seed=seed))
    with pytest.raises(ConfigError, match="seed"):
        run_auction(AuctionParams(buyers=3, miners=2, seed=seed))


def test_the_largest_64_bit_seed_runs():
    seed = SEED_PAST_64_BITS - 1
    lottery_run = run_lottery(LotteryParams(players=3, ticket_bits=8, miners=2, seed=seed))
    assert lottery_run.outcome.winning
    assert run_auction(AuctionParams(buyers=3, miners=2, seed=seed)).outcome.valid


LOTTERY = dict(protocol="lottery", players=3, ticket_bits=8, miners=2)
AUCTION = dict(protocol="auction", buyers=3, miners=2)


@pytest.mark.parametrize("fields, violation", [
    (dict(LOTTERY, players="3"), "$.players: '3' is not of type 'integer'"),
    (dict(LOTTERY, seed="1"), "$.seed: '1' is not of type 'integer'"),
    (dict(AUCTION, backend=5), "$.backend: 5 is not of type 'string'"),
    (dict(LOTTERY, player_policies={"0": 7}), "$.player_policies['0']: 7 is not of type 'string'"),
    (dict(AUCTION, bid_width=2.5, buyer_policies={"0": "fixed:3"}),
     "$.bid_width: 2.5 is not of type 'integer'"),
], ids=["players", "seed", "backend", "player_policies", "bid_width"])
def test_a_field_of_the_wrong_type_is_one_schema_violation(fields, violation, no_run):
    """The schema's type of each field is checked before the Python checks
    read it, so a wrong type is named instead of crashing them."""
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig(**fields))
    assert err.value.violations == [violation]


@pytest.mark.parametrize("fields, violations", [
    (dict(LOTTERY, player_policies={0: "honest"}), ["player entry for unknown player 0"]),
    (dict(AUCTION, buyer_policies={2: "fixed:3"}), ["buyer entry for unknown buyer 2"]),
    (dict(LOTTERY, miners=4, byzantine_miners={1: "silent"}),
     ["miner entry for unknown miner 1"]),
    (dict(LOTTERY, player_policies={0: "honest", "1": "honest", "01": "honest"}),
     ["player entry for unknown player '01'", "player entry for unknown player 0"]),
], ids=["player", "buyer", "byzantine", "mixed"])
def test_an_index_key_that_is_not_a_str_is_one_violation(fields, violations, no_run):
    """The schema cannot type a dict key, so a code-built config may hold
    an `int` key; it is refused like a key that is no index, in the same
    error as the other keys, which sort first."""
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig(**fields))
    assert err.value.violations == violations


def test_a_backend_with_a_final_newline_is_refused(no_run):
    """`$` in the schema's backend pattern matches before a final newline;
    `parse_backend` reads only a number in its one spelling."""
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(backend="cheat:0.5\n", **AUCTION).params()
    assert err.value.violations == [
        "$.backend: unknown backend 'cheat:0.5\\n' (expected 'ideal' or 'cheat:<p>')"]
