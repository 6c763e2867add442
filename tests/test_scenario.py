"""Config round-trips, report determinism, schema validation, batching."""

import dataclasses
import importlib.resources
import json

import pytest

from qbsim.auction import SELLER_POLICIES
from qbsim.batch import run_batch
from qbsim.consensus import MINER_SCRIPT_NAMES
from qbsim.errors import ConfigError
from qbsim import auction, lottery, scenario
from qbsim.lottery import CHEAT_POLICIES
from qbsim.scenario import (
    ScenarioConfig,
    canonical_report_bytes,
    run_scenario,
    validate_report,
)
from test_golden import GOLDEN


def lottery_config(**kw):
    base = dict(protocol="lottery", players=3, ticket_bits=8, miners=2, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def auction_config(**kw):
    base = dict(protocol="auction", buyers=3, miners=2, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_roundtrip_through_json():
    config = lottery_config(player_policies={"0": "fixed:01010101"})
    data = json.loads(json.dumps(config.to_dict()))
    assert ScenarioConfig.from_dict(data) == config


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"protocol": "lottery", "difficulty": 9000})


def test_validation_lists_every_violation():
    config = ScenarioConfig(protocol="lottery", players=0, ticket_bits=0,
                            miners=0, backend="sha256", cheat_policy="retry")
    with pytest.raises(ConfigError) as err:
        config.params()
    assert len(err.value.violations) == 5
    with pytest.raises(ConfigError) as err:
        run_scenario(config)
    assert len(err.value.violations) == 5


def count_policy_parses(monkeypatch) -> list:
    """Every call of `parse_player_policy` and `parse_buyer_policy` made
    through the scenario layer."""
    calls = []
    for name in ("parse_player_policy", "parse_buyer_policy"):
        def counted(text, parse=getattr(scenario, name)):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(scenario, name, counted)
    return calls


POLICY_CONFIGS = [lottery_config(player_policies={"1": "fixed:00000001"}),
                  auction_config(buyer_policies={"1": "fixed:9"})]


def test_run_scenario_parses_the_config_once(monkeypatch):
    calls = count_policy_parses(monkeypatch)
    for config in POLICY_CONFIGS:
        calls.clear()
        run_scenario(config)
        assert len(calls) == 1


def test_run_batch_parses_the_config_once_per_batch(monkeypatch):
    calls = count_policy_parses(monkeypatch)
    for config in POLICY_CONFIGS:
        calls.clear()
        agg = run_batch(config, runs=5)
        assert agg["runs"] == 5
        assert len(calls) == 1


def count_limit_checks(monkeypatch) -> list:
    """Every call of the lottery's and the auction's limit checks, in the
    modules that call them."""
    calls = []
    for module in (scenario, lottery, auction):
        for name in ("lottery_violations", "auction_violations"):
            check = getattr(module, name, None)
            if check is not None:
                monkeypatch.setattr(module, name,
                                    lambda params, check=check: calls.append(params) or check(params))
    return calls


@pytest.mark.parametrize("config", [lottery_config, auction_config])
def test_run_scenario_checks_the_limits_once(config, monkeypatch):
    """Once in `params()`, and once more in the protocol's one entry."""
    calls = count_limit_checks(monkeypatch)
    run_scenario(config())
    assert len(calls) == 2


@pytest.mark.parametrize("config", [lottery_config, auction_config])
def test_run_batch_checks_the_limits_once_per_batch(config, monkeypatch):
    """Once per batch in `params()`, and once more in every run."""
    calls = count_limit_checks(monkeypatch)
    assert run_batch(config(), runs=5)["runs"] == 5
    assert len(calls) == 1 + 5


def test_library_runs_check_the_limits_themselves(monkeypatch):
    calls = count_limit_checks(monkeypatch)
    lottery.run_lottery(lottery_config().params())
    auction.run_auction(auction_config().params())
    assert len(calls) == 4  # params() and the run, per protocol
    with pytest.raises(ConfigError, match="players"):
        lottery.run_lottery(dataclasses.replace(lottery_config().params(), players=1))
    with pytest.raises(ConfigError, match="buyers"):
        auction.run_auction(dataclasses.replace(auction_config().params(), buyers=1))


def test_zero_buyers_rejected_with_diagnostic():
    config = ScenarioConfig(protocol="auction", buyers=0, miners=1)
    with pytest.raises(ConfigError) as err:
        run_scenario(config)
    assert any("at least 2 buyers" in v for v in err.value.violations)


def test_minimal_lottery_report_complete():
    report = run_scenario(ScenarioConfig(protocol="lottery", players=2,
                                         ticket_bits=1, miners=1, seed=3))
    validate_report(report)
    assert report["protocol"] == "lottery"
    assert len(report["outcome"]["winning_ticket"]) == 1
    assert report["assertions"]["honest_ledgers_consistent"] is True


def test_same_seed_byte_identical_reports():
    config = lottery_config()
    a = canonical_report_bytes(run_scenario(config))
    b = canonical_report_bytes(run_scenario(lottery_config()))
    assert a == b
    c = canonical_report_bytes(run_scenario(lottery_config(seed=8)))
    assert a != c


def test_auction_report_same_seed_byte_identical():
    a = canonical_report_bytes(run_scenario(auction_config()))
    b = canonical_report_bytes(run_scenario(auction_config()))
    assert a == b
    validate_report(run_scenario(auction_config()))


def test_adversarial_reports_validate_and_note_cheaters():
    report = run_scenario(lottery_config(
        player_policies={"1": "equivocate:00000000:11111111"}))
    validate_report(report)
    assert report["cheaters"] == ["player:1"]
    report = run_scenario(auction_config(seller_policy="inflate",
                                         buyer_policies={"0": "fixed:3", "1": "fixed:7",
                                                         "2": "fixed:5"}))
    validate_report(report)
    assert "seller:0" in report["cheaters"]


def test_qbc_analyze_scenario_inline_scheme():
    from qbsim.qbc import bell_pair_scheme, scheme_to_dict

    config = ScenarioConfig(protocol="qbc_analyze",
                            scheme=scheme_to_dict(bell_pair_scheme()))
    report = run_scenario(config)
    validate_report(report)
    analysis = report["analysis"]
    assert analysis["concealing_defect"] < 1e-10
    assert analysis["binding_strength"] < 1e-6
    assert analysis["witness_residual"] < 1e-6


def test_qbc_analyze_refuses_an_inline_scheme_next_to_a_scheme_file():
    """The inline scheme would run while the report's config names the
    file: one violation, not a report of the wrong scheme."""
    from qbsim.qbc import product_scheme, scheme_to_dict

    config = ScenarioConfig(protocol="qbc_analyze", scheme=scheme_to_dict(product_scheme()),
                            scheme_file="schemes/bell_pair.json")
    with pytest.raises(ConfigError) as err:
        run_scenario(config)
    assert len(err.value.violations) == 1


def test_byzantine_miner_config_end_to_end():
    # one equivocating miner among four cannot disturb an honest lottery
    config = lottery_config(miners=4, byzantine_miners={"0": "equivocate"})
    report = run_scenario(config)
    validate_report(report)
    assert report["consensus"]["f_actual"] == 1
    assert not report["consensus"]["guarantees_void"]
    assert report["assertions"]["honest_ledgers_consistent"] is True
    honest = run_scenario(lottery_config(miners=4))
    assert report["outcome"]["winning_ticket"] == honest["outcome"]["winning_ticket"]

    # same for an auction with a silent miner
    config = auction_config(miners=4, byzantine_miners={"2": "silent"},
                            buyer_policies={"0": "fixed:3", "1": "fixed:7",
                                            "2": "fixed:5"})
    report = run_scenario(config)
    assert report["outcome"]["verdict"] == "valid"
    assert report["outcome"]["winning_bid"] == 7


def test_byzantine_config_validation():
    bad = lottery_config(miners=2, byzantine_miners={"5": "equivocate",
                                                     "0": "bribe"})
    with pytest.raises(ConfigError) as err:
        bad.params()
    assert any("unknown miner" in p for p in err.value.violations)
    assert any("unknown script" in p for p in err.value.violations)
    all_byz = lottery_config(miners=2, byzantine_miners={"0": "silent",
                                                         "1": "silent"})
    with pytest.raises(ConfigError) as err:
        all_byz.params()
    assert any("honest miner" in p for p in err.value.violations)


@pytest.mark.parametrize("config", [
    lottery_config(player_policies={"1": "fixed:00000000", "01": "fixed:11111111",
                                    "\u0663": "honest"}, players=4),
    auction_config(buyer_policies={"1": "fixed:3", "01": "fixed:7", "\u0663": "fixed:5"},
                   buyers=4),
    lottery_config(miners=4, byzantine_miners={"0": "silent", "00": "garbage",
                                               "\u0663": "silent"}),
], ids=["player", "buyer", "byzantine"])
def test_index_keys_must_be_canonical(config):
    """A key with a leading zero, or with a digit outside ASCII, would
    silently run as (or overwrite) the index it spells; each is listed."""
    with pytest.raises(ConfigError) as err:
        config.params()
    violations = err.value.violations
    assert len(violations) == 2
    assert [v for v in violations if repr("\u0663") in v]
    assert [v for v in violations if "'01'" in v or "'00'" in v]


def test_boundary_fault_set_flags_guarantees_void():
    config = lottery_config(miners=3, byzantine_miners={"1": "garbage"})
    report = run_scenario(config)
    assert report["consensus"]["guarantees_void"] is True


def test_batch_single_run_equals_run():
    config = lottery_config(detail_log=False)
    agg = run_batch(config, runs=1)
    assert agg["runs"] == 1
    assert agg["decided_runs"] == 1
    assert len(agg["bit_one_counts"]) == 8


def test_batch_aggregates_independent_of_workers():
    config = lottery_config(detail_log=False)
    seq = run_batch(config, runs=24, workers=1)
    par = run_batch(config, runs=24, workers=2)
    assert canonical_report_bytes(seq) == canonical_report_bytes(par)


def test_auction_batch_counts_winners():
    config = auction_config(detail_log=False,
                            buyer_policies={"0": "fixed:4", "1": "fixed:4"},
                            buyers=2)
    agg = run_batch(config, runs=30)
    assert agg["runs"] == 30
    assert sum(agg["winner_counts"].values()) == 30
    assert set(agg["winner_counts"]) <= {"0", "1"}


def test_config_schema_names_the_miner_scripts_consensus_defines():
    schema = json.loads(importlib.resources.files("qbsim.schemas")
                        .joinpath("scenario_config.schema.json").read_text(encoding="utf-8"))
    enum = schema["properties"]["byzantine_miners"]["additionalProperties"]["enum"]
    assert tuple(enum) == MINER_SCRIPT_NAMES


def test_config_schema_names_the_policies_the_protocols_define():
    schema = json.loads(importlib.resources.files("qbsim.schemas")
                        .joinpath("scenario_config.schema.json").read_text(encoding="utf-8"))
    assert tuple(schema["properties"]["cheat_policy"]["enum"]) == CHEAT_POLICIES
    assert tuple(schema["properties"]["seller_policy"]["enum"]) == SELLER_POLICIES
    assert tuple(schema["properties"]["protocol"]["enum"]) == scenario.PROTOCOLS


def messages_of(log) -> list[tuple[int, int | None]]:
    """(seq, delivered seq or None) of each message a detail log states:
    a `send` record's own, or entry k of a `broadcast` record, whose
    message took the record's seq plus k."""
    out = []
    for rec in log:
        if rec["event"] == "send":
            out.append((rec["seq"], rec.get("delivered")))
        elif rec["event"] == "broadcast":
            out += [(rec["seq"] + k, entry[2] if len(entry) == 3 else None)
                    for k, entry in enumerate(rec["to"])]
    return out


def assert_log_states_the_counters(report):
    """Send records plus broadcast entries are the `send` count, the
    delivered ones the `deliver` count, and every seq is taken once: by
    a record, by a message of a broadcast record, or by a delivery."""
    counters, log = report["event_counters"], report["event_log"]
    messages = messages_of(log)
    delivered = [seq for _, seq in messages if seq is not None]
    assert len(messages) == counters["send"] and len(delivered) == counters["deliver"]
    own = [rec["seq"] for rec in log if rec["event"] not in ("send", "broadcast")]
    assert sorted(own + [seq for seq, _ in messages] + delivered) == list(
        range(sum(counters.values())))


@pytest.mark.parametrize("detail_log", [True, False])
@pytest.mark.parametrize("config", [lottery_config, auction_config])
def test_timing_reads_the_event_counters(config, detail_log):
    """The counts the schema-1 `timing` section restated are read from
    `event_counters`, and they agree with the log."""
    report = run_scenario(config(detail_log=detail_log))
    counters, log = report["event_counters"], report["event_log"]
    assert "timing" not in report and "transcript" not in report["consensus"]
    assert counters["send"] > 0 and counters["deliver"] > 0
    if not detail_log:
        assert log == []
        return
    assert all(rec["event"] != "deliver" and "size" not in rec for rec in log)
    assert "broadcast" not in counters and any(rec["event"] == "broadcast" for rec in log)
    assert_log_states_the_counters(report)


DETAIL_GOLDEN = sorted(name for name, (data, _) in GOLDEN.items()
                       if data["protocol"] != "qbc_analyze" and data.get("detail_log", True))


@pytest.mark.parametrize("name", DETAIL_GOLDEN)
def test_golden_logs_state_the_counters(name):
    assert_log_states_the_counters(run_scenario(ScenarioConfig.from_dict(dict(GOLDEN[name][0]))))
