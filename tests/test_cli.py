"""CLI surface: subcommands, exit codes, report emission, ledger dump."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qbsim
from qbsim.cli import main
from qbsim.qbc import bell_pair_scheme, product_scheme, save_scheme
from qbsim.scenario import ScenarioConfig, run_scenario


def json_line(output: str) -> dict:
    """The report/aggregate is the single canonical-JSON line on stdout;
    CliRunner interleaves the stderr wall-time note, so pick the JSON."""
    return json.loads(next(l for l in output.splitlines() if l.startswith("{")))


def test_lottery_run_emits_valid_report_and_exit_zero():
    runner = CliRunner()
    result = runner.invoke(main, ["lottery", "run", "--players", "2",
                                  "--ticket-bits", "4", "--miners", "1",
                                  "--seed", "5"])
    assert result.exit_code == 0
    report = json_line(result.output)
    assert report["protocol"] == "lottery"
    assert len(report["outcome"]["winning_ticket"]) == 4


def test_lottery_run_cheater_exit_code_two():
    runner = CliRunner()
    result = runner.invoke(main, ["lottery", "run", "--players", "2",
                                  "--ticket-bits", "4", "--miners", "1",
                                  "--player-policy", "0=equivocate:0000:1111"])
    assert result.exit_code == 2


def test_invalid_config_exit_code_one_with_diagnostics():
    runner = CliRunner()
    result = runner.invoke(main, ["lottery", "run", "--players", "1",
                                  "--ticket-bits", "0"])
    assert result.exit_code == 1


def test_same_seed_same_bytes_on_stdout():
    runner = CliRunner()
    args = ["auction", "run", "--buyers", "3", "--miners", "2", "--seed", "9"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    line = lambda r: next(l for l in r.output.splitlines() if l.startswith("{"))
    assert line(first) == line(second)


def test_auction_cheating_seller_exit_two():
    runner = CliRunner()
    result = runner.invoke(main, [
        "auction", "run", "--buyers", "3", "--miners", "1",
        "--seller-policy", "wrong-winner",
        "--buyer-policy", "0=fixed:3", "--buyer-policy", "1=fixed:7",
        "--buyer-policy", "2=fixed:5"])
    assert result.exit_code == 2


def test_stats_subcommands_emit_aggregates():
    runner = CliRunner()
    result = runner.invoke(main, ["lottery", "stats", "--runs", "20",
                                  "--players", "2", "--ticket-bits", "2",
                                  "--miners", "1"])
    assert result.exit_code == 0
    agg = json_line(result.output)
    assert agg["runs"] == 20
    assert len(agg["bit_one_frequencies"]) == 2

    result = runner.invoke(main, ["auction", "stats", "--runs", "10",
                                  "--buyers", "2", "--miners", "1"])
    agg = json_line(result.output)
    assert agg["runs"] == 10


def test_qbc_analyze_bell_and_product(tmp_path):
    runner = CliRunner()
    bell = tmp_path / "bell.json"
    save_scheme(bell_pair_scheme(), str(bell))
    result = runner.invoke(main, ["qbc", "analyze", str(bell)])
    assert result.exit_code == 0
    analysis = json_line(result.output)["analysis"]
    assert analysis["concealing_defect"] < 1e-10
    assert analysis["binding_strength"] < 1e-6

    prod = tmp_path / "product.json"
    save_scheme(product_scheme(), str(prod))
    result = runner.invoke(main, ["qbc", "analyze", str(prod)])
    analysis = json_line(result.output)["analysis"]
    assert abs(analysis["concealing_defect"] - 1.0) < 1e-10
    assert abs(analysis["binding_strength"] - 1.0) < 1e-6


def test_config_file_roundtrip(tmp_path):
    runner = CliRunner()
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps({
        "protocol": "lottery", "players": 2, "ticket_bits": 3,
        "miners": 1, "seed": 11}))
    result = runner.invoke(main, ["lottery", "run", "--config", str(config_path)])
    assert result.exit_code == 0
    report = json_line(result.output)
    assert report["config"]["seed"] == 11


def test_ledger_dump_renders_records(tmp_path):
    runner = CliRunner()
    report_path = tmp_path / "report.json"
    result = runner.invoke(main, ["lottery", "run", "--players", "2",
                                  "--ticket-bits", "4", "--miners", "2",
                                  "--seed", "3", "--out", str(report_path)])
    assert result.exit_code == 0
    dump = runner.invoke(main, ["ledger", "dump", "--report", str(report_path)])
    assert dump.exit_code == 0
    assert "ledger of miner:0" in dump.output
    assert "ticket list" in dump.output
    as_json = runner.invoke(main, ["ledger", "dump", "--report", str(report_path),
                                   "--json"])
    parsed = json_line(as_json.output)
    assert "miner:0" in parsed and "miner:1" in parsed


def src_env() -> dict:
    """The environment of a child Python that imports this checkout's qbsim."""
    src = str(Path(qbsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def odd_body_report() -> dict:
    report = run_scenario(ScenarioConfig.from_dict(dict(
        protocol="lottery", players=2, ticket_bits=4, miners=2, seed=3)))
    report["ledgers"]["miner:0"][0]["body"] = "abc"
    return report


MALFORMED_REPORTS = {
    "a list": lambda: [],
    "a record without body": lambda: {"ledgers": {"miner:0": [
        {"height": 0, "kind": "ticket_list", "origin_consensus": 0}]}},
    "an odd-length body": odd_body_report,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REPORTS))
def test_ledger_dump_of_a_malformed_report_exits_one_with_one_error_line(name, tmp_path):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(MALFORMED_REPORTS[name]()))
    done = subprocess.run([sys.executable, "-m", "qbsim.cli", "ledger", "dump",
                           "--report", str(report_path)],
                          env=src_env(), capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert "is not a valid run report" in done.stderr
    assert done.stdout == ""  # nothing is dumped from a report that fails the schema


def test_cli_import_loads_no_scipy():
    """scipy and jsonschema (with its `referencing`/`rpds` chain) are test
    dependencies only; the CLI's import path must not need them."""
    env = src_env()
    test_only = ("scipy", "jsonschema", "referencing", "rpds")
    probe = ("import sys, qbsim.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] in {test_only!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
