"""CLI surface: subcommands, exit codes, report emission, ledger dump."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

import qbsim
from qbsim import cli
from qbsim.auction import BUYER_POLICIES, SELLER_POLICIES
from qbsim.cli import entrypoint
from qbsim.errors import ConfigError
from qbsim.lottery import PLAYER_POLICIES
from qbsim.scenario import ScenarioConfig, run_scenario, validate_report
from oracles import report_v1, report_v2
from test_qbc_io import REPO, nan_scheme

SCHEMES = REPO / "schemes"


class Result(NamedTuple):
    exit_code: int
    output: str


def invoke(args: list[str]) -> Result:
    """Run the CLI in this process as `qbsim ARGS` would; the output is
    stdout followed by stderr."""
    out, err = io.TextIOWrapper(io.BytesIO(), write_through=True), io.StringIO()
    argv, sys.argv = sys.argv, ["qbsim", *args]
    try:
        with redirect_stdout(out), redirect_stderr(err):
            entrypoint()
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.argv = argv
    return Result(code, out.buffer.getvalue().decode() + err.getvalue())


def json_line(output: str) -> dict:
    """The report/aggregate is the single canonical-JSON line on stdout;
    the output also holds the stderr wall-time note, so pick the JSON."""
    return json.loads(next(l for l in output.splitlines() if l.startswith("{")))


def test_lottery_run_emits_valid_report_and_exit_zero():
    result = invoke(["lottery", "run", "--players", "2",
                     "--ticket-bits", "4", "--miners", "1",
                     "--seed", "5"])
    assert result.exit_code == 0
    report = json_line(result.output)
    assert report["protocol"] == "lottery"
    assert len(report["outcome"]["winning_ticket"]) == 4


def test_lottery_run_cheater_exit_code_two():
    result = invoke(["lottery", "run", "--players", "2",
                     "--ticket-bits", "4", "--miners", "1",
                     "--player-policy", "0=equivocate:0000:1111"])
    assert result.exit_code == 2


def test_invalid_config_exit_code_one_with_diagnostics():
    result = invoke(["lottery", "run", "--players", "1",
                     "--ticket-bits", "0"])
    assert result.exit_code == 1


def test_same_seed_same_bytes_on_stdout():
    args = ["auction", "run", "--buyers", "3", "--miners", "2", "--seed", "9"]
    first = invoke(args)
    second = invoke(args)
    line = lambda r: next(l for l in r.output.splitlines() if l.startswith("{"))
    assert line(first) == line(second)


def test_auction_cheating_seller_exit_two():
    result = invoke([
        "auction", "run", "--buyers", "3", "--miners", "1",
        "--seller-policy", "wrong-winner",
        "--buyer-policy", "0=fixed:3", "--buyer-policy", "1=fixed:7",
        "--buyer-policy", "2=fixed:5"])
    assert result.exit_code == 2


def test_stats_subcommands_emit_aggregates():
    result = invoke(["lottery", "stats", "--runs", "20",
                     "--players", "2", "--ticket-bits", "2",
                     "--miners", "1"])
    assert result.exit_code == 0
    agg = json_line(result.output)
    assert agg["runs"] == 20
    assert len(agg["bit_one_frequencies"]) == 2

    result = invoke(["auction", "stats", "--runs", "10",
                     "--buyers", "2", "--miners", "1"])
    agg = json_line(result.output)
    assert agg["runs"] == 10


def test_qbc_analyze_bell_and_product():
    result = invoke(["qbc", "analyze", str(SCHEMES / "bell_pair.json")])
    assert result.exit_code == 0
    analysis = json_line(result.output)["analysis"]
    assert analysis["concealing_defect"] < 1e-10
    assert analysis["binding_strength"] < 1e-6

    result = invoke(["qbc", "analyze", str(SCHEMES / "product.json")])
    analysis = json_line(result.output)["analysis"]
    assert abs(analysis["concealing_defect"] - 1.0) < 1e-10
    assert abs(analysis["binding_strength"] - 1.0) < 1e-6


def test_config_file_roundtrip(tmp_path):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps({
        "protocol": "lottery", "players": 2, "ticket_bits": 3,
        "miners": 1, "seed": 11}))
    result = invoke(["lottery", "run", "--config", str(config_path)])
    assert result.exit_code == 0
    report = json_line(result.output)
    assert report["config"]["seed"] == 11


def test_ledger_dump_renders_records(tmp_path):
    report_path = tmp_path / "report.json"
    result = invoke(["lottery", "run", "--players", "2",
                     "--ticket-bits", "4", "--miners", "2",
                     "--seed", "3", "--out", str(report_path)])
    assert result.exit_code == 0
    dump = invoke(["ledger", "dump", "--report", str(report_path)])
    assert dump.exit_code == 0
    assert "ledger of miner:0" in dump.output
    assert "ticket list" in dump.output
    as_json = invoke(["ledger", "dump", "--report", str(report_path), "--json"])
    parsed = json_line(as_json.output)
    assert "miner:0" in parsed and "miner:1" in parsed


@pytest.mark.parametrize("options,buyers,rendered", [
    ([], 3, "auction outcome: winner buyer:2 bid 3099746643, "
            "losing bids [1175868917, 1449575484]"),
    (["--seller-policy", "inflate"], 3, "auction outcome: bot, cheater seller:0"),
    (["--buyer-policy", "0=change:4:5", "--buyer-policy", "1=change:6:7"], 3,
     "auction outcome: winner buyer:2 bid 3099746643, losing bids []"),
    (["--buyer-policy", "0=change:4:5", "--buyer-policy", "1=change:6:7"], 2,
     "auction outcome: no bids"),
], ids=["winner", "bot", "no-losers", "no-bids"])
def test_ledger_dump_renders_auction_outcomes(tmp_path, options, buyers, rendered):
    report_path = tmp_path / "report.json"
    result = invoke(["auction", "run", "--buyers", str(buyers), "--miners", "2",
                     "--seed", "5", *options, "--out", str(report_path)])
    assert result.exit_code == (2 if options else 0)  # 2: the run names its cheaters
    dump = invoke(["ledger", "dump", "--report", str(report_path)])
    assert dump.exit_code == 0
    lines = dump.output.splitlines()
    for owner in ("miner:0", "miner:1"):
        at = lines.index(f"== ledger of {owner}")
        assert lines[at + 1] == "  height 0 kind auction_outcome origin 1"
        assert lines[at + 3] == f"    rendered:  {rendered}"


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


UNRENDERABLE_RECORDS = {
    "a truncated body": (lambda record: record.update(body="0100"), "truncated ticket_list"),
    "a body of another kind": (lambda record: record.update(kind="auction_outcome"),
                               "a record of kind auction_outcome holds a ticket_list body"),
}


@pytest.mark.parametrize("name", sorted(UNRENDERABLE_RECORDS))
def test_ledger_dump_of_a_record_it_cannot_render_prints_nothing(name, tmp_path):
    """Every record is rendered before the first line is printed, so a
    record whose body is not of its stated kind leaves stdout empty."""
    change, error = UNRENDERABLE_RECORDS[name]

    def restate(report):
        change(report["ledgers"]["miner:0"][0])
        validate_report(report)  # the schema still admits the record
        return report

    report_path = saved_report(tmp_path, restate)
    assert_one_error_line(run_cli("ledger", "dump", "--report", str(report_path)), error)


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


def test_cli_import_loads_no_process_pool():
    """Only a parallel `stats` batch needs the process pool; a run, a
    serial batch and `qbc analyze` never import it."""
    probe = ("import sys, qbsim.cli; "
             "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_a_lottery_run_loads_no_qbc_module():
    """Only `qbc_analyze` needs the commitment numerics of `qbsim.qbc`."""
    probe = ("import sys, qbsim.cli; "
             "from qbsim.scenario import ScenarioConfig, run_scenario; "
             "run_scenario(ScenarioConfig(protocol='lottery', players=2, ticket_bits=8)); "
             "print(sorted(m for m in sys.modules if m.startswith('qbsim.qbc')))")
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_lottery_and_auction_runs_and_batches_load_no_numpy():
    """Runs and batches load no numpy. Nothing in the package does: numpy
    is a test oracle only, and `qbc analyze` is checked by
    `test_qbc_analyze_imports_only_the_standard_library`."""
    probe = ("import sys, qbsim.cli; "
             "from qbsim.batch import run_batch; "
             "from qbsim.scenario import ScenarioConfig, run_scenario; "
             "run_scenario(ScenarioConfig(protocol='lottery', players=2, ticket_bits=8)); "
             "run_scenario(ScenarioConfig(protocol='auction', buyers=3)); "
             "run_batch(ScenarioConfig(protocol='lottery', players=2, ticket_bits=8,"
             " detail_log=False), runs=4); "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def help_entries(group: str, command: str) -> dict[str, tuple[str, str]]:
    """The options of a command's `--help`, keyed by long name: each one's
    names with metavar, and its help text with the default it shows."""
    result = invoke([group, command, "--help"])
    assert result.exit_code == 0
    entries = {}
    for line in result.output.split("options:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            names, *text = re.split(r"\s{2,}", line.strip(), maxsplit=1)
            long_name = next(w for w in names.replace(",", " ").split() if w.startswith("--"))
            entries[long_name] = [names, text]
        else:  # the help text goes on, wrapped
            entries[long_name][1].append(line.strip())
    return {name: (names, " ".join(text)) for name, (names, text) in entries.items()}


def test_both_protocols_share_the_run_options():
    """`--miners`, `--seed`, `--backend`, `--byzantine` and `--key-budget`
    read the same, with help text, in all four protocol commands."""
    shared = ("--miners", "--seed", "--backend", "--byzantine", "--key-budget")
    seen = []
    for group in ("lottery", "auction"):
        for command in ("run", "stats"):
            entries = help_entries(group, command)
            options = [entries[name] for name in shared]
            assert all(text and not text.startswith("[default")
                       for _, text in options), (group, command)
            seen.append(options)
    assert all(entry == seen[0] for entry in seen)


def test_run_and_stats_help_lists_every_policy_name():
    tables = {"lottery": [PLAYER_POLICIES], "auction": [BUYER_POLICIES, SELLER_POLICIES]}
    for group, names in tables.items():
        for command in ("run", "stats"):
            result = invoke([group, command, "--help"])
            assert result.exit_code == 0
            words = set(result.output.replace("[", " ").replace("]", " ")
                        .replace("|", " ").replace(":", " ").split())
            missing = {name for table in names for name in table} - words
            assert not missing, (group, command, missing)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qbsim.cli", *args],
                          env=src_env(), capture_output=True, text=True)


def assert_one_error_line(done: subprocess.CompletedProcess, *names: str):
    """Exit 1 with one `error:` line naming the file(s), no traceback and
    nothing on stdout; `stats` may also note its wall time first."""
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = [l for l in done.stderr.splitlines() if not l.endswith("wall time")]
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(name in lines[0] for name in names)
    assert done.stdout == ""


def config_file(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


LOTTERY_ARGS = ("--players", "2", "--ticket-bits", "4", "--miners", "1")

UNREADABLE_OR_UNWRITABLE = {
    "qbc analyze of a directory": lambda d: ("qbc", "analyze", str(d)),
    "ledger dump of a directory": lambda d: ("ledger", "dump", "--report", str(d)),
    "lottery run --config of a directory": lambda d: ("lottery", "run", "--config", str(d)),
    "a config naming a missing scheme file": lambda d: (
        "lottery", "run", "--config", config_file(d / "config.json", {
            "protocol": "qbc_analyze", "scheme_file": str(d / "missing.json")})),
    "lottery run --out into a missing directory": lambda d: (
        "lottery", "run", *LOTTERY_ARGS, "--out", str(d / "missing-dir" / "x.json")),
    "lottery stats --out into a missing directory": lambda d: (
        "lottery", "stats", "--runs", "5", *LOTTERY_ARGS,
        "--out", str(d / "missing-dir" / "x.json")),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_OR_UNWRITABLE))
def test_a_file_that_cannot_be_read_or_written_exits_one_with_one_error_line(name, tmp_path):
    assert_one_error_line(run_cli(*UNREADABLE_OR_UNWRITABLE[name](tmp_path)))


def test_a_scheme_key_outside_the_schema_exits_one_in_a_file_and_inline(tmp_path):
    data = json.loads((SCHEMES / "bell_pair.json").read_text())
    data["dim_c"] = 3
    scheme = config_file(tmp_path / "scheme.json", data)
    assert_one_error_line(run_cli("qbc", "analyze", scheme), "unknown key 'dim_c'")
    config = config_file(tmp_path / "config.json", {"protocol": "qbc_analyze", "scheme": data})
    assert_one_error_line(run_cli("lottery", "run", "--config", config), "unknown key 'dim_c'")


def test_an_index_key_too_long_for_int_exits_one_with_one_violation(tmp_path):
    """A key of more digits than `int()` reads from text is an unknown
    player like any other: one violation under the `ConfigError`
    heading, not a raw ValueError traceback."""
    path = config_file(tmp_path / "config.json", {
        "protocol": "lottery", "players": 2, "ticket_bits": 4,
        "player_policies": {"1" * 4301: "honest"}})
    done = run_cli("lottery", "run", "--config", path)
    assert done.returncode == 1
    assert done.stdout == ""
    heading, violation = done.stderr.splitlines()
    assert heading == "invalid configuration:"
    assert violation.startswith("  - player entry for unknown player '1111")


def saved_report(tmp_path, restate) -> Path:
    """A lottery report as `restate` states it (an earlier schema version,
    or a changed record), saved."""
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(restate(run_scenario(ScenarioConfig.from_dict(dict(
        protocol="lottery", players=2, ticket_bits=4, miners=2, seed=3))))))
    return report_path


def test_ledger_dump_of_a_schema_1_report_names_its_version(tmp_path):
    """Reports saved before schema 2 are refused by their version, not by
    the first of the many paths where version 1 differs; re-run them."""
    report_path = saved_report(tmp_path, lambda report: report_v1(report_v2(report)))
    assert_one_error_line(run_cli("ledger", "dump", "--report", str(report_path)),
                          str(report_path), "$.schema_version")


def test_ledger_dump_of_a_schema_2_report_names_its_version(tmp_path):
    """A version-2 report differs from version 3 only in its version and
    its send records, which version 3 still admits: it is refused by its
    version all the same."""
    report_path = saved_report(tmp_path, report_v2)
    assert_one_error_line(run_cli("ledger", "dump", "--report", str(report_path)),
                          str(report_path), "$.schema_version: 3 was expected")


@pytest.mark.parametrize("entry", ["amplitude", "kraus"])
def test_scheme_file_with_nan_exits_one_with_one_error_line(entry, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(nan_scheme(entry)))  # json writes the bare constant NaN
    assert "NaN" in path.read_text()
    assert_one_error_line(run_cli("qbc", "analyze", str(path)), str(path), "NaN")


def test_run_refuses_every_other_option_beside_config(tmp_path):
    """`--config` runs the file as it is: an option that would be dropped
    is refused by name instead, and nothing runs."""
    path = config_file(tmp_path / "auction.json", {"protocol": "auction", "buyers": 3,
                                                   "miners": 1, "seed": 4})
    assert_one_error_line(run_cli("lottery", "run", "--config", path, "--seed", "9",
                     "--summary-log"), "--seed", "--summary-log")
    assert_one_error_line(run_cli("auction", "run", "-k", "3", "--config", path), "--miners")


def test_a_config_file_runs_its_own_protocol_under_either_run(tmp_path):
    """`--out` is the one option taken beside `--config`, and the file's
    `protocol` runs under the `run` of either group."""
    path = config_file(tmp_path / "auction.json", {"protocol": "auction", "buyers": 3,
                                                   "miners": 1, "seed": 4})
    reports = []
    for group in ("lottery", "auction"):
        out = tmp_path / f"{group}.json"
        done = run_cli(group, "run", "--config", path, "--out", str(out))
        assert done.returncode == 0 and done.stdout == ""
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["seed"] == 4


@pytest.mark.parametrize("args", [
    ("lottery", "run", "--backend", "cheat:0.25"),
    ("auction", "run", "--miners", "4", "--byzantine", "0=garbage"),
], ids=["lottery-cheat-backend", "auction-byzantine-miner"])
def test_a_report_config_runs_again_byte_for_byte(args, tmp_path):
    """The `config` of a report built from options is a config file that
    `--config` runs to the same stdout."""
    first = run_cli(*args)
    assert first.returncode == 0 and first.stdout
    path = config_file(tmp_path / "config.json", json.loads(first.stdout)["config"])
    again = run_cli(args[0], "run", "--config", path)
    assert again.returncode == 0 and again.stdout == first.stdout


@pytest.mark.parametrize("backend", ["cheat: 0.5", "cheat:\u0660.5", "cheat:0.5 "])
def test_a_backend_the_schema_refuses_exits_one(backend):
    """`float()` reads each of these, but the published schema does not:
    refused from the options as from a config file."""
    done = run_cli("auction", "run", "--backend", backend)
    assert done.returncode == 1
    assert done.stdout == ""
    heading, violation = done.stderr.splitlines()
    assert heading == "invalid configuration:"
    assert violation.startswith("  - $.backend: ")


@pytest.mark.parametrize("field, value", [("bid_width", True), ("detail_log", "no")])
def test_a_config_built_in_code_meets_the_schema(field, value):
    with pytest.raises(ConfigError, match=rf"\$\.{field}: "):
        run_scenario(ScenarioConfig(protocol="auction", buyers=3, miners=2, **{field: value}))


def test_an_integral_float_built_in_code_runs_as_its_int():
    report = run_scenario(ScenarioConfig(protocol="auction", buyers=3, miners=2.0))
    assert report["config"]["miners"] == 2 and type(report["config"]["miners"]) is int
    assert len(report["ledgers"]) == 2


def third_party_imports(*argvs: list[str]) -> str:
    """The top-level modules outside the standard library and qbsim that a
    fresh interpreter loads while it runs each `qbsim ARGV` in turn, each
    to exit 0 with a JSON report on stdout; the snapshot comes first, as
    site hooks may preload some."""
    probe = f"""if True:
        import sys
        before = set(sys.modules)
        import contextlib, io
        import qbsim.cli
        for argv in {list(argvs)!r}:
            sys.argv = ["qbsim", *argv]
            out = io.TextIOWrapper(io.BytesIO())
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    qbsim.cli.entrypoint()
                except SystemExit as exc:
                    assert exc.code == 0, (argv, exc.code)
            out.flush()
            assert out.buffer.getvalue().startswith(b"{{"), argv
        added = {{name.split(".")[0] for name in set(sys.modules) - before}}
        print(sorted(added - sys.stdlib_module_names - {{"qbsim"}}))
    """
    return subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True,
                          capture_output=True, text=True).stdout.strip()


def test_lottery_and_auction_runs_import_only_the_standard_library():
    """A run and a batch through the CLI load no third-party module."""
    assert third_party_imports(["lottery", "run"], ["auction", "run"],
                               ["lottery", "stats", "--runs", "5"]) == "[]"


def test_qbc_analyze_imports_only_the_standard_library():
    """The commitment numerics are pure Python: `qbc analyze` of every
    shipped scheme loads no third-party module, numpy included."""
    assert third_party_imports(*(["qbc", "analyze", str(path)]
                                 for path in sorted(SCHEMES.glob("*.json")))) == "[]"


USAGE_ERRORS = {
    "a non-integer count": ("lottery", "run", "--miners", "two"),
    "an unknown option": ("lottery", "run", "--bogus", "1"),
    "an abbreviated option": ("lottery", "run", "--mine", "3"),
    "a bad choice": ("auction", "run", "--seller-policy", "bogus"),
    "a missing subcommand": (),
    "a missing command of a group": ("lottery",),
    "a missing required option": ("ledger", "dump"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_a_usage_error_exits_one_with_one_error_line(name):
    """Exit 1, not 2: 2 is the cheater code."""
    assert_one_error_line(run_cli(*USAGE_ERRORS[name]))


def test_help_exits_zero_and_shows_every_default():
    entries = help_entries("lottery", "run")
    shown = {name: text for name, (_, text) in entries.items() if "[default: " in text}
    assert {name: text.split("[default: ")[1] for name, text in shown.items()} == {
        "--players": "3]", "--ticket-bits": "8]", "--policy": "exclude]", "--miners": "2]",
        "--seed": "0]", "--backend": "ideal]", "--key-budget": "65536]"}


def test_an_interrupt_exits_one(monkeypatch):
    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_scenario", interrupted)
    result = invoke(["lottery", "run"])
    assert result.exit_code == 1
    assert result.output == "error: interrupted\n"
