"""The compiled schema checks against jsonschema's Draft 2020-12 validator:
same verdict and same sorted (path, message) set on every golden report,
on the property test's generated configs and reports, and on at least
one mutation per keyword. Each keyword compiles to one walk, which
gives both the verdict and the violations, so comparing the violations
checks both."""

import copy
import importlib.resources
import json
import sys

import jsonschema
import pytest
from hypothesis import given, settings

from qbsim import cli
from qbsim.errors import ConfigError, ReportError
from qbsim.schemacheck import _KEYWORDS, SchemaCompileError, compile_schema
from qbsim.scenario import ScenarioConfig, run_scenario, validate_report
from test_golden import GOLDEN, ROOT
from test_properties import configs

SCHEMAS = importlib.resources.files("qbsim.schemas")
RUNTIME_SCHEMAS = ("scenario_config.schema.json", "run_report.schema.json")


def load(name):
    return json.loads(SCHEMAS.joinpath(name).read_text(encoding="utf-8"))


def compiled(schema):
    return schema, compile_schema(schema)


CONFIG, REPORT = (compiled(load(name)) for name in RUNTIME_SCHEMAS)


def agree(schema_and_check, instance):
    """Assert both checks give the same violations; return them."""
    schema, check = schema_and_check
    reference = sorted((error.json_path, error.message) for error in
                       jsonschema.Draft202012Validator(schema).iter_errors(instance))
    assert sorted(check(instance)) == reference
    return reference


@pytest.fixture(scope="module")
def golden_reports():
    reports = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)  # scheme files are named relative to the checkout
        for name, (data, _) in GOLDEN.items():
            reports[name] = run_scenario(ScenarioConfig.from_dict(dict(data)))
    return reports


def test_every_golden_config_and_report_is_valid_under_both(golden_reports):
    for name, (data, _) in GOLDEN.items():
        assert agree(CONFIG, data) == []
        assert agree(REPORT, golden_reports[name]) == [], name


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(configs())
def test_generated_configs_and_reports_agree(config):
    agree(CONFIG, config.to_dict())
    try:
        report = run_scenario(config)
    except ConfigError:
        return
    assert agree(REPORT, report) == []


def mutate(report, edit):
    report = copy.deepcopy(report)
    edit(report)
    return report


def set_path(*keys_and_value):
    *keys, value = keys_and_value

    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return edit


def delete(*keys):
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        del data[keys[-1]]
    return edit


def edit_broadcast(edit):
    """An edit of the first broadcast record of a report's log."""
    return lambda r: edit(next(rec for rec in r["event_log"] if rec["event"] == "broadcast"))


REPORT_MUTATIONS = {
    "negative seq": ("lottery-exclude-honest-ideal", set_path("event_log", 0, "seq", -1)),
    "missing consensus.phases_run": ("auction-honest", delete("consensus", "phases_run")),
    "unknown verdict": ("auction-honest", set_path("outcome", "verdict", "maybe")),
    "verdict missing": ("auction-honest", delete("outcome", "verdict")),
    "non-hex decided_body": ("lottery-exclude-honest-ideal", set_path("decided_body", "xyz")),
    "schema_version true": ("auction-honest", set_path("schema_version", True)),
    "binding strength past 1": ("qbc-bell-pair", set_path("analysis", "binding_strength", 2)),
    "decision_phase as text": (
        "lottery-byzantine-silent", set_path("consensus", "decision_phase", "1")),
    "deliver record": ("auction-honest", lambda r: r["event_log"].insert(1, {
        "seq": 1, "event": "deliver", "sender": "buyer:0", "receiver": "seller:0", "msg_id": 0})),
    "unknown event kind": ("lottery-exclude-honest-ideal",
                           set_path("event_log", 0, "event", "teleport")),
    "negative delivered": ("lottery-byzantine-silent", lambda r: next(
        rec for rec in r["event_log"] if "delivered" in rec).update(delivered=-1)),
    "broadcast to nobody": ("lottery-byzantine-silent", edit_broadcast(
        lambda rec: rec.update(to=[]))),
    "broadcast to as object": ("auction-honest", edit_broadcast(
        lambda rec: rec.update(to={"miner:1": 0}))),
    "broadcast entry without key index": ("auction-honest", edit_broadcast(
        lambda rec: rec["to"].__setitem__(0, rec["to"][0][:1]))),
    "broadcast entry too long": ("lottery-byzantine-silent", edit_broadcast(
        lambda rec: rec["to"][0].extend([7, 8]))),
    "broadcast receiver not a string": ("auction-honest", edit_broadcast(
        lambda rec: rec["to"][0].__setitem__(0, 1))),
    "negative broadcast key index": ("lottery-exclude-honest-ideal", edit_broadcast(
        lambda rec: rec["to"][0].__setitem__(1, -1))),
    "broadcast delivered as text": ("lottery-byzantine-silent", edit_broadcast(
        lambda rec: rec["to"][-1].__setitem__(2, "9"))),
    "ledger record missing fields": (
        "auction-honest", lambda r: [r["ledgers"]["miner:0"][0].pop(k) for k in ("kind", "body")]),
    "unknown ledger kind": ("auction-honest", set_path("ledgers", "miner:1", 0, "kind", "x")),
    "odd-length ledger body": ("auction-honest", set_path("ledgers", "miner:0", 0, "body", "abc")),
    "float counter": ("lottery-exclude-honest-ideal", set_path("event_counters", "send", 1.5)),
    "bool counter": ("lottery-exclude-honest-ideal", set_path("event_counters", "send", True)),
    "missing per_miner_outputs": ("auction-honest", delete("per_miner_outputs")),
    "missing verdicts": ("lottery-exclude-honest-ideal", delete("verdicts")),
    "missing analysis": ("qbc-product", delete("analysis")),
    "defect past 1": ("qbc-product", set_path("analysis", "concealing_defect", 1.5)),
    "zero dimension": ("qbc-product", set_path("analysis", "dim_a", 0)),
    "cheater not a string": ("auction-honest", set_path("cheaters", [1, "buyer:0"])),
    "unknown protocol": ("auction-honest", set_path("protocol", "raffle")),
    "empty report": ("auction-honest", lambda r: r.clear()),
    "many at once": ("auction-change-ideal", lambda r: (
        set_path("event_counters", "send", -3)(r), delete("qbsim_version")(r),
        set_path("decided_body", "AB")(r), set_path("event_log", 2, "event", None)(r))),
}


@pytest.mark.parametrize("mutation", sorted(REPORT_MUTATIONS))
def test_report_mutations_agree(mutation, golden_reports):
    name, edit = REPORT_MUTATIONS[mutation]
    report = mutate(golden_reports[name], edit)
    errors = agree(REPORT, report)
    assert errors
    with pytest.raises(ReportError) as err:
        validate_report(report)
    assert err.value.violations == [f"{path}: {message}" for path, message in
                                    sorted(REPORT[1](report), key=lambda error: error[0])]


def test_golden_event_log_parties_are_strings(golden_reports):
    """A `PartyId` is a tuple and json writes it as a list, and the schema
    leaves `sender` and `receiver` untyped: pin that the log names parties."""
    for name, report in golden_reports.items():
        for record in report.get("event_log", []):
            for field in ("sender", "receiver"):
                assert isinstance(record.get(field, ""), str), (name, record)
            for entry in record.get("to", []):
                assert isinstance(entry[0], str), (name, record)


def test_integral_float_counter_and_float_schema_version_are_valid(golden_reports):
    report = mutate(golden_reports["lottery-exclude-honest-ideal"], lambda r: (
        set_path("event_counters", "send", 2.0)(r), set_path("schema_version", 3.0)(r)))
    assert agree(REPORT, report) == []


BASE_CONFIG = dict(protocol="lottery", players=3, ticket_bits=8, miners=2)
CONFIG_MUTATIONS = {
    "extra key": dict(BASE_CONFIG, difficulty=9000),
    "two extra keys": dict(BASE_CONFIG, difficulty=9000, bonus=1),
    "players as text": dict(BASE_CONFIG, players="3"),
    "players as bool": dict(BASE_CONFIG, players=True),
    "players as integral float": dict(BASE_CONFIG, players=3.0),
    "missing protocol": {"players": 3},
    "negative seed": dict(BASE_CONFIG, seed=-1),
    "seed past 64 bits": dict(BASE_CONFIG, seed=1 << 64),
    "bid width past 64": dict(protocol="auction", bid_width=65),
    "bad backend": dict(BASE_CONFIG, backend="sha256"),
    "bad cheat policy": dict(BASE_CONFIG, cheat_policy="retry"),
    "unknown script": dict(BASE_CONFIG, miners=4, byzantine_miners={"0": "evil", "x'1": 2}),
    "policy not text": dict(BASE_CONFIG, player_policies={"0": 7}),
    "detail_log as 1": dict(BASE_CONFIG, detail_log=1),
    "scheme as list": dict(protocol="qbc_analyze", scheme=[], scheme_file=None),
    "config not an object": ["lottery"],
}


@pytest.mark.parametrize("mutation", sorted(CONFIG_MUTATIONS))
def test_config_mutations_agree(mutation):
    data = CONFIG_MUTATIONS[mutation]
    errors = agree(CONFIG, data)
    assert bool(errors) != (mutation == "players as integral float")


def test_from_dict_lines_use_the_jsonschema_path_and_message():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(dict(BASE_CONFIG, players="3", difficulty=1, seed=-1))
    assert err.value.violations == [
        "$: Additional properties are not allowed ('difficulty' was unexpected)",
        "$.players: '3' is not of type 'integer'",
        "$.seed: -1 is less than the minimum of 0",
    ]


def test_non_identifier_keys_render_in_brackets(golden_reports):
    report = mutate(golden_reports["auction-honest"], delete("ledgers", "miner:0", 0, "body"))
    assert agree(REPORT, report) == [("$.ledgers['miner:0'][0]", "'body' is a required property")]


SEMANTICS = [
    ({"type": "integer"}, [3, 3.0, 3.5, True, "3", None]),
    ({"type": "number", "minimum": 0, "maximum": 1}, [0, 0.5, 1.5, -1, False, True]),
    ({"type": ["string", "null"]}, ["a", None, 0, []]),
    ({"enum": [1, "a", None]}, [1, 1.0, True, "a", None, False, [1]]),
    ({"const": True}, [True, 1, 1.0, False]),
    ({"const": [1, {"a": False}]}, [[1, {"a": False}], [True, {"a": 0}], [1.0, {"a": False}]]),
    ({"properties": {"a": {"type": "string"}}, "required": ["b"]}, [{}, {"a": 1}, {"b": 1}, 5]),
    ({"additionalProperties": {"minimum": 2}, "properties": {"x": {}}},
     [{"x": 0, "y": 1}, {"y": 3}, {"z": "low"}]),
    ({"items": {"pattern": "^a"}}, [["ab", "ba", 3], "ba", []]),
    ({"pattern": "^([0-9a-f]{2})+$"}, ["ab", "abc", "", "abcd\n", "0g", 5]),
    ({"enum": ["a", 1, [2]]}, ["a", "b", 1, True, [2], [2.0], None]),
    ({"allOf": [{"if": {"properties": {"k": {"const": 1}}}, "then": {"required": ["v"]}}]},
     [{"k": 1}, {"k": 2}, {"k": 1, "v": 0}, {}]),
    ({"type": "integer", "minimum": 0}, [0, 7, -1, 3.0, -2.0, 2.5, True, False, "1", None]),
    ({"type": "array", "minItems": 1, "maxItems": 2, "items": {"type": "integer", "minimum": 1}},
     [[], [1], [1, 2], [1, 2, 3], [0], [1, True], "ab", None]),
    ({"minItems": 1}, [[], [0], "", {}]),
    ({"minItems": 2, "maxItems": 3}, [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], "abcd"]),
    ({"maxItems": 0}, [[], [0], None]),
    ({"prefixItems": [{"type": "string"}, {"minimum": 0}]},
     [[], ["a"], [1], ["a", -1], [2, -1, "x"], ["a", 0, -5], {"0": 1}]),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     [["a"], ["a", 1, 2], ["a", "b"], [1, 1], [1, "b", 2.5]]),
]


def keywords(schema):
    """The keywords a schema uses, at any depth."""
    used = set(schema)
    for key, value in schema.items():
        subs = (value.values() if key == "properties" else value if key in ("prefixItems", "allOf")
                else [value] if key in ("items", "additionalProperties", "if", "then") else [])
        for sub in subs:
            if isinstance(sub, dict):
                used |= keywords(sub)
    return used


def test_every_keyword_has_a_semantics_case():
    """Adding a keyword to the compiler needs a differential case here;
    `then` is compiled by `if` and comes with its case."""
    covered = set().union(*(keywords(schema) for schema, _ in SEMANTICS))
    assert sorted(_KEYWORDS.keys() - covered - {"then"}) == []


@pytest.mark.parametrize("schema, instances", SEMANTICS)
def test_draft_2020_12_semantics_match(schema, instances):
    schema_and_check = compiled(schema)
    for instance in instances:
        agree(schema_and_check, instance)


@pytest.mark.parametrize("schema", [
    {"$ref": "#/$defs/x"},
    {"type": "array", "uniqueItems": True},
    {"properties": {"a": {"items": {"contains": {}}}}},
    {"allOf": [{"$ref": "#"}]},
])
def test_compiling_an_unsupported_keyword_raises(schema):
    with pytest.raises(SchemaCompileError):
        compile_schema(schema)


@pytest.mark.parametrize("name", sorted(path.name for path in SCHEMAS.iterdir()
                                        if path.name.endswith(".schema.json")))
def test_every_published_schema_is_a_valid_draft_2020_12_schema(name):
    jsonschema.Draft202012Validator.check_schema(load(name))


def test_cli_exits_one_with_the_violations_of_an_invalid_report(monkeypatch, capsys):
    def broken_run(config):
        report = run_scenario(config)
        report["event_counters"]["send"] = -1
        return report

    monkeypatch.setattr(cli, "run_scenario", broken_run)
    monkeypatch.setattr(sys, "argv", ["qbsim", "lottery", "run", "--players", "2",
                                      "--ticket-bits", "4"])
    with pytest.raises(SystemExit) as exit_:
        cli.entrypoint()
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.event_counters.send: -1 is less than the minimum of 0" in captured.err
