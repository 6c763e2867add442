"""Scenario configuration and run reports.

A ScenarioConfig fully describes one run (protocol, party counts,
policies, seed, backend); it round-trips losslessly through JSON.
Reports are emitted in canonical JSON (sorted keys, fixed separators)
so a repeated run with the same config is byte-identical; they carry
logical counters only, wall-clock time never enters the canonical
bytes.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from . import __version__
from .auction import (
    AuctionParams,
    auction_violations,
    bid_privacy_violations,
    complaint_openings,
    parse_buyer_policy,
    posterior_privacy_violations,
    run_auction,
)
from .commitment import parse_backend
from .encoding import MAX_COUNT
from .errors import ConfigError, QbsimError, ReportError
from .jsonfile import read_json
from .keystore import DEFAULT_BUDGET
from .lottery import LotteryParams, lottery_violations, parse_player_policy, run_lottery
from .parties import miner
from .runtime import canonical_decimal
from .schemacheck import compile_schema

SCHEMA_VERSION = 3

PROTOCOLS = ("lottery", "auction", "qbc_analyze")


@dataclass
class ScenarioConfig:
    protocol: str
    seed: int = 0
    miners: int = 1
    backend: str = "ideal"
    key_budget: int = DEFAULT_BUDGET
    detail_log: bool = True
    # lottery
    players: int = 0
    ticket_bits: int = 0
    player_policies: dict[str, str] = field(default_factory=dict)
    cheat_policy: str = "exclude"
    # auction
    buyers: int = 0
    bid_width: int = 32
    buyer_policies: dict[str, str] = field(default_factory=dict)
    seller_policy: str = "honest"
    # consensus fault set: miner index -> script name
    byzantine_miners: dict[str, str] = field(default_factory=dict)
    # qbc analysis
    scheme: dict | None = None
    scheme_file: str | None = None

    def __post_init__(self):
        # Draft 2020-12 counts `3.0` as an integer: an integral float runs as its int
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                setattr(self, name, int(value))

    # ------------------------------------------------------------- codec

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        """A config from its JSON form, once the published schema finds
        nothing wrong with `data`; `params()` checks it again before a run."""
        ConfigError.check(_violations("scenario_config.schema.json", data))
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        return cls.from_dict(read_json(path))

    # -------------------------------------------------------- param view

    def params(self) -> LotteryParams | AuctionParams | None:
        """The protocol-level parameters of a lottery or auction config,
        None for `qbc_analyze`: the one validator of every config, from a
        file, CLI options or code. First the published schema's `type` of
        each field (and of each value of a dict field), so the Python
        checks read only values of their types. Then one `ConfigError`
        lists every violated constraint: texts that do not parse, then the
        protocol's limits, and when these find nothing, the published
        schema's, so every config that runs is one that `from_dict`
        accepts."""
        if self.protocol not in PROTOCOLS:
            raise ConfigError([f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}"])
        # vars(self) holds what to_dict() would copy, and the checks only read it
        ConfigError.check(_violations("scenario_config.schema.json", vars(self), types_only=True))
        problems = []
        try:
            backend = parse_backend(self.backend)
        except QbsimError as exc:
            problems.append(f"$.backend: {exc}")
            backend = None
        params = None
        if self.protocol == "qbc_analyze":
            if (self.scheme is None) == (self.scheme_file is None):
                problems.append("qbc_analyze needs exactly one of an inline scheme "
                                "and a scheme_file")
        else:
            byzantine = {miner(i): name for i, name in
                         _by_index(self.byzantine_miners, "miner", problems, str).items()}
            common = dict(miners=self.miners, seed=self.seed, backend=backend,
                          key_budget=self.key_budget, detail=self.detail_log,
                          byzantine_miners=byzantine)
            if self.protocol == "lottery":
                policies = _by_index(self.player_policies, "player", problems,
                                     parse_player_policy)
                params = LotteryParams(players=self.players, ticket_bits=self.ticket_bits,
                                       policies=policies, cheat_policy=self.cheat_policy,
                                       **common)
                problems += lottery_violations(params)
            else:
                policies = _by_index(self.buyer_policies, "buyer", problems, parse_buyer_policy)
                params = AuctionParams(buyers=self.buyers, bid_width=self.bid_width,
                                       buyer_policies=policies,
                                       seller_policy=self.seller_policy, **common)
                problems += auction_violations(params)
        ConfigError.check(problems or _violations("scenario_config.schema.json", vars(self)))
        return params


_INT_FIELDS = frozenset(f.name for f in fields(ScenarioConfig) if f.type == "int")
_INDEX_DIGITS = len(str(MAX_COUNT))  # no party count exceeds MAX_COUNT


def _by_index(texts: dict[str, str], role: str, problems: list, parse) -> dict[int, Any]:
    """Each text parsed and keyed by its party index; keys that are not
    an index in its one form (a `str` that is `canonical_decimal`, with no
    more digits than any index) and texts that do not parse go to
    `problems`, keys that are not a `str` after the others."""
    out = {}
    for key, text in sorted(texts.items(), key=_key_order):
        if not (isinstance(key, str) and canonical_decimal(key, _INDEX_DIGITS)):
            problems.append(f"{role} entry for unknown {role} {key!r}")
            continue
        try:
            out[int(key)] = parse(text)
        except QbsimError as exc:
            problems.append(f"{role} {key}: {exc}")
    return out


def _key_order(item) -> tuple[bool, str]:
    # a code-built dict may hold keys that are not a `str`, which `<` cannot
    # compare with one
    key = item[0]
    return not isinstance(key, str), str(key)


# ------------------------------------------------------------ run report


def _consensus_section(result) -> dict:
    return {
        "f_tolerance": result.f_tolerance,
        "f_actual": result.f_actual,
        "guarantees_void": result.guarantees_void,
        "phases_run": result.phases_run,
        "decision_phase": result.decision_phase,
    }


def _ledger_section(ledgers) -> dict:
    return {
        str(m): [record.to_dict() for record in led.records]
        for m, led in sorted(ledgers.items())
    }


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute the configured protocol end to end and build the report."""
    params = config.params()
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "qbsim_version": __version__,
        "config": config.to_dict(),
        "protocol": config.protocol,
    }

    if params is None:  # qbc_analyze; only this branch needs the numerics
        from .qbc import binding_attack, concealing_defect, load_scheme, scheme_from_dict

        scheme = (load_scheme(config.scheme_file) if config.scheme is None
                  else scheme_from_dict(config.scheme))
        attack = binding_attack(scheme)
        report["analysis"] = {
            "dim_a": scheme.dims.dim_a,
            "dim_b": scheme.dims.dim_b,
            "concealing_defect": concealing_defect(scheme),
            "binding_strength": attack.strength,
            "best_cheat_overlap": attack.best_overlap,
            "witness_residual": attack.witness_residual,
            "witness_unitary": [[[float(z.real), float(z.imag)] for z in row]
                                for row in attack.witness_unitary],
            "open_distinguishability": scheme.open_distinguishability,
        }
        report["cheaters"] = []
        return report

    run = run_lottery if config.protocol == "lottery" else run_auction
    result = run(params)
    consistent, divergence = result.honest_ledgers_consistent
    ctx = result.context
    report.update({
        "outcome": result.outcome.to_dict(),
        "decided_body": result.decided_body.hex(),
        "cheaters": [str(p) for p in result.cheaters],
        "consensus": _consensus_section(result.consensus),
        "ledgers": _ledger_section(result.ledgers),
        "assertions": {
            "honest_ledgers_consistent": consistent,
            "divergence_height": divergence,
        },
    })
    if config.protocol == "lottery":
        report["verdicts"] = {str(m): v.to_dict() for m, v in sorted(result.verdicts.items())}
    else:
        report.update({
            "per_miner_outputs": {str(m): o.to_dict()
                                  for m, o in sorted(result.per_miner_outputs.items())},
            "false_accusers": [str(p) for p in result.false_accusers],
            "excluded_buyers": [str(p) for p in result.excluded_buyers],
            "degenerate_seller_policy": result.degenerate_policy,
        })
        if config.detail_log:
            report["assertions"].update({
                "posterior_privacy_violations": posterior_privacy_violations(result),
                "bid_privacy_violations": bid_privacy_violations(result),
                "complaint_openings": complaint_openings(result),
            })

    report["event_log"] = ctx.log.records
    report["event_counters"] = dict(sorted(ctx.log.counters.items()))
    return report


def canonical_report_bytes(report: dict) -> bytes:
    # a report is a tree of fresh dicts and lists: no cycle to look for
    return (json.dumps(report, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                       check_circular=False) + "\n").encode("ascii")


def _types(schema: dict) -> dict:
    """`schema` cut down to its `type` keywords, each where it stands."""
    out = {"type": schema["type"]} if "type" in schema else {}
    if "properties" in schema:
        out["properties"] = {key: _types(sub) for key, sub in schema["properties"].items()}
    if isinstance(schema.get("additionalProperties"), dict):
        out["additionalProperties"] = _types(schema["additionalProperties"])
    return out


@functools.cache
def _validator(name: str, types_only: bool):
    """One compiled check per published schema, or per its `type` keywords
    alone: instance -> its `(json_path, message)` violations."""
    ref = importlib.resources.files("qbsim.schemas").joinpath(name)
    schema = json.loads(ref.read_text(encoding="utf-8"))
    return compile_schema(_types(schema) if types_only else schema)


def _violations(name: str, instance, types_only: bool = False) -> list[str]:
    """Every violation of a published schema, or of its `type` keywords
    alone, as `"<json_path>: <message>"`, ordered by path."""
    errors = sorted(_validator(name, types_only)(instance), key=lambda error: error[0])
    return [f"{path}: {message}" for path, message in errors]


def validate_report(report: dict):
    """Raise `ReportError` listing every violation of the report schema."""
    ReportError.check(_violations("run_report.schema.json", report))


def emit_report(report: dict, fp):
    """Validate against the published schema, then write canonical bytes."""
    validate_report(report)
    fp.write(canonical_report_bytes(report))
