"""Operator entry point.

Subcommands: `lottery run|stats`, `auction run|stats`, `qbc analyze`,
`ledger dump`. Exit codes: 0 - run completed with no property
violations; 2 - a cheater was detected (expected in adversarial
scenarios, detailed in the report); 1 - invalid input or internal
error.
"""

from __future__ import annotations

import sys
import time

import click

from .auction import BUYER_POLICIES, SELLER_POLICIES
from .batch import run_batch
from .consensus import MINER_SCRIPT_NAMES
from .encoding import decode_ticket_list, decode_verification_output
from .errors import ConfigError, QbsimError, ReportError
from .jsonfile import read_json
from .keystore import DEFAULT_BUDGET
from .ledger import RecordKind
from .lottery import CHEAT_POLICIES, PLAYER_POLICIES
from .runtime import policy_usages
from .scenario import (ScenarioConfig, canonical_report_bytes, emit_report, run_scenario,
                       validate_report)


def _finish_run(config: ScenarioConfig, out: str | None) -> int:
    started = time.perf_counter()
    report = run_scenario(config)
    elapsed = time.perf_counter() - started
    if out:
        with open(out, "wb") as fp:
            emit_report(report, fp)
        click.echo(f"report written to {out}", err=True)
    else:
        emit_report(report, sys.stdout.buffer)
    click.echo(f"completed in {elapsed:.3f}s wall time", err=True)
    if report["cheaters"]:
        click.echo(f"cheaters detected: {', '.join(report['cheaters'])}", err=True)
        return 2
    return 0


def _policy_map(pairs) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError([f"policy must look like INDEX=SPEC, got {pair!r}"])
        index, spec = pair.split("=", 1)
        out[index] = spec
    return out


@click.group()
def main():
    """Deterministic lottery/auction simulator on an authenticated
    quantum-blockchain stack."""


def _apply(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


def _config(protocol: str, summary_log: bool, fields: dict) -> ScenarioConfig:
    """The scenario the protocol options describe; each option's
    destination is the config field it sets."""
    for name in ("player_policies", "buyer_policies", "byzantine_miners"):
        if name in fields:
            fields[name] = _policy_map(fields[name])
    return ScenarioConfig(protocol=protocol, detail_log=not summary_log, **fields)


# the options both protocols take; each destination is a `RunParams` field
_RUN_OPTIONS = [
    click.option("--miners", "-k", default=2, show_default=True, help="number of miners"),
    click.option("--seed", "-s", default=0, show_default=True, help="scenario master seed"),
    click.option("--backend", default="ideal", show_default=True,
                 help="commitment backend: ideal or cheat:<p>"),
    click.option("--byzantine", "byzantine_miners", multiple=True, metavar="INDEX=SCRIPT",
                 help=f"Byzantine miner scripts: {'|'.join(MINER_SCRIPT_NAMES)} (repeatable)"),
    click.option("--key-budget", default=DEFAULT_BUDGET, show_default=True,
                 help="one-time key blocks per party pair"),
]


def _protocol_commands(group, protocol: str, options, stats_doc: str):
    """`run` and `stats` for one protocol: its options, then the shared ones."""
    options = options + _RUN_OPTIONS

    @group.command("run", help=f"Run one {protocol} scenario and emit its report.")
    @_apply(options)
    @click.option("--summary-log", is_flag=True, help="keep event counters only")
    @click.option("--config", "config_path", type=click.Path(exists=True),
                  help="load the full scenario config from a JSON file")
    @click.option("--out", type=click.Path(), help="write the report here instead of stdout")
    def run(summary_log, config_path, out, **fields):
        config = (ScenarioConfig.load(config_path) if config_path
                  else _config(protocol, summary_log, fields))
        sys.exit(_finish_run(config, out))

    @group.command("stats", help=stats_doc)
    @_apply(options)
    @click.option("--runs", "-N", default=1000, show_default=True)
    @click.option("--workers", "-K", default=1, show_default=True)
    @click.option("--out", type=click.Path(), help="write the aggregate here instead of stdout")
    def stats(runs, workers, out, **fields):
        started = time.perf_counter()
        agg = run_batch(_config(protocol, True, fields), runs=runs, workers=workers)
        click.echo(f"{runs} runs in {time.perf_counter() - started:.3f}s wall time", err=True)
        data = canonical_report_bytes(agg)
        if out:
            with open(out, "wb") as fp:
                fp.write(data)
        else:
            sys.stdout.buffer.write(data)


@main.group()
def lottery():
    """Commit-reveal lottery scenarios."""


_protocol_commands(lottery, "lottery", [
    click.option("--players", "-n", default=3, show_default=True, help="number of players"),
    click.option("--ticket-bits", "-m", default=8, show_default=True, help="bits per ticket"),
    click.option("--policy", "cheat_policy", default="exclude", show_default=True,
                 type=click.Choice(CHEAT_POLICIES), help="cheat handling policy"),
    click.option("--player-policy", "player_policies", multiple=True, metavar="INDEX=SPEC",
                 help=f"{' | '.join(policy_usages(PLAYER_POLICIES))} (repeatable)"),
], "Aggregate winning-bit frequencies and chi-square over many runs.")


@main.group()
def auction():
    """Sealed-bid auction scenarios."""


_protocol_commands(auction, "auction", [
    click.option("--buyers", "-m", default=3, show_default=True),
    click.option("--bid-width", "-w", default=32, show_default=True,
                 help="bids range over [1, 2^w - 1]"),
    click.option("--seller-policy", default="honest", show_default=True,
                 type=click.Choice(SELLER_POLICIES)),
    click.option("--buyer-policy", "buyer_policies", multiple=True, metavar="INDEX=SPEC",
                 help=f"{' | '.join(policy_usages(BUYER_POLICIES))} (repeatable)"),
], "Aggregate winner frequencies and detection rates over many runs.")


# -------------------------------------------------------------------- qbc


@main.group()
def qbc():
    """Numerical commitment-scheme analysis."""


@qbc.command("analyze")
@click.argument("scheme_file", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), help="write the report here instead of stdout")
def qbc_analyze(scheme_file, out):
    """Measure how concealing and how binding a scheme file is."""
    config = ScenarioConfig(protocol="qbc_analyze", scheme_file=scheme_file)
    sys.exit(_finish_run(config, out))


# ----------------------------------------------------------------- ledger


@main.group()
def ledger():
    """Inspect ledgers from saved run reports."""


def _render_body(kind: str, body: bytes) -> str:
    if kind == RecordKind.TICKET_LIST.value:
        entries = decode_ticket_list(body)
        parts = []
        for index, status, ticket in entries:
            shown = ticket.text if ticket is not None else status
            parts.append(f"player {index}: {shown}")
        return "ticket list [" + "; ".join(parts) + "]"
    decoded = decode_verification_output(body)
    if not decoded["valid"] and decoded["cheater"] is None:
        return "auction outcome: no bids"
    if not decoded["valid"]:
        return f"auction outcome: bot, cheater {decoded['cheater']}"
    losers = ", ".join(str(v) for v in decoded["losing_bids"])
    return (f"auction outcome: winner {decoded['winner']} "
            f"bid {decoded['winning_bid']}, losing bids [{losers}]")


@ledger.command("dump")
@click.option("--report", "report_path", type=click.Path(exists=True), required=True,
              help="a report written by `lottery run --out` / `auction run --out`")
@click.option("--json", "as_json", is_flag=True, help="emit canonical JSON records")
def ledger_dump(report_path, as_json):
    """Print every miner's ledger: canonical encoding plus a rendering."""
    report = read_json(report_path)
    try:
        validate_report(report)
    except ReportError as exc:
        # a report of another schema version fails at many paths; its version says why
        first = min(exc.violations, key=lambda v: not v.startswith("$.schema_version"))
        more = len(exc.violations) - 1
        raise QbsimError(f"{report_path} is not a valid run report: {first}"
                         + (f" (and {more} more)" if more else "")) from None
    ledgers = report.get("ledgers")
    if ledgers is None:
        raise click.ClickException("this report carries no ledgers")
    if as_json:
        sys.stdout.buffer.write(canonical_report_bytes(ledgers))
        return
    for owner in sorted(ledgers):
        click.echo(f"== ledger of {owner}")
        for record in ledgers[owner]:
            body = bytes.fromhex(record["body"])  # the schema admits whole hex bytes only
            click.echo(f"  height {record['height']} kind {record['kind']} "
                       f"origin {record['origin_consensus']}")
            click.echo(f"    canonical: {record['body']}")
            click.echo(f"    rendered:  {_render_body(record['kind'], body)}")


def entrypoint():
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except (QbsimError, OSError) as exc:  # OSError: an input or output file
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entrypoint()
