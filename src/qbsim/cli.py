"""Operator entry point.

Subcommands: `lottery run|stats`, `auction run|stats`, `qbc analyze`,
`ledger dump`. Exit codes: 0 - run completed with no property
violations; 2 - a cheater was detected (expected in adversarial
scenarios, detailed in the report); 1 - invalid input, usage errors
included, or internal error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields

from .auction import BUYER_POLICIES, SELLER_POLICIES
from .batch import run_batch
from .consensus import MINER_SCRIPT_NAMES
from .encoding import decode
from .errors import ConfigError, QbsimError, ReportError
from .jsonfile import read_json
from .keystore import DEFAULT_BUDGET
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
        print(f"report written to {out}", file=sys.stderr)
    else:
        emit_report(report, sys.stdout.buffer)
    print(f"completed in {elapsed:.3f}s wall time", file=sys.stderr)
    if report["cheaters"]:
        print(f"cheaters detected: {', '.join(report['cheaters'])}", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """`--help` is the only help option, no option prefix is accepted, and
    a usage error raises `QbsimError`, which exits 1 (argparse's own 2 is
    the cheater code here). An option not given leaves nothing in the
    namespace, so a command can tell the options given from the defaults
    that `option` records."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False,
                         argument_default=argparse.SUPPRESS, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        self.options: dict[str, tuple[str, object]] = {}  # destination -> (name, default)

    def error(self, message):
        raise QbsimError(message)

    def option(self, *flags: str, default=None, help: str = "", **kwargs) -> None:
        """Add an option, long name last: typed by its default, which its
        help shows; a `choices` option reads as `[a|b]`."""
        if default is not None:
            kwargs.update(type=type(default), metavar="INTEGER" if type(default) is int else "TEXT")
            help = f"{help}  [default: {default}]".lstrip()
        if "choices" in kwargs:
            kwargs["metavar"] = f"[{'|'.join(kwargs['choices'])}]"
        action = self.add_argument(*flags, help=help, **kwargs)
        self.options[action.dest] = (flags[-1], default)


def _group(groups, name: str, doc: str):
    return groups.add_parser(name, help=doc, description=doc).add_subparsers(
        metavar="COMMAND", required=True)


def _command(group, name: str, doc: str, fn, usage="%(prog)s [OPTIONS]") -> _Parser:
    """Command `name` of `group`: it calls `fn(opts, given)` with every
    option's value, defaults filled in, and the names of those given."""
    parser = group.add_parser(name, help=doc, description=doc, usage=usage)
    parser.set_defaults(command=lambda given: fn(
        {dest: given.get(dest, default) for dest, (_, default) in parser.options.items()},
        [parser.options[dest][0] for dest in given]))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse `argv` and run the command it names; its exit code."""
    root = _Parser(prog="qbsim", description="Deterministic lottery/auction simulator on an "
                   "authenticated quantum-blockchain stack.")
    groups = root.add_subparsers(metavar="COMMAND", required=True)
    _protocol_commands(groups, "lottery", "Commit-reveal lottery scenarios.",
                       "Aggregate winning-bit frequencies and chi-square over many runs.")
    _protocol_commands(groups, "auction", "Sealed-bid auction scenarios.",
                       "Aggregate winner frequencies and detection rates over many runs.")
    analyze = _command(_group(groups, "qbc", "Numerical commitment-scheme analysis."),
                       "analyze", "Measure how concealing and how binding a scheme file is.",
                       _qbc_analyze, usage="%(prog)s [OPTIONS] SCHEME_FILE")
    analyze.option("scheme_file", metavar="SCHEME_FILE")
    analyze.option("--out", metavar="PATH", help="write the report here instead of stdout")
    dump = _command(_group(groups, "ledger", "Inspect ledgers from saved run reports."), "dump",
                    "Print every miner's ledger: canonical encoding plus a rendering.",
                    _ledger_dump)
    dump.option("--report", dest="report_path", metavar="PATH", required=True,
                help="a report written by `lottery run --out` / `auction run --out`  [required]")
    dump.option("--json", dest="as_json", action="store_true", help="emit canonical JSON records")
    given = vars(root.parse_args(argv))
    return given.pop("command")(given) or 0


def _protocol_commands(groups, protocol: str, doc: str, stats_doc: str) -> None:
    """`run` and `stats` for one protocol: its options, then the shared ones."""

    def config(opts, summary_log: bool) -> ScenarioConfig:
        """The scenario the options that name a config field describe."""
        for name in ("player_policies", "buyer_policies", "byzantine_miners"):
            if name in opts:
                if bad := [pair for pair in opts[name] or () if "=" not in pair]:
                    raise ConfigError([f"policy must look like INDEX=SPEC, got {bad[0]!r}"])
                opts[name] = dict(pair.split("=", 1) for pair in opts[name] or ())
        return ScenarioConfig(protocol=protocol, detail_log=not summary_log, **{
            field.name: opts[field.name] for field in fields(ScenarioConfig) if field.name in opts})

    def run_one(opts, given):
        if opts["config_path"] is None:
            return _finish_run(config(opts, opts["summary_log"]), opts["out"])
        if dropped := [name for name in given if name not in ("--config", "--out")]:
            raise QbsimError(f"--config runs the file as it is; drop {', '.join(dropped)}")
        return _finish_run(ScenarioConfig.load(opts["config_path"]), opts["out"])

    def stats(opts, given):
        started = time.perf_counter()
        agg = run_batch(config(opts, True), runs=opts["runs"], workers=opts["workers"])
        print(f"{opts['runs']} runs in {time.perf_counter() - started:.3f}s wall time",
              file=sys.stderr)
        data = canonical_report_bytes(agg)
        if opts["out"]:
            with open(opts["out"], "wb") as fp:
                fp.write(data)
        else:
            sys.stdout.buffer.write(data)

    group = _group(groups, protocol, doc)
    run = _command(group, "run", f"Run one {protocol} scenario and emit its report.", run_one)
    batch = _command(group, "stats", stats_doc, stats)
    for parser in (run, batch):
        if protocol == "lottery":
            parser.option("-n", "--players", default=3, help="number of players")
            parser.option("-m", "--ticket-bits", default=8, help="bits per ticket")
            parser.option("--policy", dest="cheat_policy", default="exclude",
                          choices=CHEAT_POLICIES, help="cheat handling policy")
            parser.option("--player-policy", dest="player_policies", action="append",
                          metavar="INDEX=SPEC",
                          help=f"{' | '.join(policy_usages(PLAYER_POLICIES))} (repeatable)")
        else:
            parser.option("-m", "--buyers", default=3)
            parser.option("-w", "--bid-width", default=32, help="bids range over [1, 2^w - 1]")
            parser.option("--seller-policy", default="honest", choices=SELLER_POLICIES)
            parser.option("--buyer-policy", dest="buyer_policies", action="append",
                          metavar="INDEX=SPEC",
                          help=f"{' | '.join(policy_usages(BUYER_POLICIES))} (repeatable)")
        parser.option("-k", "--miners", default=2, help="number of miners")
        parser.option("-s", "--seed", default=0, help="scenario master seed")
        parser.option("--backend", default="ideal", help="commitment backend: ideal or cheat:<p>")
        parser.option("--byzantine", dest="byzantine_miners", action="append",
                      metavar="INDEX=SCRIPT",
                      help=f"Byzantine miner scripts: {'|'.join(MINER_SCRIPT_NAMES)} (repeatable)")
        parser.option("--key-budget", default=DEFAULT_BUDGET,
                      help="one-time key blocks per party pair")
    run.option("--summary-log", action="store_true", help="keep event counters only")
    run.option("--config", dest="config_path", metavar="PATH",
               help="load the full scenario config from a JSON file")
    run.option("--out", metavar="PATH", help="write the report here instead of stdout")
    batch.option("-N", "--runs", default=1000)
    batch.option("-K", "--workers", default=1)
    batch.option("--out", metavar="PATH", help="write the aggregate here instead of stdout")


def _qbc_analyze(opts, given):
    config = ScenarioConfig(protocol="qbc_analyze", scheme_file=opts["scheme_file"])
    return _finish_run(config, opts["out"])


def _render(record: dict) -> list[str]:
    """A report's ledger record as three lines; a body that does not decode
    to the record's stated kind is refused."""
    decoded = decode(bytes.fromhex(record["body"]))  # the schema admits whole hex bytes only
    if decoded["kind"] != record["kind"]:
        raise QbsimError(f"a record of kind {record['kind']} holds a {decoded['kind']} body")
    return [f"  height {record['height']} kind {record['kind']} "
            f"origin {record['origin_consensus']}",
            f"    canonical: {record['body']}",
            f"    rendered:  {_render_body(decoded)}"]


def _render_body(decoded: dict) -> str:
    if decoded["kind"] == "ticket_list":
        parts = [f"player {index}: {ticket.text if ticket is not None else status}"
                 for index, status, ticket in decoded["entries"]]
        return "ticket list [" + "; ".join(parts) + "]"
    if decoded["verdict"] == "no_bids":
        return "auction outcome: no bids"
    if decoded["verdict"] == "bot":
        return f"auction outcome: bot, cheater {decoded['cheater']}"
    losers = ", ".join(str(v) for v in decoded["losing_bids"])
    return (f"auction outcome: winner {decoded['winner']} "
            f"bid {decoded['winning_bid']}, losing bids [{losers}]")


def _ledger_dump(opts, given):
    report_path = opts["report_path"]
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
        raise QbsimError("this report carries no ledgers")
    if opts["as_json"]:
        sys.stdout.buffer.write(canonical_report_bytes(ledgers))
        return
    lines = []  # every record is rendered before the first line is printed
    for owner in sorted(ledgers):
        lines.append(f"== ledger of {owner}")
        for record in ledgers[owner]:
            lines += _render(record)
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def entrypoint():
    try:
        sys.exit(main(sys.argv[1:]))
    except ConfigError as exc:
        print(exc, file=sys.stderr)
    except (QbsimError, OSError, KeyboardInterrupt) as exc:  # OSError: an input or output file
        print(f"error: {str(exc) or 'interrupted'}", file=sys.stderr)
    sys.exit(1)


if __name__ == "__main__":
    entrypoint()
