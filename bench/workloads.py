"""The benchmark's workloads: their inputs, operations and checks.

Every input comes from the workload seed: operation `i` draws its
config and protocol seed from `random.Random(f"{workload}|{seed}|{i}")`,
so the same seed gives the same operations in the same order. Config
classes follow a fixed cycle, so that the share of each class in a run
does not depend on the seed.

`run(i)` is the timed operation. `check(i, output)` runs outside the
timed region and returns the reason the operation failed, or None.
`probes()` are `python -m qbsim.cli` commands of the workload's kind,
timed from launch to exit as its CLI cold start. They take the configs
of operations of the cycle's first class, so that their median is not
taken across classes of different cost.

The qbsim modules are imported in `setup()`, not here, because what a
workload imports is part of its measured set-up time. Operations call
qbsim functions through their module, so that a traced run sees them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIM = Path(__file__).resolve().parent / "cli_shim.py"

BYZANTINE_SCRIPTS = ("silent", "garbage", "equivocate")
CLI_TIMEOUT_S = 120
PROBES = 5  # CLI cold-start probes per untraced run of an in-process workload


def run_cli(args, spans_path=None, op=0) -> tuple[float, int, bytes]:
    """(wall seconds until exit with stdout read, exit code, stdout) of one
    fresh CLI process; with `spans_path` it runs traced, via the shim."""
    prefix = ["-m", "qbsim.cli"] if spans_path is None else [str(SHIM), spans_path, str(op)]
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))  # import qbsim from this checkout
    done = subprocess.run([sys.executable, *prefix, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CLI_TIMEOUT_S, check=False)
    return time.perf_counter() - start, done.returncode, done.stdout


def _equivocation(rng: random.Random, players: int, width: int) -> tuple[int, str]:
    """(player index, policy) for a player that opens another ticket than it committed."""
    committed = rng.getrandbits(width)
    opened = committed ^ rng.randrange(1, 1 << width)
    return rng.randrange(players), (f"equivocate:{committed:0{width}b}:"
                                    f"{opened:0{width}b}")


def _report_failure(report: dict, expected_cheaters: list[str]) -> str | None:
    if report["cheaters"] != expected_cheaters:
        return f"cheaters {report['cheaters']} != scripted {expected_cheaters}"
    assertions = report.get("assertions")
    if assertions is not None and not assertions["honest_ledgers_consistent"]:
        return "honest ledgers diverge"
    return None


class Workload:
    name = ""
    in_process = True
    cycle = 1  # the timed loop stops only at a multiple of this many operations
    digest_ops = 1  # operations the output digest and traced run cover
    min_ops = 1  # the timed loop runs at least this many operations

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}|{self.seed}|{index}")

    def setup(self):
        """Imports and one-off set-up."""

    def run(self, index: int, spans_path=None) -> tuple[bytes, int]:
        """(output bytes, protocol runs done) of operation `index`."""
        raise NotImplementedError

    def check(self, index: int, output: bytes) -> str | None:
        raise NotImplementedError

    def probes(self) -> list[tuple[int, list[str], int]]:
        """CLI cold-start commands of this workload's kind: (operation whose
        config it runs, CLI arguments, exit code it must end with)."""
        return []

    def probe_ops(self) -> range:
        return range(0, PROBES * self.cycle, self.cycle)

    def check_probe(self, index: int, stdout: bytes) -> str | None:
        return None

    def is_scheme(self, index: int) -> bool:
        """Whether operation `index` analyses a commitment scheme file."""
        return False


# ------------------------------------------------------------ batch-stats

# Protocol runs per run_batch call. The chi-square p-values are computed
# once per call, about 3.5 ms for a lottery; at 100 runs that is about
# 2% of a call, near the negligible share it has in the acceptance
# criteria's 10k-run batches.
BATCH_RUNS = 100
# Measured on 2 shared cores: lottery about 1.2 ms a run, the
# equivocation lottery about 1.3 ms and the auction about 1.9 ms. With
# 7 lotteries and 3 auctions per cycle, p50 falls inside the lotteries
# and p90 inside the auctions, away from the boundary between them.
BATCH_CYCLE = ("lottery", "auction", "lottery-equivocate", "lottery", "lottery",
               "auction", "lottery", "lottery-equivocate", "lottery", "auction")


class BatchStats(Workload):
    """Repeated `run_batch(..., workers=1)` over three small configs."""

    name = "batch-stats"
    cycle = len(BATCH_CYCLE)
    digest_ops = len(BATCH_CYCLE)
    min_ops = 10 * len(BATCH_CYCLE)  # at least 10 samples beyond p90

    def setup(self):
        from qbsim import batch, scenario

        self._batch, self._scenario = batch, scenario

    def config(self, index: int) -> dict:
        rng = self.rng(index)
        kind = BATCH_CYCLE[index % len(BATCH_CYCLE)]
        seed = rng.getrandbits(63)
        if kind == "auction":
            return dict(protocol="auction", buyers=3, bid_width=32, miners=2, seed=seed)
        config = dict(protocol="lottery", players=3, ticket_bits=8, miners=2, seed=seed)
        if kind == "lottery-equivocate":
            cheater, policy = _equivocation(rng, 3, 8)
            config.update(backend="cheat:0.5", player_policies={str(cheater): policy})
        return config

    def run(self, index, spans_path=None):
        config = self._scenario.ScenarioConfig.from_dict(self.config(index))
        aggregate = self._batch.run_batch(config, runs=BATCH_RUNS, workers=1)
        return json.dumps(aggregate, sort_keys=True).encode(), BATCH_RUNS

    def check(self, index, output):
        return self._aggregate_failure(self.config(index), json.loads(output))

    @staticmethod
    def _aggregate_failure(config: dict, agg: dict) -> str | None:
        runs = agg["runs"]
        if runs != BATCH_RUNS:
            return f"{runs} runs done, {BATCH_RUNS} asked"
        if agg["consistency_violations"]:
            return f"{agg['consistency_violations']} runs with diverging honest ledgers"
        if config["protocol"] == "auction":
            if agg["bot_runs"] + sum(agg["winner_counts"].values()) != runs:
                return "BOT runs plus valid runs do not add up to the runs done"
        elif agg["decided_runs"] + agg["aborted"] != runs:
            return "decided runs plus aborted runs do not add up to the runs done"
        if config.get("player_policies"):
            if agg["runs_with_cheaters"] == 0:
                return "equivocating player never named a cheater"
        elif agg["runs_with_cheaters"]:
            return "honest config named a cheater"
        return None

    def probes(self):
        # the cycle's first class, the honest lottery, has the CLI's default sizes
        return [(index, ["lottery", "stats", "--runs", str(BATCH_RUNS),
                         "--seed", str(self.config(index)["seed"])], 0)
                for index in self.probe_ops()]

    def check_probe(self, index, stdout):
        return self._aggregate_failure(self.config(index), json.loads(stdout))


# ------------------------------------------------------ committee-scaling

# (protocol, miners, equivocating player). Measured cost per operation
# on 2 shared cores: lottery/auction at n=7 about 77/83 ms, at n=10
# about 125/137 ms, at n=13 about 215/245 ms. With these weights the
# cumulative shares are n=7 0-25%, lottery n=10 25-37.5%, auction n=10
# 37.5-62.5%, lottery n=13 62.5-75% and auction n=13 75-100%, so p50
# lies inside auction n=10 and p90 inside auction n=13.
COMMITTEE_CYCLE = (
    ("lottery", 10, True), ("auction", 10, False), ("lottery", 13, False),
    ("auction", 13, False), ("lottery", 7, False), ("auction", 7, False),
    ("auction", 10, False), ("auction", 13, False), ("lottery", 10, False),
    ("auction", 13, False), ("lottery", 7, True), ("auction", 10, False),
    ("lottery", 13, True), ("auction", 7, False), ("auction", 13, False),
    ("auction", 10, False), ("lottery", 10, False), ("auction", 13, False),
    ("lottery", 7, False), ("auction", 10, False), ("lottery", 13, False),
    ("auction", 7, False), ("auction", 13, False), ("auction", 10, False),
)


class CommitteeScaling(Workload):
    """`run_scenario` + `validate_report` + `canonical_report_bytes` with
    the detail log on, at n in {7, 10, 13} miners with f Byzantine."""

    name = "committee-scaling"
    cycle = len(COMMITTEE_CYCLE)
    digest_ops = len(COMMITTEE_CYCLE)
    min_ops = 5 * len(COMMITTEE_CYCLE)  # at least 10 samples beyond p90

    def setup(self):
        from qbsim import scenario
        from qbsim.parties import player

        self._scenario, self._player = scenario, player

    def config(self, index: int) -> tuple[dict, list[str]]:
        """(scenario config dict, the cheaters it scripts)."""
        rng = self.rng(index)
        protocol, miners, equivocating = COMMITTEE_CYCLE[index % len(COMMITTEE_CYCLE)]
        faulty = sorted(rng.sample(range(miners), (miners - 1) // 3))
        byzantine = {str(m): BYZANTINE_SCRIPTS[(k + index) % 3]
                     for k, m in enumerate(faulty)}
        config = dict(protocol=protocol, miners=miners, seed=rng.getrandbits(63),
                      byzantine_miners=byzantine)
        if protocol == "auction":
            config.update(buyers=4)
            return config, []
        config.update(players=4, ticket_bits=16)
        if not equivocating:
            return config, []
        cheater, policy = _equivocation(rng, 4, 16)
        config["player_policies"] = {str(cheater): policy}
        return config, [str(self._player(cheater))]

    def run(self, index, spans_path=None):
        scenario = self._scenario
        config = scenario.ScenarioConfig.from_dict(self.config(index)[0])
        report = scenario.run_scenario(config)
        scenario.validate_report(report)
        return scenario.canonical_report_bytes(report), 1

    def check(self, index, output):
        return _report_failure(json.loads(output), self.config(index)[1])

    def probes(self):
        out = []
        for index in self.probe_ops():
            config, cheaters = self.config(index)
            path = os.path.join(self.tmp, f"probe-{index}.json")
            with open(path, "w", encoding="utf-8") as fp:
                json.dump(self._scenario.ScenarioConfig.from_dict(config).to_dict(), fp)
            out.append((index, [config["protocol"], "run", "--config", path],
                        2 if cheaters else 0))
        return out

    def check_probe(self, index, stdout):
        report = json.loads(stdout)
        self._scenario.validate_report(report)
        return _report_failure(report, self.config(index)[1])


# --------------------------------------------------------- cli-cold-start

SCHEMES = ("schemes/bell_pair.json", "schemes/concealing_dim3.json", "schemes/product.json")
CLI_CYCLE = ("lottery", SCHEMES[0], "auction", SCHEMES[1], "lottery-equivocate", SCHEMES[2])


class CliColdStart(Workload):
    """Fresh `python -m qbsim.cli` processes, one at a time."""

    name = "cli-cold-start"
    in_process = False
    digest_ops = len(CLI_CYCLE)

    def setup(self):
        import qbsim.cli  # noqa: F401  (this import is the workload's set-up)
        from qbsim import scenario
        from qbsim.parties import player

        self._scenario, self._player = scenario, player

    def command(self, index: int) -> tuple[list[str], int, list[str]]:
        """(CLI arguments, expected exit code, expected cheaters)."""
        rng = self.rng(index)
        kind = CLI_CYCLE[index % len(CLI_CYCLE)]
        if kind in SCHEMES:
            return ["qbc", "analyze", kind], 0, []
        seed = str(rng.getrandbits(63))
        if kind == "auction":
            return ["auction", "run", "--seed", seed], 0, []
        if kind == "lottery":
            return ["lottery", "run", "--seed", seed], 0, []
        cheater, policy = _equivocation(rng, 3, 8)
        return (["lottery", "run", "--seed", seed, "--player-policy", f"{cheater}={policy}"],
                2, [str(self._player(cheater))])

    def is_scheme(self, index):
        return CLI_CYCLE[index % len(CLI_CYCLE)] in SCHEMES

    def run(self, index, spans_path=None):
        args, _, _ = self.command(index)
        _, code, stdout = run_cli(args, spans_path, index)
        return code.to_bytes(1, "big", signed=True) + stdout, 1

    def check(self, index, output):
        _, expected_code, cheaters = self.command(index)
        code, stdout = int.from_bytes(output[:1], "big", signed=True), output[1:]
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        report = json.loads(stdout)
        self._scenario.validate_report(report)
        if self._scenario.canonical_report_bytes(report) != stdout:
            return "report on stdout is not in canonical form"
        return _report_failure(report, cheaters)


WORKLOADS = {w.name: w for w in (BatchStats, CommitteeScaling, CliColdStart)}
