"""Batch driver: many runs of one scenario, commutative aggregation.

Per-run seeds derive from the master seed and the run index, so the
run set is fixed before any work starts and the aggregate cannot
depend on worker count or completion order; merging is plain counter
addition. Chi-square statistics are computed once from the final
counts.
"""

from __future__ import annotations

import os
from dataclasses import replace
from math import erfc, sqrt

from .auction import AuctionParams, run_valid_auction
from .errors import QbsimError
from .lottery import LotteryParams, run_valid_lottery
from .rng import derive_seed
from .scenario import ScenarioConfig


def chisquare(ones: int, n: int) -> float:
    """p-value of Pearson's chi-square test that `ones` of `n` fair bits
    are set. With two bins the statistic s = (2 ones - n)^2 / n has one
    degree of freedom, whose survival function is erfc(sqrt(s / 2))."""
    return erfc(sqrt((2 * ones - n) ** 2 / n / 2))


def _run_summary(params: LotteryParams | AuctionParams, run_index: int) -> dict:
    params = replace(params, seed=derive_seed(params.seed, "batch", run_index), detail=False)
    lottery = isinstance(params, LotteryParams)
    # `config.params()` checked the limits once per batch; seed and detail change none
    result = run_valid_lottery(params) if lottery else run_valid_auction(params)
    out = result.outcome
    summary = {"protocol": "lottery" if lottery else "auction",
               "cheaters": len(result.cheaters),
               "consistent": result.honest_ledgers_consistent[0]}
    if lottery:
        summary.update(aborted=out.aborted,
                       winning_bits=list(out.winning) if out.winning is not None else None)
    else:
        summary.update(valid=out.valid, winner=out.winner.index if out.valid else None,
                       winning_bid=out.winning_bid, degenerate=result.degenerate_policy)
    return summary


def _merge(agg: dict, summary: dict):
    agg["runs"] += 1
    agg["runs_with_cheaters"] += summary["cheaters"] > 0
    agg["consistency_violations"] += not summary["consistent"]
    if summary["protocol"] == "lottery":
        agg["aborted"] += summary["aborted"]
        bits = summary["winning_bits"]
        if bits is not None:
            if not agg["bit_one_counts"]:
                agg["bit_one_counts"] = [0] * len(bits)
            for i, b in enumerate(bits):
                agg["bit_one_counts"][i] += b
            agg["decided_runs"] += 1
        return
    agg["bot_runs"] += not summary["valid"]
    agg["degenerate_runs"] += summary["degenerate"]
    if summary["valid"]:
        key = str(summary["winner"])
        agg["winner_counts"][key] = agg["winner_counts"].get(key, 0) + 1


def run_batch(config: ScenarioConfig, runs: int, workers: int = 1) -> dict:
    """Aggregate statistics over `runs` derived-seed scenario runs."""
    if runs < 1:
        raise QbsimError("a batch needs at least one run")
    params = config.params()
    if params is None:
        raise QbsimError(f"batch runs need lottery or auction, got {config.protocol}")

    agg = {"protocol": config.protocol, "master_seed": config.seed, "runs": 0,
           "runs_with_cheaters": 0, "consistency_violations": 0}
    if config.protocol == "lottery":
        agg.update(decided_runs=0, aborted=0, bit_one_counts=[])
    else:
        agg.update(bot_runs=0, degenerate_runs=0, winner_counts={})

    # a pool forks all its workers at once, so it gets no more than can work
    workers = min(workers, runs, os.cpu_count() or 1)
    if workers <= 1:
        for i in range(runs):
            _merge(agg, _run_summary(params, i))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel batch loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, runs // (workers * 8))
            for summary in pool.map(_run_summary, [params] * runs,
                                    range(runs), chunksize=chunk):
                _merge(agg, summary)

    if config.protocol == "lottery" and agg["decided_runs"]:
        n = agg["decided_runs"]
        agg["bit_one_frequencies"] = [c / n for c in agg["bit_one_counts"]]
        agg["bit_chi2_p_values"] = [chisquare(c, n) for c in agg["bit_one_counts"]]
    return agg
