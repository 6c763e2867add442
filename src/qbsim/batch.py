"""Batch driver: many runs of one scenario, commutative aggregation.

Per-run seeds derive from the master seed and the run index, so the
run set is fixed before any work starts. Each run returns its tally,
its contribution under the aggregate's own keys, and `_add` sums the
tallies, so the aggregate cannot depend on worker count or completion
order. Chi-square statistics are computed once from the final counts.
"""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import zip_longest
from math import erfc, sqrt

from .auction import AuctionParams, run_auction
from .errors import QbsimError
from .lottery import LotteryParams, run_lottery
from .rng import derive_seed
from .scenario import ScenarioConfig


def chisquare(ones: int, n: int) -> float:
    """p-value of Pearson's chi-square test that `ones` of `n` fair bits
    are set. With two bins the statistic s = (2 ones - n)^2 / n has one
    degree of freedom, whose survival function is erfc(sqrt(s / 2))."""
    return erfc(sqrt((2 * ones - n) ** 2 / n / 2))


def _tally(params: LotteryParams | AuctionParams, run_index: int) -> dict:
    """One run's contribution to the aggregate, under the aggregate's own
    keys; every count is an int, so a one-run batch prints no booleans.
    The run goes through `run_lottery`/`run_auction`, which check its
    limits as they do for every caller."""
    params = replace(params, seed=derive_seed(params.seed, "batch", run_index), detail=False)
    lottery = isinstance(params, LotteryParams)
    result = run_lottery(params) if lottery else run_auction(params)
    out = result.outcome
    if lottery:
        tally = {"aborted": int(out.aborted), "decided_runs": int(out.winning is not None),
                 "bit_one_counts": list(out.winning or ())}
    else:
        tally = {"bot_runs": int(not out.valid), "degenerate_runs": int(result.degenerate_policy),
                 "winner_counts": {str(out.winner.index): 1} if out.valid else {}}
    return {"runs": 1, "runs_with_cheaters": int(len(result.cheaters) > 0),
            "consistency_violations": int(not result.honest_ledgers_consistent[0]), **tally}


def _add(agg: dict, tally: dict):
    """Sum `tally` into `agg`: a key `agg` lacks is taken as it is, counts
    add, lists add position by position (the shorter padded with 0) and
    maps key by key."""
    for key, value in tally.items():
        if key not in agg:
            agg[key] = value
        elif isinstance(value, list):
            agg[key] = [a + b for a, b in zip_longest(agg[key], value, fillvalue=0)]
        elif isinstance(value, dict):
            _add(agg[key], value)
        else:
            agg[key] += value


def run_batch(config: ScenarioConfig, runs: int, workers: int = 1) -> dict:
    """Aggregate statistics over `runs` derived-seed scenario runs."""
    if runs < 1:
        raise QbsimError("a batch needs at least one run")
    params = config.params()
    if params is None:
        raise QbsimError(f"batch runs need lottery or auction, got {config.protocol}")

    agg = {"protocol": config.protocol, "master_seed": config.seed}

    # a pool forks all its workers at once, so it gets no more than can work
    workers = min(workers, runs, os.cpu_count() or 1)
    if workers <= 1:
        for i in range(runs):
            _add(agg, _tally(params, i))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel batch loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, runs // (workers * 8))
            for tally in pool.map(_tally, [params] * runs, range(runs), chunksize=chunk):
                _add(agg, tally)

    n = agg.get("decided_runs")
    if n:
        agg["bit_one_frequencies"] = [c / n for c in agg["bit_one_counts"]]
        agg["bit_chi2_p_values"] = [chisquare(c, n) for c in agg["bit_one_counts"]]
    return agg
