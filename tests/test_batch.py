"""Batch chi-square p-values against scipy's reference implementation,
and the size of a parallel batch's process pool."""

import concurrent.futures
import os

import pytest
from scipy.stats import chisquare as scipy_chisquare

from qbsim.batch import chisquare, run_batch
from qbsim.scenario import ScenarioConfig


@pytest.mark.parametrize("n", [10, 100, 10000])
def test_two_bin_p_value_matches_scipy(n):
    for c in sorted({0, 1, n // 2, n - 1, n}):
        expected = scipy_chisquare([c, n - c]).pvalue
        assert chisquare(c, n) == pytest.approx(expected, rel=1e-9, abs=0)


class FakePool:
    """A ProcessPoolExecutor stand-in that records its size and maps in
    this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers,runs,cpus,expected", [
    (64, 3, 4, 3),     # no more workers than runs
    (64, 10, 4, 4),    # no more workers than CPUs
    (2, 10, 4, 2),     # as many as asked for when both allow it
    (64, 10, None, 1),  # an unknown CPU count runs the batch in this process
    (8, 1, 4, 1),
])
def test_pool_size_is_capped_by_runs_and_cpus(monkeypatch, workers, runs, cpus, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(FakePool, "sizes", [])
    config = ScenarioConfig(protocol="lottery", players=3, ticket_bits=4, miners=2,
                            seed=9, detail_log=False)
    agg = run_batch(config, runs=runs, workers=workers)
    assert FakePool.sizes == ([expected] if expected > 1 else [])
    assert agg == run_batch(config, runs=runs, workers=1)
