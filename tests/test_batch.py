"""Batch chi-square p-values against scipy's reference implementation."""

import pytest
from scipy.stats import chisquare as scipy_chisquare

from qbsim.batch import chisquare


@pytest.mark.parametrize("n", [10, 100, 10000])
def test_two_bin_p_value_matches_scipy(n):
    for c in sorted({0, 1, n // 2, n - 1, n}):
        expected = scipy_chisquare([c, n - c]).pvalue
        assert chisquare(c, n) == pytest.approx(expected, rel=1e-9, abs=0)
