"""The numpy normal-law functions of gibbslines._normal against scipy.special.

scipy is a test-only reference here. Each bound sits a few times above the
largest error measured on these grids, stated next to it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from conftest import load_script
from gibbslines._normal import log_ndtr, logsumexp, ndtri_exp

RNG = np.random.default_rng(20)
X_GRID = np.concatenate([
    np.linspace(-1e3, 40.0, 200_001),
    RNG.uniform(-40.0, 40.0, 100_000),
    RNG.uniform(-3.0, 3.0, 100_000),
    -np.logspace(-300, 3, 10_000),
    np.logspace(-300, math.log10(40.0), 10_000),
    [0.0, -0.0],
])
Y_GRID = np.concatenate([
    np.linspace(-1e4, 0.0, 200_001),
    -np.logspace(-320, 4, 200_000),
    RNG.uniform(-800.0, 0.0, 100_000),
    RNG.uniform(-0.7, -0.69, 10_000),  # around the zero at y = log(1/2)
])


def _separated(values, decimals=9):
    """Sorted distinct values at least 10^-decimals apart: adjacent doubles
    can cross by a few ulps of the result, in scipy's functions as in these."""
    return np.unique(np.round(np.asarray(values, dtype=float), decimals))


class TestLogNdtr:
    def test_lower_half_relative_error(self):
        x = X_GRID[X_GRID <= 0.0]
        rel = np.abs(log_ndtr(x) / special.log_ndtr(x) - 1.0)
        assert rel.max() < 2e-15  # measured 6.7e-16

    def test_upper_half_absolute_error(self):
        # above 0 the value is -Phi(-x) + O(Phi(-x)^2); scipy's log(ndtr(x)) is
        # accurate there only to an ulp of 1, and returns -0.0 past x = 37.5,
        # where Phi(-x) is still a subnormal
        x = X_GRID[X_GRID > 0.0]
        assert np.abs(log_ndtr(x) - special.log_ndtr(x)).max() < 1e-15  # measured 3.3e-16

    def test_special_values(self):
        got = log_ndtr(np.array([-np.inf, np.inf, np.nan, 0.0, -1e160]))
        assert got[0] == -np.inf and got[1] == 0.0 and np.isnan(got[2])
        assert got[3] == math.log(0.5) and got[4] == -np.inf

    def test_keeps_shape(self):
        assert log_ndtr(np.zeros((2, 3, 1))).shape == (2, 3, 1)
        assert log_ndtr(-1.0) == pytest.approx(special.log_ndtr(-1.0), rel=1e-15)

    @given(st.lists(st.floats(-1e3, 40.0), min_size=2, max_size=60))
    def test_nondecreasing(self, xs):
        assert np.all(np.diff(log_ndtr(_separated(xs))) >= 0.0)


    def test_table_is_the_fit_scripts(self):
        pytest.importorskip("mpmath")
        assert load_script("fit_normal_coefficients").main(["--check"]) == 0


class TestNdtriExp:
    def test_error(self):
        # relative where |z| >= 1, absolute below: about z = 0 both functions
        # lose the bits of exp(y) - 1/2
        y = Y_GRID[Y_GRID < 0.0]
        got, ref = ndtri_exp(y), special.ndtri_exp(y)
        err = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
        # measured 1.9e-14, at y near -1e4: scipy's own error there against
        # 40-digit mpmath is 1.9e-14, and ndtri_exp's at most 3.1e-15 anywhere
        assert err.max() < 5e-14
        assert err[np.abs(ref) < 1.0].max() < 2e-15  # measured 6.7e-16

    def test_special_values(self):
        got = ndtri_exp(np.array([-np.inf, 0.0, -0.0, 1.0, np.nan, -1e300, -5e-324]))
        assert got[0] == -np.inf and got[1] == np.inf and got[2] == np.inf
        assert np.isnan(got[3]) and np.isnan(got[4])
        assert got[5] == pytest.approx(-math.sqrt(2e300), rel=1e-15)
        assert got[6] == pytest.approx(special.ndtri_exp(-5e-324), rel=1e-15)
        assert ndtri_exp(-1000.0) == pytest.approx(special.ndtri_exp(-1000.0), rel=1e-15)

    def test_inverts_log_ndtr(self):
        z = np.linspace(-1e3, 30.0, 100_001)
        err = np.abs(ndtri_exp(log_ndtr(z)) - z) / np.maximum(np.abs(z), 1.0)
        assert err.max() < 2e-15  # measured 6.4e-16

    @given(st.lists(st.floats(-1e4, 0.0), min_size=2, max_size=60))
    def test_nondecreasing(self, ys):
        assert np.all(np.diff(ndtri_exp(_separated(ys))) >= 0.0)


class TestLogsumexp:
    def test_matches_scipy_bit_for_bit(self):
        for scale in (1.0, 30.0, 300.0):
            a = RNG.normal(size=4000) * scale
            assert logsumexp(a) == special.logsumexp(a)
            assert logsumexp(2.0 * a) == special.logsumexp(2.0 * a)
        tied = np.array([3.0, 3.0, -1.0, 3.0])
        assert logsumexp(tied) == special.logsumexp(tied)

    def test_all_minus_inf_and_empty(self):
        assert logsumexp(np.full(5, -np.inf)) == -np.inf
        assert logsumexp(np.array([])) == -np.inf

    def test_entries_at_700(self):
        a = np.array([700.0, -700.0, 700.0])
        assert logsumexp(a) == special.logsumexp(a) == pytest.approx(700.0 + math.log(2.0), rel=1e-15)
        b = np.array([-700.0, -700.0])
        assert logsumexp(b) == special.logsumexp(b) == pytest.approx(-700.0 + math.log(2.0), rel=1e-15)
        assert logsumexp(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(logsumexp(np.array([np.nan, 1.0])))

    @given(
        st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40),
        st.floats(-700.0, 700.0),
        st.floats(1e-9, 100.0),
        st.integers(0, 39),
    )
    def test_nondecreasing_in_each_entry(self, values, v, step, i):
        a = np.array(values)
        i %= a.size
        lo, hi = a.copy(), a.copy()
        lo[i], hi[i] = v, v + step
        assert logsumexp(lo) <= logsumexp(hi)
