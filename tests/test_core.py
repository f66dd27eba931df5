import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gibbslines.core import (
    MINUS_INF,
    PLUS_INF,
    BoundaryData,
    Curve,
    ExpHamiltonian,
    Grid,
    LineEnsemble,
    McEstimate,
    OrderedHamiltonian,
    ScaledExpHamiltonian,
    _capped_exp,
    constant_curve,
)
from gibbslines.errors import (
    InvalidGrid,
    LengthMismatch,
    NonPositiveArgument,
)


class TestGrid:
    def test_endpoints_exact(self):
        g = Grid(-1.7, 3.3, 257)
        assert g.points[0] == -1.7
        assert g.points[-1] == 3.3

    def test_spacing(self):
        g = Grid(0.0, 1.0, 5)
        assert g.spacing == pytest.approx(0.25, rel=0, abs=1e-15)

    @pytest.mark.parametrize("a,b,n", [(0.0, 0.0, 5), (1.0, 0.0, 5), (0.0, 1.0, 1)])
    def test_rejects_degenerate(self, a, b, n):
        with pytest.raises(InvalidGrid):
            Grid(a, b, n)

    def test_index_of_roundtrip(self):
        g = Grid(-2.0, 2.0, 129)
        for j in (0, 1, 64, 127, 128):
            assert g.index_of(float(g.points[j])) == j

    def test_index_of_rejects_off_grid(self):
        from gibbslines.errors import GridMismatch

        g = Grid(0.0, 1.0, 33)
        with pytest.raises(GridMismatch):
            g.index_of(0.01)

    @given(
        a=st.floats(-100, 100),
        width=st.floats(1e-3, 100),
        n=st.integers(2, 300),
    )
    def test_points_sorted_with_exact_ends(self, a, width, n):
        g = Grid(a, a + width, n)
        assert g.points.shape == (n,)
        assert np.all(np.diff(g.points) > 0)
        assert g.points[0] == a and g.points[-1] == a + width


class TestCurveAndEnsemble:
    def test_length_mismatch(self):
        g = Grid(0.0, 1.0, 5)
        with pytest.raises(LengthMismatch):
            Curve(g, np.zeros(4))

    def test_rejects_nonfinite(self):
        g = Grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            Curve(g, [0.0, 1.0, np.nan, 0.0, 0.0])

    def test_call_at_grid_point(self):
        g = Grid(0.0, 1.0, 5)
        c = Curve(g, [0.0, 1.0, 4.0, 1.0, 0.0])
        assert c(0.5) == 4.0

    def test_ensemble_shape_and_indexing(self):
        g = Grid(0.0, 1.0, 5)
        ens = LineEnsemble(g, np.arange(10.0).reshape(2, 5))
        assert ens.k == 2
        # 1-based from the top
        assert ens.curve(1).values[0] == 0.0
        assert ens.curve(2).values[0] == 5.0
        with pytest.raises(IndexError):
            ens.curve(3)

    def test_values_read_only(self):
        c = constant_curve(Grid(0.0, 1.0, 3), 2.0)
        with pytest.raises(ValueError):
            c.values[0] = 1.0


def _at(h, x: float) -> float:
    """H at one gap, through the vectorized integrand on a 0-d input."""
    return float(h.integrand(x))


class TestHamiltonians:
    def test_exp_at_zero(self):
        assert _at(ExpHamiltonian(), 0.0) == 1.0

    def test_scaled_exp_frozen_value(self):
        # cube root of 8 is exactly 2
        assert _at(ScaledExpHamiltonian(8.0), 1.0) == pytest.approx(
            7.38905609893065, rel=1e-15
        )

    def test_scaled_exp_t1_matches_plain(self):
        xs = np.linspace(-3, 3, 41)
        plain = np.exp(xs)
        assert np.array_equal(ScaledExpHamiltonian(1.0).integrand(xs), plain)
        assert np.array_equal(ExpHamiltonian().integrand(xs), plain)

    def test_exp_fields(self):
        # t is pinned at 1 and nothing else is settable
        assert ExpHamiltonian().t == 1.0
        for args, kwargs in (((), {"t": 2.0}), ((700.0,), {})):
            with pytest.raises(TypeError):
                ExpHamiltonian(*args, **kwargs)

    @pytest.mark.parametrize("x,expected", [(-1.0, 0.0), (0.0, 0.0), (1e-9, math.inf)])
    def test_ordered_cases(self, x, expected):
        assert _at(OrderedHamiltonian(), x) == expected

    def test_monotone_in_t(self):
        ts = [1.0, 8.0, 64.0, 1000.0]
        neg = [_at(ScaledExpHamiltonian(t), -0.3) for t in ts]
        pos = [_at(ScaledExpHamiltonian(t), 0.3) for t in ts]
        assert all(a > b for a, b in zip(neg, neg[1:]))
        assert all(a < b for a, b in zip(pos, pos[1:]))

    def test_hard_wall_limit(self):
        # at t = 1e12 the rate is 1e4, so |x| = 0.1 gives exponent +/-1000:
        # the negative side underflows to exactly 0 and the positive side
        # saturates past the overflow cap to +inf, matching the hard wall
        h = ScaledExpHamiltonian(1e12)
        wall = OrderedHamiltonian()
        assert abs(_at(h, -0.1) - _at(wall, -0.1)) < 1e-6
        assert _at(h, 0.1) == _at(wall, 0.1) == math.inf

    def test_saturation_cap(self):
        assert _at(ExpHamiltonian(), 800.0) == math.inf
        out = ExpHamiltonian().integrand(np.array([-np.inf, 0.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0 and out[2] == math.inf

    @pytest.mark.parametrize("values", [
        np.linspace(-30.0, 30.0, 61),  # finite, all under the cap
        np.array([-5.0, 699.9, 700.0, 700.5, 1e300]),  # over the cap
        np.array([-np.inf, 0.0, np.inf]),
        np.array([np.nan, 1.0, -np.inf]),
        np.array([1.0, np.nan, 800.0]),
        np.array(3.5),  # 0-d, under the cap
        np.array(900.0),  # 0-d, over the cap
        np.empty(0),
        np.empty((2, 0, 3)),
        np.linspace(-800.0, 800.0, 24).reshape(2, 3, 4),
    ])
    def test_capped_exp_matches_the_masked_formula(self, values):
        cap = 700.0
        ref = values.copy()
        over = ref > cap
        np.minimum(ref, cap, out=ref)
        np.exp(ref, out=ref)
        ref[over] = np.inf
        arg = values.copy()
        out = _capped_exp(arg, cap)
        assert out is arg  # computed in place
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    def test_ordered_integrand_handles_sentinels(self):
        out = OrderedHamiltonian().integrand(np.array([-np.inf, -1.0, 0.0, 2.0]))
        assert list(out) == [0.0, 0.0, 0.0, math.inf]

    def test_nonpositive_t_rejected(self):
        with pytest.raises(NonPositiveArgument):
            ScaledExpHamiltonian(0.0)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_exp_convex_monotone(self, x, y):
        # the coupling machinery relies on convex nondecreasing interactions
        h = ExpHamiltonian()
        lo, hi = min(x, y), max(x, y)
        assert _at(h, lo) <= _at(h, hi)
        mid = 0.5 * (lo + hi)
        assert _at(h, mid) <= 0.5 * (_at(h, lo) + _at(h, hi)) + 1e-9 * _at(h, hi)


class TestBoundaryData:
    def test_rows_share_the_curve_count(self):
        bd = BoundaryData(np.zeros((4, 2)), np.ones((4, 2)), PLUS_INF, MINUS_INF)
        assert bd.k == 2 and bd.x_vec.shape == (4, 2)
        assert BoundaryData(np.zeros(3), np.zeros(3), PLUS_INF, MINUS_INF).k == 3

    @pytest.mark.parametrize("x, y", [
        (np.zeros((4, 2)), np.zeros((3, 2))),
        (np.zeros(2), np.zeros((1, 2))),
        (np.zeros((2, 2, 2)), np.zeros((2, 2, 2))),
    ])
    def test_shapes_must_agree(self, x, y):
        with pytest.raises(LengthMismatch):
            BoundaryData(x, y, PLUS_INF, MINUS_INF)


class TestMcEstimate:
    def test_zero_variance(self):
        est = McEstimate.from_samples(np.ones(100), seed=7)
        assert est.mean == 1.0 and est.stderr == 0.0 and est.n_samples == 100

    def test_basic_stats(self):
        samples = np.array([0.0, 1.0, 2.0, 3.0])
        est = McEstimate.from_samples(samples, seed=1)
        assert est.mean == pytest.approx(1.5)
        assert est.stderr == pytest.approx(samples.std(ddof=1) / 2.0)

    def test_rows_estimate_one_mean_each(self):
        samples = np.random.default_rng(3).random((3, 50))
        est = McEstimate.from_samples(samples, seed=1)
        assert est.mean.shape == est.stderr.shape == (3,) and est.n_samples == 50
        for row in range(3):
            one = McEstimate.from_samples(samples[row], seed=1)
            assert (est.mean[row], est.stderr[row]) == (one.mean, one.stderr)
