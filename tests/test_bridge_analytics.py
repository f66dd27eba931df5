import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats
from scipy.special import ndtr

from gibbslines.bridge_analytics import (
    _sliding_range_sup,
    barrier_tail_mc,
    bridge_max_tail,
    bridge_min_tail,
    corridor_survival,
    fit_decay_constant,
    gaussian_tail_bound,
    oscillation_tail_estimate,
    sample_bridge_minima,
    segment_log_survival,
)
from gibbslines.bridge_sampler import bridge_batch
from gibbslines.core import McEstimate
from gibbslines.errors import InvalidInterval, NonPositiveArgument, ZeroHits


class TestClosedForms:
    def test_frozen_values(self):
        assert bridge_min_tail(0, 1, 1, 1, 0) == pytest.approx(0.1353352832366127, rel=1e-14)
        assert bridge_min_tail(0, 2, 1, 1, 0) == pytest.approx(0.36787944117144233, rel=1e-14)

    def test_certain_events(self):
        # barrier at or above an endpoint: the infimum is <= beta surely
        assert bridge_min_tail(0, 1, 0.5, 2.0, 0.5) == 1.0
        assert bridge_min_tail(0, 1, 0.5, 2.0, 0.7) == 1.0
        assert bridge_max_tail(0, 1, 0.5, 2.0, 1.5) == 1.0

    def test_max_mirror_value(self):
        assert bridge_max_tail(0, 1, 0, 0, 1) == pytest.approx(math.exp(-2), rel=1e-14)

    @given(
        x=st.floats(-5, 5),
        y=st.floats(-5, 5),
        beta=st.floats(-5, 5),
        length=st.floats(0.1, 10),
    )
    def test_reflection_identity(self, x, y, beta, length):
        lhs = bridge_min_tail(0, length, x, y, beta)
        rhs = bridge_max_tail(0, length, -x, -y, -beta)
        assert lhs == rhs

    @given(
        x=st.floats(-3, 3),
        y=st.floats(-3, 3),
        b1=st.floats(-4, 0),
        drop=st.floats(0.01, 3),
    )
    def test_min_tail_monotone_in_barrier(self, x, y, b1, drop):
        assert bridge_min_tail(0, 1, x, y, b1 - drop) <= bridge_min_tail(0, 1, x, y, b1)

    def test_rejects_bad_interval(self):
        with pytest.raises(InvalidInterval):
            bridge_min_tail(1, 1, 0, 0, -1)


class TestGaussianTailBound:
    def test_frozen_values(self):
        assert gaussian_tail_bound(1.0) == pytest.approx(0.2419707245191434, rel=1e-13)
        assert gaussian_tail_bound(2.0) == pytest.approx(0.026995483256594024, rel=1e-13)

    def test_dominates_exact_tail(self):
        for a in np.linspace(0.2, 6.0, 30):
            assert gaussian_tail_bound(float(a)) >= ndtr(-a)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_rejects_nonpositive(self, a):
        with pytest.raises(NonPositiveArgument):
            gaussian_tail_bound(a)


class TestBarrierMc:
    def test_corrected_estimator_matches_closed_form(self):
        cases = [
            (0.0, 1.0, 0.3, -0.2, -0.8),
            (0.0, 2.0, 1.0, 1.0, 0.0),
            (-1.0, 1.0, 0.5, 1.5, -0.5),
        ]
        for a, b, x, y, beta in cases:
            exact = bridge_min_tail(a, b, x, y, beta)
            est = barrier_tail_mc(a, b, x, y, beta, n=40000, seed=11, grid_n=33)
            assert abs(est.mean - exact) < 4 * est.stderr + 1e-4

    def test_correction_removes_coarse_grid_bias(self):
        # on a very coarse grid the naive grid-minimum check misses crossings
        a, b, x, y, beta = 0.0, 1.0, 0.4, 0.4, 0.0
        exact = bridge_min_tail(a, b, x, y, beta)
        corrected = barrier_tail_mc(a, b, x, y, beta, n=60000, seed=5, grid_n=5)
        # the naive reference: does the same stream's grid skeleton touch beta?
        paths = bridge_batch(np.linspace(a, b, 5), x, y, np.random.default_rng(5), 60000)
        naive = McEstimate.from_samples((paths <= beta).any(axis=1).astype(np.float64), 5)
        assert abs(corrected.mean - exact) < 4 * corrected.stderr
        assert naive.mean < exact - 6 * naive.stderr

    def test_max_side(self):
        exact = bridge_max_tail(0, 1, 0, 0, 1)
        est = barrier_tail_mc(0, 1, 0, 0, 1, n=40000, seed=13, side="max", grid_n=33)
        assert abs(est.mean - exact) < 4 * est.stderr + 1e-4


class TestMinimumAugmentation:
    def test_unconditional_law(self):
        rng = np.random.default_rng(21)
        pts = np.linspace(0, 1, 33)
        vals = bridge_batch(pts, 0.0, 0.0, rng, 4000)
        minima = sample_bridge_minima(vals, pts[1] - pts[0], rng)
        # P(min <= m) = exp(-2 m^2) for m < 0
        res = stats.kstest(minima, lambda m: np.exp(-2 * np.minimum(m, 0) ** 2))
        assert res.pvalue > 1e-3

    def test_minima_below_grid_minimum(self):
        rng = np.random.default_rng(22)
        pts = np.linspace(0, 1, 17)
        vals = bridge_batch(pts, 0.0, 0.0, rng, 500)
        minima = sample_bridge_minima(vals, pts[1] - pts[0], rng)
        assert np.all(minima <= vals.min(axis=1) + 1e-12)

    def test_conditional_respects_barrier(self):
        rng = np.random.default_rng(23)
        pts = np.linspace(0, 1, 17)
        vals = bridge_batch(pts, 1.0, 1.0, rng, 2000)
        keep = vals.min(axis=1) > 0.0
        minima = sample_bridge_minima(vals[keep], pts[1] - pts[0], rng, barrier=0.0)
        assert np.all(minima > 0.0)
        assert np.all(minima <= vals[keep].min(axis=1) + 1e-12)

    def test_barrier_above_values_rejected(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError):
            sample_bridge_minima(np.array([[1.0, -1.0, 1.0]]), 0.5, rng, barrier=0.0)


class TestOscillation:
    def test_threshold_zero_is_certain(self):
        est = oscillation_tail_estimate(d=1.0, big_k=0.0, n=200, seed=3, grid_n=65)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_monotone_in_threshold(self):
        means = [
            oscillation_tail_estimate(d=1.0, big_k=k, n=3000, seed=9, grid_n=129).mean
            for k in (0.5, 1.0, 2.0)
        ]
        assert means[0] >= means[1] >= means[2]

    def test_far_tail_is_tiny(self):
        est = oscillation_tail_estimate(d=1.0, big_k=5.0, n=10000, seed=17, grid_n=129)
        assert est.mean < math.exp(-8) + 3 * est.stderr

    def test_windowed_statistic_matches_bruteforce(self):
        # tiny case checked against an all-pairs scan
        rng = np.random.default_rng(31)
        pts = np.linspace(0, 1, 9)
        vals = bridge_batch(pts, 0.0, 0.0, rng, 64)
        d = 0.25
        thresh = 1.3 * math.sqrt(d)
        hits = np.zeros(64)
        for s, row in enumerate(vals):
            best = 0.0
            for i in range(9):
                for j in range(9):
                    if abs(pts[i] - pts[j]) <= d + 1e-12:
                        best = max(best, abs(row[i] - row[j]))
            hits[s] = 1.0 if best >= thresh else 0.0
        est = oscillation_tail_estimate(
            d=d, big_k=1.3, n=64, seed=31, grid_n=9
        )
        assert est.mean == pytest.approx(hits.mean(), abs=1e-12)

    def test_rejects_bad_window(self):
        with pytest.raises(InvalidInterval):
            oscillation_tail_estimate(d=2.0, big_k=1.0, n=10, seed=0)

    def test_estimate_thresholds_one_sliding_range_pass(self):
        # n spans two bridge batches; one pass of sups serves every threshold
        d, n, seed = 0.25, 6000, 12
        sup = _sliding_range_sup(d, n, seed, 65, 0.3, -0.2, (-1.0, 1.0))
        assert sup.shape == (n,)
        for big_k in (2.0, 3.0):
            est = oscillation_tail_estimate(
                d, big_k, n=n, seed=seed, grid_n=65, x=0.3, y=-0.2, interval=(-1.0, 1.0)
            )
            hits = (sup >= big_k * math.sqrt(d)).astype(np.float64)
            assert 0.0 < est.mean < 1.0
            assert est == McEstimate.from_samples(hits, seed)

    def test_sups_do_not_depend_on_the_batch_size(self, monkeypatch):
        # bridge_batch draws its normals row-major, so row chunks keep the stream
        args = (0.25, 3000, 12, 65, 0.3, -0.2, (-1.0, 1.0))
        ref = _sliding_range_sup(*args).tobytes()
        for batch in (7, 1000, 5000):
            monkeypatch.setattr("gibbslines.bridge_analytics.OSCILLATION_BATCH", batch)
            assert _sliding_range_sup(*args).tobytes() == ref


class TestDecayFit:
    def test_known_fit(self):
        assert fit_decay_constant([1.0, math.sqrt(2)], [math.exp(-1), math.exp(-2)]) == pytest.approx(1.0)

    def test_zero_entries_skipped(self):
        assert fit_decay_constant([1.0, 2.0], [math.exp(-2), 0.0]) == pytest.approx(0.5)

    def test_all_zero_raises(self):
        with pytest.raises(ZeroHits):
            fit_decay_constant([1.0, 2.0], [0.0, 0.0])


class TestCorridorSurvival:
    def test_one_sided_reduction(self):
        # a far-away ceiling reduces the corridor to a single lower barrier
        got = corridor_survival(0.5, 0.8, 0.0, 40.0, 1.0)
        want = np.exp(segment_log_survival(0.5, 0.8, 1.0))
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("m,length", [(1.0, 1.0), (0.8, 2.0), (1.5, 4.0)])
    def test_symmetric_theta_series(self, m, length):
        # classical alternating series for the two-sided band probability
        want = sum((-1) ** k * math.exp(-2.0 * k * k * m * m / length) for k in range(-12, 13))
        got = corridor_survival(0.0, 0.0, -m, m, length, images=8)
        assert float(got) == pytest.approx(want, rel=1e-12)

    def test_mc_cross_check(self):
        lo, hi, x, y = -1.0, 0.7, 0.2, -0.1
        n, grid_n = 40000, 257
        pts = np.linspace(0.0, 1.0, grid_n)
        rng = np.random.default_rng(97)
        paths = bridge_batch(pts, x, y, rng, n)
        inside = np.all((paths > lo) & (paths < hi), axis=1)
        delta = pts[1] - pts[0]
        v0, v1 = paths[:, :-1], paths[:, 1:]
        seg = (
            1.0
            - np.exp(-2.0 * (v0 - lo) * (v1 - lo) / delta)
            - np.exp(-2.0 * (hi - v0) * (hi - v1) / delta)
        )
        surv = np.where(inside, np.clip(seg, 0.0, 1.0).prod(axis=1), 0.0)
        got = float(corridor_survival(x, y, lo, hi, 1.0))
        se = surv.std(ddof=1) / math.sqrt(n)
        assert abs(got - surv.mean()) < 4 * se + 1e-4

    def test_endpoints_outside_are_zero(self):
        assert corridor_survival(1.2, 0.0, -1.0, 1.0, 1.0) == 0.0
        assert corridor_survival(0.0, -1.0, -1.0, 1.0, 1.0) == 0.0

    def test_monotone_in_width(self):
        vals = [float(corridor_survival(0.0, 0.0, -w, w, 1.0)) for w in (0.5, 1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_vectorized_shape(self):
        v0 = np.array([0.1, 0.5, 2.0])
        out = corridor_survival(v0, 0.4, 0.0, 1.0, 0.5)
        assert out.shape == (3,)
        assert out[2] == 0.0
