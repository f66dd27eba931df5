import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gibbslines.bridge_analytics import sample_bridge_minima, segment_log_survival
from gibbslines.bridge_sampler import bridge_batch, free_ensemble_batch, sample_free_ensemble
from gibbslines.core import (
    MINUS_INF,
    PLUS_INF,
    BoundaryData,
    Curve,
    ExpHamiltonian,
    Grid,
    LineEnsemble,
    OrderedHamiltonian,
    ScaledExpHamiltonian,
    constant_curve,
)
from gibbslines.errors import (
    InvalidInterval,
    LengthMismatch,
    OrderViolationInput,
    RejectionBudgetExhausted,
)
from gibbslines.gibbs import (
    LOG_FLOOR,
    LOG_LINEAR_MIN,
    ConditionalSpec,
    _lattice_draws,
    _log_linear_cells,
    _log_weight_batch,
    _prepared_slice,
    _site_draw,
    _site_log_density,
    _truncated_gaussian,
    coupled_scan_batch,
    estimate_Z,
    first_hitting_domain,
    heat_bath_scan_batch,
    heat_bath_sweep,
    log_boltzmann_weight,
    mcmc_sweep,
    monotone_coupled_sweep,
    sample_conditional,
    sample_conditional_batch,
)


def _single_curve_spec(h, lower, x=0.0, y=0.0, interval=(0.0, 1.0)):
    bd = BoundaryData(
        x_vec=np.array([x]), y_vec=np.array([y]), upper=PLUS_INF, lower=lower
    )
    return ConditionalSpec(k1=1, k2=1, interval=interval, boundary=bd, hamiltonian=h)


def _pinned_rows_spec(grid, d):
    """One curve on [0, 1] over a hard wall at 0, pinned at d[i] at both ends
    in row i; row i's normalizer is 1 - exp(-2 d_i^2)."""
    bd = BoundaryData(d[:, None], d[:, None], PLUS_INF, constant_curve(grid, 0.0))
    return ConditionalSpec(k1=1, k2=1, interval=(0.0, 1.0), boundary=bd, hamiltonian=OrderedHamiltonian())


class TestConditionalSpec:
    def test_boundary_size_must_match_block(self):
        bd = BoundaryData(np.zeros(2), np.zeros(2), PLUS_INF, MINUS_INF)
        with pytest.raises(LengthMismatch):
            ConditionalSpec(k1=1, k2=1, interval=(0, 1), boundary=bd, hamiltonian=ExpHamiltonian())

    def test_degenerate_interval(self):
        bd = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, MINUS_INF)
        with pytest.raises(InvalidInterval):
            ConditionalSpec(k1=1, k2=1, interval=(1, 1), boundary=bd, hamiltonian=ExpHamiltonian())

    def test_window_must_sit_inside(self):
        bd = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, MINUS_INF)
        with pytest.raises(InvalidInterval):
            ConditionalSpec(
                k1=1, k2=1, interval=(0, 1), boundary=bd,
                hamiltonian=ExpHamiltonian(), window=(0.0, 0.5),
            )


class TestLogWeight:
    def test_no_interaction_when_boundaries_infinite(self):
        grid = Grid(0.0, 1.0, 17)
        ens = LineEnsemble(grid, np.random.default_rng(0).normal(size=(1, 17)))
        bd = BoundaryData(np.array([ens.curves[0, 0]]), np.array([ens.curves[0, -1]]),
                          PLUS_INF, MINUS_INF)
        spec = ConditionalSpec(k1=1, k2=1, interval=(0, 1), boundary=bd,
                               hamiltonian=ExpHamiltonian())
        assert log_boltzmann_weight(ens, spec) == 0.0

    def test_constant_gap_closed_form(self):
        # single flat curve over a flat floor c below: integrand is the
        # constant e^(-t^(1/3) c), so the weight is exp(-(b-a) e^(-t^(1/3) c))
        t, c = 8.0, 1.0
        grid = Grid(0.0, 1.0, 129)
        ens = LineEnsemble(grid, np.zeros((1, 129)))
        bd = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, constant_curve(grid, -c))
        spec = ConditionalSpec(k1=1, k2=1, interval=(0, 1), boundary=bd,
                               hamiltonian=ScaledExpHamiltonian(t))
        expected = -math.exp(-t ** (1.0 / 3.0) * c)
        assert log_boltzmann_weight(ens, spec) == pytest.approx(expected, rel=1e-12)

    def test_ordered_indicator_values(self):
        grid = Grid(0.0, 1.0, 9)
        ordered = LineEnsemble(grid, np.vstack([np.ones(9), -np.ones(9)]))
        crossing = LineEnsemble(grid, np.vstack([-np.ones(9), np.ones(9)]))
        bd = BoundaryData(np.array([1.0, -1.0]), np.array([1.0, -1.0]), PLUS_INF, MINUS_INF)
        spec = ConditionalSpec(k1=1, k2=2, interval=(0, 1), boundary=bd,
                               hamiltonian=OrderedHamiltonian())
        # the ordered pair's gap bridge (d = 2 at every point, diffusion
        # parameter 2) must survive each of the 8 segments of length 1/8
        expected = 8 * math.log1p(-math.exp(-2.0 * 2.0 * 2.0 / (2.0 / 8)))
        assert log_boltzmann_weight(ordered, spec) == pytest.approx(expected, rel=1e-12)
        assert log_boltzmann_weight(crossing, spec) == -math.inf

    def test_weight_never_positive(self):
        rng = np.random.default_rng(1)
        grid = Grid(0.0, 2.0, 9)
        bd = BoundaryData(np.array([0.5, -0.5]), np.array([0.5, -0.5]), PLUS_INF, MINUS_INF)
        spec = ConditionalSpec(k1=1, k2=2, interval=(0, 2), boundary=bd,
                               hamiltonian=ExpHamiltonian())
        for _ in range(25):
            ens = LineEnsemble(grid, rng.normal(size=(2, 9)))
            assert log_boltzmann_weight(ens, spec) <= 0.0

    def test_off_window_weight_dominates_full(self):
        rng = np.random.default_rng(2)
        grid = Grid(0.0, 1.0, 33)
        bd = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, constant_curve(grid, -0.2))
        full = ConditionalSpec(k1=1, k2=1, interval=(0, 1), boundary=bd,
                               hamiltonian=ExpHamiltonian())
        gapped = ConditionalSpec(k1=1, k2=1, interval=(0, 1), boundary=bd,
                                 hamiltonian=ExpHamiltonian(), window=(0.25, 0.75))
        for _ in range(20):
            ens = LineEnsemble(grid, rng.normal(size=(1, 33)))
            assert log_boltzmann_weight(ens, gapped) >= log_boltzmann_weight(ens, full)

    def test_curve_count_mismatch(self):
        grid = Grid(0.0, 1.0, 5)
        ens = LineEnsemble(grid, np.zeros((2, 5)))
        spec = _single_curve_spec(ExpHamiltonian(), MINUS_INF)
        with pytest.raises(LengthMismatch):
            log_boltzmann_weight(ens, spec)

    @pytest.mark.parametrize(
        "h", [ScaledExpHamiltonian(1.0), ScaledExpHamiltonian(1000.0), OrderedHamiltonian()],
        ids=["t1", "t1000", "wall"],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("upper_finite", [True, False])
    @pytest.mark.parametrize("lower_finite", [True, False])
    @pytest.mark.parametrize("window", [None, (0.25, 0.75)])
    def test_matches_full_stack_formula_bitwise(self, h, k, upper_finite, lower_finite, window):
        # the plain formula: stack both boundary rows, H on every pair and
        # column, rows summed in order, one trapezoid per weighted column range;
        # for the hard wall, the segment log survivals of every adjacent row
        # pair (sigma^2 = 1 against a boundary row, 2 between curves), summed
        # pair by pair and range by range, sentinel rows included
        m, size = 33, 40
        grid = Grid(0.0, 1.0, m)
        rng = np.random.default_rng(k)
        batch = -1.5 * np.arange(k)[None, :, None] + 0.5 * rng.normal(size=(size, k, m))
        upper = Curve(grid, 1.5 + 0.3 * rng.normal(size=m)) if upper_finite else PLUS_INF
        lower = Curve(grid, -1.5 * k + 0.3 * rng.normal(size=m)) if lower_finite else MINUS_INF
        bd = BoundaryData(batch[0, :, 0], batch[0, :, -1], upper, lower)
        spec = ConditionalSpec(1, k, (0.0, 1.0), bd, h, window=window)
        _, _, pts, upper_vals, lower_vals, columns = _prepared_slice(spec, grid)
        stacked = np.concatenate(
            [np.broadcast_to(upper_vals, (size, 1, m)), batch,
             np.broadcast_to(lower_vals, (size, 1, m))], axis=1,
        )
        if isinstance(h, OrderedHamiltonian):
            expected = np.zeros(size)
            for p in range(k + 1):
                d = stacked[:, p] - stacked[:, p + 1]
                sigma2 = 1.0 if p in (0, k) else 2.0
                for j0, j1 in columns:
                    delta = sigma2 * np.diff(pts[j0 : j1 + 1])
                    expected += segment_log_survival(d[:, j0:j1], d[:, j0 + 1 : j1 + 1], delta).sum(axis=1)
        else:
            integrand = h.integrand(stacked[:, 1:] - stacked[:, :-1]).sum(axis=1)
            total = np.zeros(size)
            for j0, j1 in columns:
                total += np.trapezoid(integrand[:, j0 : j1 + 1], x=pts[j0 : j1 + 1], axis=1)
            expected = -total
        got = _log_weight_batch(batch, pts, upper_vals, lower_vals, h, columns)
        assert got.tobytes() == expected.tobytes()
        if upper_finite or lower_finite or k > 1:
            assert np.unique(got).size > 1

    @staticmethod
    def _paired_grid_gap(h, fine, coarse, paths, spec_on):
        """Relative normalizer gap, coarse against fine, of the same bridges
        weighed on both grids, and the standard error of the paired gap."""
        weights = []
        for grid, vals in ((fine, paths), (coarse, paths[:, ::2])):
            _, _, pts, upper, lower, columns = _prepared_slice(spec_on(grid), grid)
            lw = _log_weight_batch(vals[:, None, :], pts, upper, lower, h, columns)
            weights.append(np.exp(lw))
        z_fine = weights[0].mean()
        gap = (weights[1].mean() - z_fine) / z_fine
        se = (weights[1] - weights[0]).std(ddof=1) / math.sqrt(len(paths)) / z_fine
        return gap, se

    # Trapezoid grid error of soft weights, stated next to LATTICE_POINTS in
    # gibbs.py: the same free bridges weighed on a 65-point grid of [0, 1] and
    # on every other point (spacing 1/64 against 1/32) give normalizers whose
    # relative gap stays below these bounds by three paired standard errors.
    # Measured: 0.5 % at t = 1000, 0.08 % at t = 100 (SE 0.03 % and 0.01 %).
    @pytest.mark.parametrize("t, bound", [(100.0, 2e-3), (1000.0, 1e-2)])
    def test_trapezoid_grid_error_of_soft_weights(self, t, bound):
        h = ScaledExpHamiltonian(t)
        fine = Grid(0.0, 1.0, 65)
        paths = bridge_batch(fine.points, 0.0, 0.0, np.random.default_rng(61), 50000)
        gap, se = self._paired_grid_gap(
            h, fine, Grid(0.0, 1.0, 33), paths,
            lambda grid: _single_curve_spec(h, constant_curve(grid, -0.3)),
        )
        assert abs(gap) + 3.0 * se <= bound, f"gap {gap:.3%} +- {se:.3%}"

    # The same check for the separation runner's free reference weight in its
    # default geometry (k = 1, L = 1, M = 1): one curve pinned at M on [-2, 2]
    # over the floor clip(-u^2 / 2, -M, M), weighed off the window (-1, 1).
    # The runner weighs at spacing 1/32; 257-point bridges are weighed at 1/64
    # and on every other point. Measured: -0.005 % at t = 100 and -0.001 % at
    # t = 1000 (SE 0.005 % and 0.013 %).
    @pytest.mark.parametrize("t", [100.0, 1000.0])
    def test_trapezoid_grid_error_of_separation_free_weights(self, t):
        h = ScaledExpHamiltonian(t)
        M = 1.0
        fine = Grid(-2.0, 2.0, 257)
        paths = bridge_batch(fine.points, M, M, np.random.default_rng(61), 20000)

        def spec_on(grid):
            floor = Curve(grid, np.clip(-0.5 * grid.points**2, -M, M))
            bd = BoundaryData(np.array([M]), np.array([M]), PLUS_INF, floor)
            return ConditionalSpec(1, 1, (-2.0, 2.0), bd, h, window=(-1.0, 1.0))

        gap, se = self._paired_grid_gap(h, fine, Grid(-2.0, 2.0, 129), paths, spec_on)
        assert abs(gap) + 3.0 * se <= 1e-3, f"gap {gap:.3%} +- {se:.3%}"


WALL_Z = 1.0 - math.exp(-2.0)  # P(bridge from 0 to 0 on [0,1] stays above -1)


class TestEstimateZ:
    def test_free_spec_has_unit_weight(self):
        spec = _single_curve_spec(ExpHamiltonian(), MINUS_INF)
        est = estimate_Z(spec, Grid(0.0, 1.0, 17), n=200, seed=0)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_hard_wall_closed_form(self):
        grid = Grid(0.0, 1.0, 33)
        spec = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, -1.0))
        est = estimate_Z(spec, grid, n=20000, seed=3)
        assert abs(est.mean - WALL_Z) < 4 * est.stderr

    def test_raising_the_floor_lowers_z(self):
        grid = Grid(0.0, 1.0, 33)
        lo = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, -1.0))
        hi = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, -0.5))
        z_lo = estimate_Z(lo, grid, n=2000, seed=7)
        z_hi = estimate_Z(hi, grid, n=2000, seed=7)
        assert z_hi.mean < z_lo.mean

    def test_z_at_most_one(self):
        grid = Grid(0.0, 1.0, 17)
        spec = _single_curve_spec(ExpHamiltonian(), constant_curve(grid, -0.5))
        est = estimate_Z(spec, grid, n=3000, seed=9)
        assert 0.0 < est.mean <= 1.0

    def test_per_row_estimates_match_closed_forms(self):
        grid = Grid(0.0, 1.0, 33)
        d = np.array([0.2, 0.5, 0.9, 1.4])
        est = estimate_Z(_pinned_rows_spec(grid, d), grid, n=20000, seed=5)
        assert est.mean.shape == est.stderr.shape == (4,) and est.n_samples == 20000
        z = 1.0 - np.exp(-2.0 * d * d)
        for row in range(4):
            assert abs(est.mean[row] - z[row]) < 4 * est.stderr[row], row

    def test_one_row_spec_and_chunking_keep_the_stream(self, monkeypatch):
        grid = Grid(0.0, 1.0, 17)
        d = np.array([0.3, 0.8, 1.1])
        one = estimate_Z(_pinned_rows_spec(grid, d[:1]), grid, n=500, seed=2)
        flat = estimate_Z(_single_curve_spec(OrderedHamiltonian(), constant_curve(grid, 0.0), x=0.3, y=0.3),
                          grid, n=500, seed=2)
        assert (one.mean[0], one.stderr[0]) == (flat.mean, flat.stderr)
        rows = estimate_Z(_pinned_rows_spec(grid, d), grid, n=500, seed=2)
        monkeypatch.setattr("gibbslines.gibbs.Z_BATCH", 7)  # chunks straddle rows
        small = estimate_Z(_pinned_rows_spec(grid, d), grid, n=500, seed=2)
        assert np.array_equal(rows.mean, small.mean) and np.array_equal(rows.stderr, small.stderr)
        assert rows.mean[0] == flat.mean

    @pytest.mark.parametrize("h", [ScaledExpHamiltonian(8.0), OrderedHamiltonian()], ids=["t8", "wall"])
    def test_mean_boltzmann_weight_is_the_estimate(self, h):
        # one weight: exp(log_boltzmann_weight) over the free ensembles that
        # estimate_Z draws (200 of them fit in one chunk) averages to its mean
        grid = Grid(0.0, 1.0, 17)
        levels = np.array([1.2, 0.4])
        bd = BoundaryData(levels, levels, PLUS_INF, constant_curve(grid, -0.4))
        spec = ConditionalSpec(1, 2, (0.0, 1.0), bd, h)
        est = estimate_Z(spec, grid, n=200, seed=4)
        cand = free_ensemble_batch(grid.points, levels, levels, np.random.default_rng(4), 200)
        weights = np.exp([log_boltzmann_weight(LineEnsemble(grid, c), spec) for c in cand])
        assert weights.mean() == est.mean
        assert np.unique(weights[weights > 0]).size > 50  # Z: 0.53 at t = 8, 0.31 under the wall


class TestSampleConditional:
    def test_free_spec_accepts_first_attempt(self):
        spec = _single_curve_spec(ExpHamiltonian(), MINUS_INF)
        ens, attempts = sample_conditional(spec, Grid(0.0, 1.0, 17), np.random.default_rng(0))
        assert attempts == 1
        assert ens.curves[0, 0] == 0.0 and ens.curves[0, -1] == 0.0

    def test_wall_samples_stay_above_and_match_truncated_law(self):
        grid = Grid(0.0, 1.0, 33)
        spec = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, -1.0))
        rng = np.random.default_rng(5)
        rows = np.empty((800, 33))
        for s in range(800):
            ens, _ = sample_conditional(spec, grid, rng)
            rows[s] = ens.curves[0]
        assert rows.min() > -1.0
        minima = sample_bridge_minima(rows, grid.spacing, rng, barrier=-1.0)

        def trunc_cdf(m):
            m = np.clip(m, -1.0, 0.0)
            return 1.0 - (1.0 - np.exp(-2.0 * m * m)) / WALL_Z

        res = stats.kstest(minima, trunc_cdf)
        assert res.pvalue > 1e-3

    def test_attempts_match_inverse_z(self):
        grid = Grid(0.0, 1.0, 33)
        spec = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, -1.0))
        rng = np.random.default_rng(6)
        attempts = np.array([sample_conditional(spec, grid, rng)[1] for _ in range(300)])
        # attempts are geometric with mean 1/Z, variance (1-Z)/Z^2
        se = math.sqrt((1.0 - WALL_Z) / WALL_Z**2 / 300)
        assert abs(attempts.mean() - 1.0 / WALL_Z) < 4 * se

    def test_budget_exhaustion(self):
        grid = Grid(0.0, 1.0, 9)
        # entrance and exit pinned below the floor: weight is identically zero
        spec = _single_curve_spec(
            OrderedHamiltonian(), constant_curve(grid, 0.0), x=-1.0, y=-1.0
        )
        with pytest.raises(RejectionBudgetExhausted) as exc:
            sample_conditional(spec, grid, np.random.default_rng(7), budget=64)
        assert exc.value.attempts == 64


class TestSampleConditionalBatch:
    def test_single_draw_matches_sample_conditional(self):
        grid = Grid(0.0, 1.0, 33)
        for spec in (
            _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, -0.3)),
            _single_curve_spec(ScaledExpHamiltonian(8.0), constant_curve(grid, -0.3)),
        ):
            ens, att = sample_conditional(spec, grid, np.random.default_rng(11))
            curves, attempts = sample_conditional_batch(spec, grid, np.random.default_rng(11), 1)
            assert curves.shape == (1, 1, 33) and attempts.shape == (1,)
            assert np.array_equal(curves[0], ens.curves)
            assert int(attempts[0]) == att

    def test_attempts_match_inverse_z_and_draws_clear_the_wall(self):
        d = 0.4
        z = 1.0 - math.exp(-2.0 * d * d)
        grid = Grid(0.0, 1.0, 33)
        spec = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, 0.0), x=d, y=d)
        n = 2000
        curves, attempts = sample_conditional_batch(spec, grid, np.random.default_rng(12), n)
        assert curves.shape == (n, 1, 33)
        assert np.all(curves[:, 0, 0] == d) and np.all(curves[:, 0, -1] == d)
        assert curves.min() > 0.0
        assert attempts.min() >= 1
        se = math.sqrt((1.0 - z) / z**2 / n)
        assert abs(attempts.mean() - 1.0 / z) < 5 * se

    def test_per_row_draws_keep_their_pins_and_attempt_rates(self):
        grid = Grid(0.0, 1.0, 33)
        n = 3000
        d = np.linspace(0.3, 1.2, n)
        curves, attempts = sample_conditional_batch(
            _pinned_rows_spec(grid, d), grid, np.random.default_rng(14), n
        )
        assert curves.shape == (n, 1, 33)
        assert np.array_equal(curves[:, 0, 0], d) and np.array_equal(curves[:, 0, -1], d)
        assert curves.min() > 0.0
        # attempts_i Z_i has mean 1 and variance 1 - Z_i
        z = 1.0 - np.exp(-2.0 * d * d)
        se = math.sqrt(np.mean(1.0 - z) / n)
        assert abs(np.mean(attempts * z) - 1.0) < 5 * se

    def test_row_count_must_match_draw_count(self):
        grid = Grid(0.0, 1.0, 17)
        spec = _pinned_rows_spec(grid, np.array([0.5, 0.7, 0.9]))
        with pytest.raises(LengthMismatch):
            sample_conditional_batch(spec, grid, np.random.default_rng(0), 2)
        with pytest.raises(LengthMismatch):
            sample_conditional(spec, grid, np.random.default_rng(0))

    def test_tiny_budget_raises(self):
        d = 0.05  # Z = 1 - exp(-2 d^2) ~ 0.005
        grid = Grid(0.0, 1.0, 17)
        spec = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, 0.0), x=d, y=d)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            sample_conditional_batch(spec, grid, np.random.default_rng(13), 20, budget=5)
        assert exc.value.attempts == 5


class TestMcmcSweep:
    def test_full_block_equals_direct_conditional(self):
        grid = Grid(0.0, 1.0, 17)
        floor = constant_curve(grid, -1.0)
        state = LineEnsemble(grid, np.zeros((1, 17)))
        outer = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, floor)
        swept = mcmc_sweep(state, outer, OrderedHamiltonian(),
                           np.random.default_rng(42), block=(1, 1, 0.0, 1.0))
        spec = _single_curve_spec(OrderedHamiltonian(), floor)
        direct, _ = sample_conditional(spec, grid, np.random.default_rng(42))
        assert np.array_equal(swept.curves[0], direct.curves[0])

    def test_partial_block_touches_only_its_columns(self):
        grid = Grid(0.0, 1.0, 17)
        vals = np.vstack([np.full(17, 2.0), np.full(17, -2.0)])
        state = LineEnsemble(grid, vals)
        outer = BoundaryData(np.array([2.0, -2.0]), np.array([2.0, -2.0]),
                             PLUS_INF, MINUS_INF)
        swept = mcmc_sweep(state, outer, OrderedHamiltonian(),
                           np.random.default_rng(3), block=(1, 2, 0.0, 0.5))
        ia, ib = grid.index_of(0.0), grid.index_of(0.5)
        assert np.array_equal(swept.curves[:, ib:], vals[:, ib:])
        assert np.array_equal(swept.curves[:, ia], vals[:, ia])
        assert not np.array_equal(swept.curves[:, ia + 1 : ib], vals[:, ia + 1 : ib])

    def test_order_preserved_by_sweeps(self):
        grid = Grid(0.0, 1.0, 17)
        vals = np.vstack([np.full(17, 1.0), np.full(17, -1.0)])
        state = LineEnsemble(grid, vals)
        outer = BoundaryData(np.array([1.0, -1.0]), np.array([1.0, -1.0]),
                             PLUS_INF, MINUS_INF)
        blocks = [(1, 1, 0.0, 1.0), (2, 2, 0.0, 1.0), (1, 2, 0.0, 0.5)]
        rng = np.random.default_rng(8)
        for _ in range(3):
            for block in blocks:
                state = mcmc_sweep(state, outer, OrderedHamiltonian(), rng, block)
                assert np.all(state.curves[0] > state.curves[1])

    def test_bad_block_range(self):
        grid = Grid(0.0, 1.0, 9)
        state = LineEnsemble(grid, np.zeros((1, 9)))
        outer = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, MINUS_INF)
        with pytest.raises(LengthMismatch):
            mcmc_sweep(state, outer, ExpHamiltonian(), np.random.default_rng(0),
                       block=(1, 2, 0.0, 1.0))


class TestSoftToHardLimit:
    def test_large_t_matches_hard_wall_law(self):
        # with a comfortable gap to the floor the steep soft wall and the hard
        # wall give the same conditional distribution; at rate 10 the soft
        # wall only becomes indistinguishable once sub-floor excursions are
        # already rare (here P ~ e^-4.5), so the gap is set accordingly
        grid = Grid(0.0, 1.0, 17)
        floor = constant_curve(grid, -1.5)
        soft = _single_curve_spec(ScaledExpHamiltonian(1000.0), floor)
        hard = _single_curve_spec(OrderedHamiltonian(), floor)
        rng = np.random.default_rng(11)
        mid = grid.index_of(0.5)
        soft_mid = np.array(
            [sample_conditional(soft, grid, rng)[0].curves[0, mid] for _ in range(1200)]
        )
        hard_mid = np.array(
            [sample_conditional(hard, grid, rng)[0].curves[0, mid] for _ in range(1200)]
        )
        res = stats.ks_2samp(soft_mid, hard_mid)
        assert res.pvalue > 1e-3


def _scan_oracle(pts, vals, level, il0, il1, ir0, ir1):
    left_hits = [j for j in range(il0, il1 + 1) if vals[j] >= level]
    if not left_hits:
        left, hit_left = pts[il0], False
    else:
        left, hit_left = pts[max(left_hits[0] - 1, il0)], True
    right_hits = [j for j in range(ir0, ir1 + 1) if vals[j] >= level]
    if not right_hits:
        right, hit_right = pts[ir1], False
    else:
        right, hit_right = pts[min(right_hits[-1] + 1, ir1)], True
    return left, right, hit_left, hit_right


class TestFirstHittingDomain:
    def test_never_hits_gives_outer_sentinels(self):
        grid = Grid(0.0, 8.0, 33)
        c = constant_curve(grid, 0.0)
        dom = first_hitting_domain(c, 1.0, (0.5, 3.0), (5.0, 7.5))
        assert (dom.left, dom.right) == (0.5, 7.5)
        assert not dom.hit_left and not dom.hit_right

    def test_immediate_hit_pins_to_scan_start(self):
        grid = Grid(0.0, 8.0, 33)
        c = constant_curve(grid, 2.0)
        dom = first_hitting_domain(c, 1.0, (0.5, 3.0), (5.0, 7.5))
        assert (dom.left, dom.right) == (0.5, 7.5)
        assert dom.hit_left and dom.hit_right

    def test_single_crossing_brackets(self):
        grid = Grid(0.0, 8.0, 33)
        vals = np.zeros(33)
        vals[8:25] = 1.5  # rises through 1.0 between index 7 and 8, falls after 24
        dom = first_hitting_domain(Curve(grid, vals), 1.0, (0.5, 3.0), (5.0, 7.5))
        assert dom.left == grid.points[7]
        assert dom.right == grid.points[25]
        assert dom.hit_left and dom.hit_right

    def test_matches_scan_oracle_on_handbuilt_path(self):
        grid = Grid(0.0, 8.0, 33)
        rng = np.random.default_rng(13)
        vals = np.cumsum(rng.normal(scale=0.6, size=33))
        c = Curve(grid, vals)
        for level in (-1.0, 0.0, 0.7, 2.0):
            dom = first_hitting_domain(c, level, (0.25, 3.0), (4.0, 7.75))
            want = _scan_oracle(grid.points, vals, level, 1, 12, 16, 31)
            assert (dom.left, dom.right, dom.hit_left, dom.hit_right) == want

    @settings(deadline=None, max_examples=60)
    @given(
        vals=st.lists(st.floats(-2, 2), min_size=17, max_size=17),
        level=st.floats(-2, 2),
        cuts=st.tuples(
            st.integers(0, 16), st.integers(0, 16), st.integers(0, 16), st.integers(0, 16)
        ),
    )
    def test_matches_scan_oracle_everywhere(self, vals, level, cuts):
        il0, il1, ir0, ir1 = sorted(cuts)
        if not (il0 < il1 <= ir0 < ir1):
            return
        grid = Grid(0.0, 4.0, 17)
        arr = np.array(vals)
        c = Curve(grid, arr)
        pts = grid.points
        dom = first_hitting_domain(
            c, level, (pts[il0], pts[il1]), (pts[ir0], pts[ir1])
        )
        want = _scan_oracle(pts, arr, level, il0, il1, ir0, ir1)
        assert (dom.left, dom.right, dom.hit_left, dom.hit_right) == want

    def test_rejects_misordered_windows(self):
        grid = Grid(0.0, 8.0, 33)
        c = constant_curve(grid, 0.0)
        with pytest.raises(InvalidInterval):
            first_hitting_domain(c, 1.0, (0.5, 4.0), (3.0, 7.5))


class TestHeatBath:
    @pytest.mark.parametrize(
        "h", [ExpHamiltonian(), ScaledExpHamiltonian(100.0), OrderedHamiltonian()]
    )
    def test_site_kernels_match_plain_formulas(self, h):
        # the in-place kernels keep the plain formulas' operation order, so the
        # lattice densities and log-linear cell masses must agree bit for bit
        rng = np.random.default_rng(21)
        rows = 6
        vs = np.linspace(-6.0, 6.0, 128) + rng.uniform(-0.01, 0.01, (rows, 1))
        mu = rng.normal(0.0, 1.0, (rows, 1))
        sigma, trap = 0.3, 0.05
        top, bottom = np.full((rows, 1), np.inf), np.full((rows, 1), -np.inf)
        for above, below in [(top, bottom), (mu + 1.5, bottom), (top, mu - 1.5), (mu + 1.5, mu - 1.5)]:
            pen = h.integrand(vs - above) + h.integrand(below - vs)
            plain = -0.5 * ((vs - mu) / sigma) ** 2 - trap * pen
            logd = _site_log_density(vs, mu, sigma, above, below, trap, h)
            assert np.array_equal(logd, plain)
            if isinstance(h, OrderedHamiltonian):
                continue  # the hard wall draws its truncated Gaussian without a lattice
            ell = np.maximum(plain - plain.max(axis=1, keepdims=True), LOG_FLOOR)
            d = np.exp(ell)
            slope = np.diff(ell, axis=1)
            steep = np.abs(slope) >= LOG_LINEAR_MIN
            with np.errstate(divide="ignore", invalid="ignore"):
                log_linear = (d[:, 1:] - d[:, :-1]) / slope
            cells, slopes = _log_linear_cells(logd)
            assert np.array_equal(slopes, slope)
            assert np.array_equal(cells, np.where(steep, log_linear, 0.5 * (d[:, 1:] + d[:, :-1])))
            assert np.array_equal(logd, d)

    def test_single_interior_site_matches_rejection_sampler(self):
        # on a 3-point grid the one-site conditional is the full conditional,
        # so one heat-bath refresh must agree with candidate/accept draws
        grid = Grid(0.0, 1.0, 3)
        floor = constant_curve(grid, -0.3)
        h = ScaledExpHamiltonian(8.0)
        outer = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, floor)
        rng = np.random.default_rng(17)
        n = 3000
        start = np.zeros((n, 1, 3))
        u = rng.random((n, 1, 1))
        bath_mid = heat_bath_scan_batch(start, grid, outer, h, u)[:, 0, 1]
        spec = _single_curve_spec(h, floor)
        rej_mid = np.array(
            [sample_conditional(spec, grid, rng)[0].curves[0, 1] for _ in range(n)]
        )
        res = stats.ks_2samp(bath_mid, rej_mid)
        assert res.pvalue > 1e-3

    def test_sweep_pins_endpoints(self):
        grid = Grid(0.0, 1.0, 9)
        vals = np.zeros((1, 9))
        vals[0, 0], vals[0, -1] = 0.7, -0.2
        state = LineEnsemble(grid, vals)
        outer = BoundaryData(np.array([0.7]), np.array([-0.2]), PLUS_INF, MINUS_INF)
        out = heat_bath_sweep(state, outer, ExpHamiltonian(), np.random.default_rng(19))
        assert out.curves[0, 0] == 0.7 and out.curves[0, -1] == -0.2
        assert not np.array_equal(out.curves[0, 1:-1], vals[0, 1:-1])

    def test_hard_wall_scans_keep_the_grid_skeleton_law(self):
        # Each hard-wall site draws a Gaussian truncated to its neighbours, so
        # the scan leaves the grid skeleton's law invariant: free bridges above
        # the floor at the grid points. That is not the exact samplers'
        # continuum law: from 2e4 sample_conditional_batch draws (midpoint mean
        # 0.819), 50 scans move the midpoint mean to 0.659.
        grid = Grid(0.0, 1.0, 9)
        outer = BoundaryData(np.array([0.3]), np.array([0.3]), PLUS_INF, constant_curve(grid, 0.0))
        n = 10_000

        def skeleton_draws(seed):
            paths = bridge_batch(grid.points, 0.3, 0.3, np.random.default_rng(seed), 30_000)
            kept = paths[(paths > 0.0).all(axis=1)]  # acceptance about 0.41
            assert kept.shape[0] >= n
            return kept[:n, None, :]

        swept = skeleton_draws(41)
        rng = np.random.default_rng(42)
        for _ in range(20):
            swept = heat_bath_scan_batch(swept, grid, outer, OrderedHamiltonian(), rng.random((n, 1, 7)))
        res = stats.ks_2samp(swept[:, 0, 4], skeleton_draws(43)[:, 0, 4])
        assert res.pvalue > 1e-3

    def test_hard_wall_respected(self):
        grid = Grid(0.0, 1.0, 17)
        floor = constant_curve(grid, -0.2)
        state = LineEnsemble(grid, np.zeros((1, 17)))
        outer = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, floor)
        rng = np.random.default_rng(23)
        for _ in range(5):
            state = heat_bath_sweep(state, outer, OrderedHamiltonian(), rng)
            assert np.all(state.curves[0] >= -0.2)


class TestMonotoneCoupling:
    @staticmethod
    def _pair(shift):
        grid = Grid(0.0, 1.0, 17)
        lo_vals = np.vstack([np.full(17, 0.5), np.full(17, -0.5)])
        hi_vals = lo_vals + shift
        lo = LineEnsemble(grid, lo_vals)
        hi = LineEnsemble(grid, hi_vals)
        outer_lo = BoundaryData(lo_vals[:, 0], lo_vals[:, -1], PLUS_INF, MINUS_INF)
        outer_hi = BoundaryData(hi_vals[:, 0], hi_vals[:, -1], PLUS_INF, MINUS_INF)
        return grid, lo, hi, outer_lo, outer_hi

    def test_identical_inputs_stay_identical(self):
        grid, lo, hi, outer_lo, outer_hi = self._pair(0.0)
        new_lo, new_hi = monotone_coupled_sweep(
            lo, hi, outer_lo, outer_lo, ExpHamiltonian(), np.random.default_rng(29)
        )
        assert np.array_equal(new_lo.curves, new_hi.curves)

    def test_coupled_pair_reduces_to_plain_kernel(self):
        grid, lo, _, outer_lo, _ = self._pair(0.0)
        u = np.random.default_rng(31).random((1, 2, 15))
        plain = heat_bath_scan_batch(lo.curves[None], grid, outer_lo, ExpHamiltonian(), u)
        c_lo, c_hi = coupled_scan_batch(
            lo.curves[None], lo.curves[None], grid, outer_lo, outer_lo,
            ExpHamiltonian(), u,
        )
        assert np.array_equal(c_lo, plain)
        assert np.array_equal(c_hi, plain)

    def test_order_holds_across_sweeps(self):
        grid, lo, hi, outer_lo, outer_hi = self._pair(1.0)
        rng = np.random.default_rng(37)
        for _ in range(20):
            lo, hi = monotone_coupled_sweep(
                lo, hi, outer_lo, outer_hi, ExpHamiltonian(), rng
            )
            assert np.all(lo.curves <= hi.curves)

    def test_unordered_start_rejected(self):
        grid, lo, hi, outer_lo, outer_hi = self._pair(-0.5)
        with pytest.raises(OrderViolationInput):
            monotone_coupled_sweep(lo, hi, outer_lo, outer_hi, ExpHamiltonian(),
                                   np.random.default_rng(0))

    def test_unordered_endpoints_rejected(self):
        grid, lo, hi, outer_lo, outer_hi = self._pair(1.0)
        bad_hi = BoundaryData(outer_hi.x_vec - 5.0, outer_hi.y_vec, PLUS_INF, MINUS_INF)
        with pytest.raises(OrderViolationInput):
            monotone_coupled_sweep(lo, hi, outer_lo, bad_hi, ExpHamiltonian(),
                                   np.random.default_rng(0))

    def test_unordered_floor_rejected(self):
        grid, lo, hi, outer_lo, outer_hi = self._pair(1.0)
        walled_lo = BoundaryData(outer_lo.x_vec, outer_lo.y_vec, PLUS_INF,
                                 constant_curve(grid, -2.0))
        with pytest.raises(OrderViolationInput):
            monotone_coupled_sweep(lo, hi, walled_lo, outer_hi, ExpHamiltonian(),
                                   np.random.default_rng(0))


# Site-law error of the heat-bath kernel: KS = sup_u |F_ref(draw(u)) - u| over
# 8000 midpoint uniforms, at the site scale of a 1/64-spaced grid.
SITE_SIGMA = math.sqrt(1.0 / 128.0)
SITE_TRAP = 1.0 / 64.0
SITE_U = (np.arange(8000) + 0.5) / 8000
# Soft bound 2e-5. Measured with the 1024-point trapezoid lattice this kernel
# replaced: 1.2e-5 to 1.6e-5 per single state, 1.8e-5 and 2.03e-5 to 2.04e-5
# in the pairs. Now at most 9e-7, except the t = 1000 squeeze at 1.09e-5.
SOFT_KS_BOUND = 2e-5
# Hard bound 1e-10 against scipy's truncnorm. The old lattice: 1.3e-3 for the
# near windows, 2.5e-2 at 8 sigma off, 0.29 at 30 sigma off. Now at most 3e-13.
HARD_KS_BOUND = 1e-10

# (mean, above, below) per state
SOFT_SITE_CASES = {
    "free": [(0.0, math.inf, -math.inf)],
    "near": [(0.0, math.inf, -0.15)],
    "squeeze": [(0.0, -0.3, -math.inf)],
    "both": [(0.0, 0.15, -0.15)],
    "pair": [(0.0, 0.2, -0.2), (0.4, 0.6, 0.2)],
    "free_pair": [(0.0, math.inf, -math.inf), (0.3, math.inf, -math.inf)],
}
HARD_SITE_CASES = {
    "one_sided": (0.0, math.inf, -0.1),
    "two_sided": (0.0, 0.15, -0.1),
    "off_8_sigma": (0.0, 9 * SITE_SIGMA, 8 * SITE_SIGMA),
    "off_30_sigma": (0.0, 31 * SITE_SIGMA, 30 * SITE_SIGMA),
    "off_30_sigma_open": (0.0, -30 * SITE_SIGMA, -math.inf),
}


def _site_columns(states, rows):
    """(mu_list, above_list, below_list) of constant (rows,) arrays."""
    return [[np.full(rows, float(x)) for x in col] for col in zip(*states)]


def _site_draws(h, states, u=SITE_U):
    mus, aboves, belows = _site_columns(states, u.shape[0])
    return _site_draw(mus, SITE_SIGMA, aboves, belows, SITE_TRAP, h, u)


def _reference_cdf(h, mu, above, below, points=2**18):
    # trapezoid CDF of the plain site density on a fine lattice wide enough
    # for every case (at most 1e-9 off the exact CDF here)
    lo = min(mu, above) - 14 * SITE_SIGMA
    hi = max(mu, below) + 14 * SITE_SIGMA
    v = np.linspace(lo, hi, points + 1)
    logd = -0.5 * ((v - mu) / SITE_SIGMA) ** 2 - SITE_TRAP * (
        h.integrand(v - above) + h.integrand(below - v)
    )
    d = np.exp(logd - logd.max())
    c = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]))])
    return lambda x: np.interp(x, v, c / c[-1])


class TestSiteLawError:
    @pytest.mark.parametrize("case", sorted(SOFT_SITE_CASES))
    @pytest.mark.parametrize("t", [1.0, 8.0, 100.0, 1000.0])
    def test_soft_site_law_within_bound(self, t, case):
        h = ScaledExpHamiltonian(t)
        states = SOFT_SITE_CASES[case]
        for state, draw in zip(states, _site_draws(h, states)):
            ks = np.max(np.abs(_reference_cdf(h, *state)(draw) - SITE_U))
            assert ks <= SOFT_KS_BOUND, f"KS {ks:.3g}"

    @pytest.mark.parametrize("case", sorted(HARD_SITE_CASES))
    def test_hard_wall_site_law_is_exact(self, case):
        mu, above, below = HARD_SITE_CASES[case]
        (draw,) = _site_draws(OrderedHamiltonian(), [(mu, above, below)])
        assert np.all((below <= draw) & (draw <= above))
        a, b = (below - mu) / SITE_SIGMA, (above - mu) / SITE_SIGMA
        ks = np.max(np.abs(stats.truncnorm.cdf(draw, a, b, loc=mu, scale=SITE_SIGMA) - SITE_U))
        assert ks <= HARD_KS_BOUND, f"KS {ks:.3g}"

    def test_hard_wall_degenerate_window_pins_the_site(self):
        (draw,) = _site_draws(OrderedHamiltonian(), [(0.0, 0.05, 0.05)])
        assert np.all(draw == 0.05)

    def test_hard_wall_crossed_neighbours_rejected(self):
        with pytest.raises(OrderViolationInput):
            _site_draws(OrderedHamiltonian(), [(0.0, -0.1, 0.1)])


_offset = st.floats(-0.6, 0.6)
_shift = st.floats(0.0, 0.5)


class TestSiteCoupling:
    # uniforms spanning [0, 1), ends included, shared by both states
    U = np.concatenate([[0.0], (np.arange(255) + 0.5) / 256, [1.0 - 2.0**-53]])

    @staticmethod
    def _pair(mu, dmu, above, da, below, db):
        # the higher state has the larger mean and neighbours at least as high
        lo = (mu, above, below)
        hi = (mu + dmu, above + da, below + db)
        return [lo, hi]

    def _assert_ordered(self, h, states, raw_draws):
        # the branch's own draws are ordered up to rounding (the final max in
        # _site_draw may fix ulps only), and _site_draw's exactly
        lo, hi = raw_draws(_site_columns(states, self.U.shape[0]), self.U)
        assert np.all(lo <= hi + 4 * np.spacing(np.abs(hi)))
        lo, hi = _site_draws(h, states, self.U)
        assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
        assert np.all(lo <= hi)

    @settings(deadline=None, max_examples=40)
    @given(
        t=st.sampled_from([1.0, 100.0, 1000.0]),
        mu=st.floats(-1.0, 1.0), dmu=_shift,
        above=st.one_of(_offset, st.just(math.inf)), da=_shift,
        below=st.one_of(_offset, st.just(-math.inf)), db=_shift,
    )
    def test_soft_draws_keep_the_order(self, t, mu, dmu, above, da, below, db):
        h = ScaledExpHamiltonian(t)
        states = self._pair(mu, dmu, mu + above, da, mu + below, db)

        def raw(cols, u):
            return _lattice_draws(cols[0], SITE_SIGMA, cols[1], cols[2], SITE_TRAP, h, u)

        self._assert_ordered(h, states, raw)

    @settings(deadline=None, max_examples=40)
    @given(
        mu=st.floats(-1.0, 1.0), dmu=_shift,
        below=st.one_of(_offset, st.just(-math.inf)), db=_shift,
        width=st.one_of(st.floats(0.0, 1.0), st.just(math.inf)), da=_shift,
    )
    def test_hard_wall_draws_keep_the_order(self, mu, dmu, below, db, width, da):
        low = mu + below
        high = (mu - 0.3 if math.isinf(low) else low) + width
        states = self._pair(mu, dmu, high, da, low, db)
        if states[1][2] > states[1][1]:
            return  # the raised floor crossed the raised ceiling

        def raw(cols, u):
            return [
                _truncated_gaussian(mu, SITE_SIGMA, below, above, u)[0]
                for mu, above, below in zip(*cols)
            ]

        self._assert_ordered(OrderedHamiltonian(), states, raw)

    def test_coupled_hard_wall_scans_stay_ordered_inside_their_windows(self):
        n, pairs = 65, 50
        grid = Grid(0.0, 1.0, n)
        lo_levels, hi_levels = np.array([0.5, -0.5]), np.array([1.0, 0.0])
        floors = {"lo": -1.0, "hi": -0.6}
        outer_lo = BoundaryData(lo_levels, lo_levels, PLUS_INF, constant_curve(grid, floors["lo"]))
        outer_hi = BoundaryData(hi_levels, hi_levels, PLUS_INF, constant_curve(grid, floors["hi"]))
        lo = np.broadcast_to(lo_levels[None, :, None], (pairs, 2, n)).copy()
        hi = np.broadcast_to(hi_levels[None, :, None], (pairs, 2, n)).copy()
        rng = np.random.default_rng(940)
        violations = 0
        for _ in range(50):
            u = rng.random((pairs, 2, n - 2))
            lo, hi = coupled_scan_batch(lo, hi, grid, outer_lo, outer_hi, OrderedHamiltonian(), u)
            violations += int(np.sum(lo > hi))
            for state, floor in ((lo, floors["lo"]), (hi, floors["hi"])):
                assert np.all(state[:, 0] >= state[:, 1]) and np.all(state[:, 1] >= floor)
        assert violations == 0
