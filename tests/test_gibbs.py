import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import ndtr

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
from gibbslines import gibbs
from gibbslines.gibbs import (
    KEEP_DENSITY,
    LATTICE_HALF_WIDTH,
    LATTICE_POINTS,
    LOG_FLOOR,
    MAX_WIDEN,
    TAIL_MASS,
    ConditionalSpec,
    _boundary_row,
    _lattice_draws,
    _block,
    _correct_curvature,
    _invert_log_linear,
    _log_linear_cells,
    _site_buffers,
    _site_gaussian,
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

from conftest import load_script


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
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.25, 0.75)], ids=["whole", "inner"])
    def test_matches_full_stack_formula_bitwise(self, h, k, upper_finite, lower_finite, interval):
        # the plain formula on the interval's columns of the grid: stack both
        # boundary rows, H on every pair and column, rows summed in order, one
        # trapezoid; for the hard wall, the segment log survivals of every
        # adjacent row pair (sigma^2 = 1 against a boundary row, 2 between
        # curves), summed pair by pair, sentinel rows included
        m, size = 33, 40
        grid = Grid(0.0, 1.0, m)
        rng = np.random.default_rng(k)
        batch = -1.5 * np.arange(k)[None, :, None] + 0.5 * rng.normal(size=(size, k, m))
        upper = Curve(grid, 1.5 + 0.3 * rng.normal(size=m)) if upper_finite else PLUS_INF
        lower = Curve(grid, -1.5 * k + 0.3 * rng.normal(size=m)) if lower_finite else MINUS_INF
        bd = BoundaryData(batch[0, :, 0], batch[0, :, -1], upper, lower)
        blk = _block(ConditionalSpec(1, k, interval, bd, h), grid)
        ia, ib = (grid.index_of(v) for v in interval)
        batch = batch[..., ia : ib + 1]
        pts = grid.points[ia : ib + 1]
        stacked = np.concatenate(
            [np.broadcast_to(_boundary_row(upper, grid)[ia : ib + 1], (size, 1, pts.size)), batch,
             np.broadcast_to(_boundary_row(lower, grid)[ia : ib + 1], (size, 1, pts.size))], axis=1,
        )
        if isinstance(h, OrderedHamiltonian):
            expected = np.zeros(size)
            for p in range(k + 1):
                d = stacked[:, p] - stacked[:, p + 1]
                sigma2 = 1.0 if p in (0, k) else 2.0
                expected += segment_log_survival(d[:, :-1], d[:, 1:], sigma2 * np.diff(pts)).sum(axis=1)
        else:
            integrand = h.integrand(stacked[:, 1:] - stacked[:, :-1]).sum(axis=1)
            expected = -np.trapezoid(integrand, x=pts, axis=1)
        got = blk.log_weights(batch)
        assert got.tobytes() == expected.tobytes()
        if upper_finite or lower_finite or k > 1:
            assert np.unique(got).size > 1

    @staticmethod
    def _paired_grid_gap(fine, coarse, paths, specs_on):
        """Relative normalizer gap, coarse against fine, of the same bridges
        weighed on both grids (the log weights of the specs' blocks summed),
        and the standard error of the paired gap."""
        weights = []
        for grid, vals in ((fine, paths), (coarse, paths[:, ::2])):
            blocks = [_block(spec, grid) for spec in specs_on(grid)]
            lw = sum(blk.log_weights(vals[:, None, blk.span]) for blk in blocks)
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
            fine, Grid(0.0, 1.0, 33), paths,
            lambda grid: [_single_curve_spec(h, constant_curve(grid, -0.3))],
        )
        assert abs(gap) + 3.0 * se <= bound, f"gap {gap:.3%} +- {se:.3%}"

    # The same check for the separation runner's free reference weight in its
    # default geometry (k = 1, L = 1, M = 1): one curve pinned at M on [-2, 2]
    # over the floor clip(-u^2 / 2, -M, M), weighed off the window (-1, 1):
    # on the two pieces [-2, -1] and [1, 2].
    # The runner weighs at spacing 1/32; 257-point bridges are weighed at 1/64
    # and on every other point. Measured: -0.005 % at t = 100 and -0.001 % at
    # t = 1000 (SE 0.005 % and 0.013 %).
    @pytest.mark.parametrize("t", [100.0, 1000.0])
    def test_trapezoid_grid_error_of_separation_free_weights(self, t):
        h = ScaledExpHamiltonian(t)
        M = 1.0
        fine = Grid(-2.0, 2.0, 257)
        paths = bridge_batch(fine.points, M, M, np.random.default_rng(61), 20000)

        def specs_on(grid):
            floor = Curve(grid, np.clip(-0.5 * grid.points**2, -M, M))
            bd = BoundaryData(np.array([M]), np.array([M]), PLUS_INF, floor)
            return [ConditionalSpec(1, 1, piece, bd, h) for piece in ((-2.0, -1.0), (1.0, 2.0))]

        gap, se = self._paired_grid_gap(fine, Grid(-2.0, 2.0, 129), paths, specs_on)
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

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(gibbs, "REJECTION_BUDGET", 64)
        grid = Grid(0.0, 1.0, 9)
        # entrance and exit pinned below the floor: weight is identically zero
        spec = _single_curve_spec(
            OrderedHamiltonian(), constant_curve(grid, 0.0), x=-1.0, y=-1.0
        )
        with pytest.raises(RejectionBudgetExhausted) as exc:
            sample_conditional(spec, grid, np.random.default_rng(7))
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

    def test_tiny_budget_raises(self, monkeypatch):
        monkeypatch.setattr(gibbs, "REJECTION_BUDGET", 5)
        d = 0.05  # Z = 1 - exp(-2 d^2) ~ 0.005
        grid = Grid(0.0, 1.0, 17)
        spec = _single_curve_spec(OrderedHamiltonian(), constant_curve(grid, 0.0), x=d, y=d)
        with pytest.raises(RejectionBudgetExhausted) as exc:
            sample_conditional_batch(spec, grid, np.random.default_rng(13), 20)
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
        # the kernels write into work arrays in the plain formulas' operation
        # order, so the lattice densities, exact log-linear cell masses and
        # their curvature corrections must agree bit for bit, one state at a
        # time and with the four neighbour cases stacked as four states on one
        # lattice
        rng = np.random.default_rng(21)
        rows = 6
        vs = np.linspace(-6.0, 6.0, LATTICE_POINTS) + rng.uniform(-0.01, 0.01, (rows, 1))
        mu = rng.normal(0.0, 1.0, (rows, 1))
        sigma, trap = 0.3, 0.05
        top, bottom = np.full((rows, 1), np.inf), np.full((rows, 1), -np.inf)
        singles = []  # (above, below, plain), each with a leading state axis of 1
        for above, below in [(top, bottom), (mu + 1.5, bottom), (top, mu - 1.5), (mu + 1.5, mu - 1.5)]:
            pen = h.integrand(vs - above) + h.integrand(below - vs)
            singles.append((above[None], below[None], (-0.5 * ((vs - mu) / sigma) ** 2 - trap * pen)[None]))
        stacked = tuple(np.concatenate(parts) for parts in zip(*singles))
        for above, below, plain in singles + [stacked]:
            work = _site_buffers(plain.shape[0], rows)
            work.vs[...] = vs
            logd = _site_log_density(np.broadcast_to(mu, above.shape), sigma, above, below, trap, h, work)
            assert np.array_equal(logd, plain)
            if isinstance(h, OrderedHamiltonian):
                continue  # the hard wall draws its truncated Gaussian without a lattice
            ell = np.maximum(plain - plain.max(axis=2, keepdims=True), LOG_FLOOR)
            d = np.exp(ell)
            slope = np.diff(ell, axis=2)
            cells, slopes = _log_linear_cells(work)
            plain_cells = _ref_exact_cells(d, slope)
            assert np.array_equal(slopes, slope)
            assert np.array_equal(cells, plain_cells)
            assert np.array_equal(logd, d)
            _correct_curvature(work)
            assert np.array_equal(cells, plain_cells * _ref_curvature_factors(slope))

    def test_corrected_cells_match_gaussian_masses_to_fourth_order(self):
        # On a uniform lattice of spacing dx (in sigma) over the kernel's
        # +-LATTICE_HALF_WIDTH sigma, the log-linear cells miss every exact
        # Gaussian cell mass by about dx^2 / 12 (measured 8.4e-4 to 8.5e-4 at
        # dx = 0.1008); the curvature correction leaves O(dx^4) (measured at
        # most 4.7e-6, 0.045 dx^4).
        rows = 3
        vs = (np.linspace(-LATTICE_HALF_WIDTH, LATTICE_HALF_WIDTH, LATTICE_POINTS)
              + np.array([[0.0], [0.0123], [0.05]]))
        dx = vs[0, 1] - vs[0, 0]
        work = _site_buffers(1, rows)
        work.vs[...] = vs
        state = np.zeros((1, rows, 1))
        logd = _site_log_density(state, 1.0, state + np.inf, state - np.inf, 0.0, ExpHamiltonian(), work)
        peak = logd.max(axis=2, keepdims=True)
        cells = _log_linear_cells(work)[0]
        raw = cells.copy()
        _correct_curvature(work)
        v0, v1 = vs[:, :-1], vs[:, 1:]
        # Phi differences from the near tail, so they keep their digits for v > 0
        phi = np.where(v0 >= 0.0, ndtr(-v0) - ndtr(-v1), ndtr(v1) - ndtr(v0))
        exact = math.sqrt(2 * math.pi) * phi * np.exp(-peak) / dx
        assert np.all(np.abs(cells / exact - 1.0) <= dx**4 / 4)
        assert np.all(np.abs(raw / exact - 1.0) >= dx**2 / 13)

    def test_corrected_cells_stay_nonnegative_at_the_log_floor(self):
        # a steep penalty drops the log density from above exp's underflow to
        # LOG_FLOOR within one cell: the kink's second difference is far above
        # 12, so the curvature factor clips to 0 rather than turning negative
        rows = 5
        vs = np.linspace(-8.0, 8.0, LATTICE_POINTS) + np.linspace(0.0, 0.1, rows)[:, None]
        work = _site_buffers(1, rows)
        work.vs[...] = vs
        state = np.zeros((1, rows, 1))
        logd = _site_log_density(state, 1.0, state + 0.5, state - np.inf, 1.0, ScaledExpHamiltonian(1e5), work)
        assert np.any(logd <= LOG_FLOOR)
        cells, slopes = _log_linear_cells(work)
        raw = cells.copy()
        assert np.any((raw > 0.0) & (_ref_curvature_sums(slopes) > 24.0))
        _correct_curvature(work)
        assert np.all(cells >= 0.0)
        _invert_log_linear(work, np.full((rows, 1), 0.5))
        assert np.all(np.diff(work.logd, axis=2) >= 0.0)

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

    @pytest.mark.parametrize("h", [ExpHamiltonian(), OrderedHamiltonian()], ids=["soft", "hard"])
    def test_mismatched_batch_shapes_are_rejected(self, h):
        grid, lo, hi, outer_lo, outer_hi = self._pair(1.0)
        three, one = np.repeat(lo.curves[None], 3, axis=0), hi.curves[None]
        u = np.random.default_rng(41).random((3, 2, 15))
        with pytest.raises(LengthMismatch):
            coupled_scan_batch(three, one, grid, outer_lo, outer_hi, h, u)
        with pytest.raises(LengthMismatch):
            coupled_scan_batch(three, three + 1.0, grid, outer_lo, outer_hi, h, u[:1])
        with pytest.raises(LengthMismatch):
            heat_bath_scan_batch(three, grid, outer_lo, h, u[:, :, :-1])

    def test_order_holds_across_sweeps(self):
        grid, lo, hi, outer_lo, outer_hi = self._pair(1.0)
        rng = np.random.default_rng(37)
        for _ in range(20):
            lo, hi = monotone_coupled_sweep(
                lo, hi, outer_lo, outer_hi, ExpHamiltonian(), rng
            )
            assert np.all(lo.curves <= hi.curves)

    def test_sandwich_gap_contracts_at_the_gauss_seidel_rate(self):
        # With no neighbours the penalty is inactive, so on shared uniforms both
        # states draw mu + sigma Phi^-1(u) at a site and their gap follows a
        # Gauss-Seidel sweep of the Dirichlet Laplacian, whose slowest mode
        # shrinks by cos^2(pi / (n - 1)) per scan. A Jacobi update, a neighbour
        # weight off 1/2 or unshared uniforms each move the rate off it.
        n, pairs, scans = 17, 20, 120
        grid = Grid(0.0, 1.0, n)
        outer = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, MINUS_INF)
        hi = np.zeros((pairs, 1, n))
        hi[:, :, 1:-1] = 2.0
        lo = -hi
        rng = np.random.default_rng(53)
        gaps = []
        for _ in range(scans):
            u = rng.random((pairs, 1, n - 2))
            lo, hi = coupled_scan_batch(lo, hi, grid, outer, outer, ExpHamiltonian(), u)
            gaps.append(np.max(hi - lo))
        rate = (gaps[scans - 1] / gaps[scans // 2 - 1]) ** (1.0 / (scans // 2))
        assert rate == pytest.approx(math.cos(math.pi / (n - 1)) ** 2, abs=1e-3)

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
# 8000 midpoint uniforms, at the site scale of a 1/64-spaced grid. The soft
# cases, the reference law and the KS itself come from
# scripts/site_law_table.py, which prints the measured values quoted here.
_LAW = load_script("site_law_table")
SITE_SIGMA, SITE_TRAP, SITE_U = _LAW.SITE_SIGMA, _LAW.SITE_TRAP, _LAW.SITE_U
_site_columns, _site_draws, _reference_law = _LAW.site_columns, _LAW.site_draws, _LAW.reference_law
# Soft bound 2e-5. Measured with the 1024-point trapezoid lattice this kernel
# replaced: 1.2e-5 to 1.6e-5 per single state, 1.8e-5 and 2.03e-5 to 2.04e-5
# in the pairs. Now (one pass of 120 curvature-corrected points over 6 sigma,
# exact log-linear cells) at most 8.6e-6, in the t = 1000 pair, with median
# 3.3e-6 over the 24 (t, case) pairs; 160 points over 8 sigma behind a coarse
# pass measured 6.9e-6 and 3.3e-6. Without the curvature correction, 160
# points measure 4.5e-5 in the t = 1000 squeeze.
SOFT_KS_BOUND = 2e-5
# Hard bound 1e-10 against scipy's truncnorm. The old lattice: 1.3e-3 for the
# near windows, 2.5e-2 at 8 sigma off, 0.29 at 30 sigma off. Now at most 3e-13.
HARD_KS_BOUND = 1e-10

HARD_SITE_CASES = {
    "one_sided": (0.0, math.inf, -0.1),
    "two_sided": (0.0, 0.15, -0.1),
    "off_8_sigma": (0.0, 9 * SITE_SIGMA, 8 * SITE_SIGMA),
    "off_30_sigma": (0.0, 31 * SITE_SIGMA, 30 * SITE_SIGMA),
    "off_30_sigma_open": (0.0, -30 * SITE_SIGMA, -math.inf),
}


class TestSiteLawError:
    @pytest.mark.parametrize("case", sorted(_LAW.SOFT_SITE_CASES))
    @pytest.mark.parametrize("t", _LAW.T_VALUES)
    def test_soft_site_law_within_bound(self, t, case):
        for ks in _LAW.soft_ks(t, case):
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


# Soft coupled draws cross by at most this many eps (1/f_lo + 1/f_hi), f each
# state's site density. Measured by scripts/site_law_table.py --pairs 20000:
# at most 2.02; 307 with the LOG_LINEAR_MIN cells of earlier versions.
COUPLING_SLACK = 8
_offset = st.floats(-0.6, 0.6)
_shift = st.floats(0.0, 0.5)


class TestSiteCoupling:
    # uniforms spanning [0, 1), ends included, shared by both states
    U = _LAW.COUPLING_U

    @staticmethod
    def _pair(mu, dmu, above, da, below, db):
        # the higher state has the larger mean and neighbours at least as high
        lo = (mu, above, below)
        hi = (mu + dmu, above + da, below + db)
        return [lo, hi]

    def _assert_ordered(self, h, states, raw_draws, slack):
        # the branch's own draws are ordered up to their rounding bound
        # slack(lo, hi), stated in _site_draw's docstring, and _site_draw's exactly
        lo, hi = raw_draws(_site_columns(states, self.U.shape[0]), self.U)
        assert np.all(lo <= hi + slack(lo, hi))
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
    # Hypothesis found this pair crossing by 4.7e-15 at a draw of 0.002
    @example(t=1.0, mu=0.0, dmu=0.0, above=0.0, da=0.0, below=0.5, db=1e-12)
    # the worst of 20,000 pairs (scripts/site_law_table.py --pairs) with cells
    # taken as (d1 - d0) / s above LOG_LINEAR_MIN = 1e-5: 307 eps (1/f_lo + 1/f_hi)
    @example(t=1000.0, mu=-0.9920707962262418, dmu=0.0, above=0.4297982856589447, da=4.39e-14,
             below=-0.5752237742468549, db=0.0)
    def test_soft_draws_keep_the_order(self, t, mu, dmu, above, da, below, db):
        h = ScaledExpHamiltonian(t)
        states = self._pair(mu, dmu, mu + above, da, mu + below, db)
        pdf_lo, pdf_hi = (_reference_law(h, *state)[1] for state in states)

        def raw(cols, u):
            work = _site_buffers(2, u.shape[0])
            return _lattice_draws(cols[0], SITE_SIGMA, cols[1], cols[2], SITE_TRAP, h, u[:, None], work)[..., 0]

        def slack(lo, hi):
            # a CDF off by c eps in probability moves its draw by c eps over
            # its density; the bound and its measurement are in _site_draw's
            # docstring
            with np.errstate(divide="ignore"):
                return COUPLING_SLACK * np.finfo(float).eps * (1.0 / pdf_lo(lo) + 1.0 / pdf_hi(hi))

        self._assert_ordered(h, states, raw, slack)

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
                _truncated_gaussian(mu, SITE_SIGMA, below, above, u[:, None])[0][:, 0]
                for mu, above, below in zip(*cols)
            ]

        # exact draws: a few ulps of the value
        self._assert_ordered(OrderedHamiltonian(), states, raw, lambda lo, hi: 4 * np.spacing(np.abs(hi)))

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


# Reference for the stacked site kernels: the per-state heat bath they
# replaced, on fresh (B, m) arrays. The density and cell formulas are the plain
# ones that test_site_kernels_match_plain_formulas pins bit for bit; the
# lattice placement, widening, trimming and inversion are the per-state code's
# own: one lattice pass, and a second over the kept nodes where some row trims.


def _ref_log_density(vs, mu, sigma, above, below, trap, h):
    pen = h.integrand(vs - above) + h.integrand(below - vs)
    return -0.5 * ((vs - mu) / sigma) ** 2 - trap * pen


def _ref_curvature_sums(slopes):
    """2 k per cell, k the mean second difference of the log density at its two
    end nodes, (s[i+1] - s[i-1]) / 2 in the log steps s, and at the two end
    cells the one at its interior node."""
    return np.concatenate([2.0 * (slopes[..., 1:2] - slopes[..., :1]), slopes[..., 2:] - slopes[..., :-2],
                           2.0 * (slopes[..., -1:] - slopes[..., -2:-1])], axis=-1)


def _ref_curvature_factors(slopes):
    """max(0, 1 - k / 12) per cell."""
    return np.maximum(1.0 - _ref_curvature_sums(slopes) / 24.0, 0.0)


def _ref_exact_cells(d, slope):
    """Each cell's mass over its width, d0 expm1(s) / s for the log step s and
    d0 where s = 0, written from the cell's higher end so that it cannot
    overflow: d_hi expm1(-|s|) / -|s|."""
    with np.errstate(invalid="ignore"):
        rel = np.where(slope == 0.0, 1.0, np.expm1(-np.abs(slope)) / -np.abs(slope))
    return np.where(slope > 0.0, d[..., 1:], d[..., :-1]) * rel


def _ref_cells(logd):
    """(cells, slopes, density / peak), or None when a row has no finite peak."""
    peak = logd.max(axis=1, keepdims=True)
    if not np.isfinite(peak).all():
        return None
    ell = np.maximum(logd - peak, LOG_FLOOR)
    d = np.exp(ell)
    slope = np.diff(ell, axis=1)
    return _ref_exact_cells(d, slope), slope, d


def _ref_invert(vs, cells, slopes, u):
    cdf = np.zeros(vs.shape)
    np.cumsum(cells, axis=1, out=cdf[:, 1:])
    target = u * cdf[:, -1]
    idx = np.clip((cdf < target[:, None]).sum(axis=1), 1, cdf.shape[1] - 1)
    rows = np.arange(cdf.shape[0])
    c0, c1 = cdf[rows, idx - 1], cdf[rows, idx]
    v0, x = vs[rows, idx - 1], slopes[rows, idx - 1]
    q = np.clip(np.where(c1 > c0, (target - c0) / np.maximum(c1 - c0, 1e-300), 0.0), 0.0, 1.0)
    up = x > 0
    x = np.where(up, -x, x)
    q = np.where(up, 1.0 - q, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log1p(q * np.expm1(x)) / x
    s = np.where(x < 0, s, q)
    s = np.where(up, 1.0 - s, s)
    return v0 + np.clip(s, 0.0, 1.0) * (vs[rows, idx] - v0)


def _ref_lattice_draws(mus, sigma, aboves, belows, trap, h, u):
    lo = np.minimum.reduce(mus) - LATTICE_HALF_WIDTH * sigma
    hi = np.maximum.reduce(mus) + LATTICE_HALF_WIDTH * sigma
    for above in aboves:
        lo = np.where(np.isfinite(above), np.minimum(lo, above - 2 * sigma), lo)
    for below in belows:
        hi = np.where(np.isfinite(below), np.maximum(hi, below + 2 * sigma), hi)

    base = np.linspace(0.0, 1.0, LATTICE_POINTS)

    def fits(lo, hi):
        vs = (hi - lo)[:, None] * base[None, :] + lo[:, None]
        dens = [_ref_log_density(vs, mu[:, None], sigma, ab[:, None], be[:, None], trap, h)
                for mu, ab, be in zip(mus, aboves, belows)]
        return vs, [_ref_cells(logd) for logd in dens]

    for _ in range(MAX_WIDEN):
        vs, fit = fits(lo, hi)
        span = hi - lo
        if any(f is None for f in fit):
            lo, hi = lo - 0.5 * span, hi + 0.5 * span
            continue
        bad = np.zeros(lo.shape[0], dtype=bool)
        for cells, _, _ in fit:
            tail = TAIL_MASS * cells.sum(axis=1)
            bad |= (cells[:, 0] > tail) | (cells[:, -1] > tail)
        if not bad.any():
            break
        lo, hi = np.where(bad, lo - 0.5 * span, lo), np.where(bad, hi + 0.5 * span, hi)
    # keep every state's nodes above KEEP_DENSITY times its peak, plus one on
    # each side; a second pass spans the kept nodes only where some row trims
    first = np.min([(d >= KEEP_DENSITY).argmax(axis=1) - 1 for _, _, d in fit], axis=0)
    last = np.max([LATTICE_POINTS - (d >= KEEP_DENSITY)[:, ::-1].argmax(axis=1) for _, _, d in fit], axis=0)
    first, last = np.maximum(first, 0), np.minimum(last, LATTICE_POINTS - 1)
    if np.any(first > 0) or np.any(last < LATTICE_POINTS - 1):
        span = hi - lo
        vs, fit = fits(span * base[first] + lo, span * base[last] + lo)
    return [_ref_invert(vs, cells * _ref_curvature_factors(slopes), slopes, u) for cells, slopes, _ in fit]


def _ref_scan(states, outers, grid, h, u):
    n = grid.n
    stacks = [
        np.concatenate([np.broadcast_to(_boundary_row(o.upper, grid), (s.shape[0], 1, n)), s,
                        np.broadcast_to(_boundary_row(o.lower, grid), (s.shape[0], 1, n))], axis=1)
        for s, o in zip(states, outers)
    ]
    for i in range(1, states[0].shape[1] + 1):
        for j in range(1, n - 1):
            w1, sigma, trap = _site_gaussian(grid.points, j)
            mus = [(1.0 - w1) * st[:, i, j - 1] + w1 * st[:, i, j + 1] for st in stacks]
            aboves = [st[:, i - 1, j] for st in stacks]
            belows = [st[:, i + 1, j] for st in stacks]
            uij = u[:, i - 1, j - 1]
            if isinstance(h, OrderedHamiltonian):
                draws = [_truncated_gaussian(mu, sigma, be, ab, uij)[0]
                         for mu, ab, be in zip(mus, aboves, belows)]
            else:
                draws = _ref_lattice_draws(mus, sigma, aboves, belows, trap, h, uij)
            if len(draws) == 2:
                draws[1] = np.maximum(draws[1], draws[0])
            for st, v in zip(stacks, draws):
                st[:, i, j] = v
    return tuple(st[:, 1:-1] for st in stacks)


class TestStackedScanMatchesPerStateReference:
    GRID = Grid(0.0, 1.0, 9)
    LEVELS = np.array([0.5, -0.5])

    @staticmethod
    def _scan_both(states, outers, grid, h, u):
        new = (heat_bath_scan_batch(states[0], grid, outers[0], h, u) if len(states) == 1
               else coupled_scan_batch(*states, grid, *outers, h, u))
        new = new if isinstance(new, tuple) else (new,)
        return new, _ref_scan(states, outers, grid, h, u)

    @pytest.mark.parametrize("chains", [1, 7, 50, 250])
    @pytest.mark.parametrize("kind", ["plain", "coupled", "one_finite_outer"])
    @pytest.mark.parametrize(
        "h", [ScaledExpHamiltonian(1.0), ScaledExpHamiltonian(8.0), ScaledExpHamiltonian(100.0),
              OrderedHamiltonian()], ids=["t1", "t8", "t100", "hard"],
    )
    def test_scans_match_bytewise(self, h, kind, chains):
        grid, n = self.GRID, self.GRID.n
        rng = np.random.default_rng(chains)
        lo = self.LEVELS[None, :, None] + rng.uniform(-0.1, 0.1, (chains, 2, n))
        lo[..., [0, -1]] = self.LEVELS[:, None]
        states = [lo, lo + 0.3]
        sentinel = BoundaryData(self.LEVELS, self.LEVELS, PLUS_INF, MINUS_INF)
        outers = {
            "plain": [sentinel],
            "coupled": [sentinel, sentinel],
            # only one state's row is a sentinel at each outer neighbour
            "one_finite_outer": [
                BoundaryData(self.LEVELS, self.LEVELS, constant_curve(grid, 1.4), MINUS_INF),
                BoundaryData(self.LEVELS, self.LEVELS, PLUS_INF, constant_curve(grid, -0.9)),
            ],
        }[kind]
        states = states[: len(outers)]
        u = rng.random((chains, 2, n - 2))
        new, ref = self._scan_both(states, outers, grid, h, u)
        assert len(new) == len(ref)
        for a, b in zip(new, ref):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def _record_passes(monkeypatch):
        """Per _lattice_draws call (one site), the spans hi - lo of its lattice
        passes: a widening makes a row's span longer, a trim shorter."""
        sites = []
        draws, lattice = gibbs._lattice_draws, gibbs._lattice
        monkeypatch.setattr(gibbs, "_lattice_draws", lambda *a: sites.append([]) or draws(*a))
        monkeypatch.setattr(gibbs, "_lattice", lambda lo, hi, out: sites[-1].append(hi - lo) or lattice(lo, hi, out))
        return sites

    @staticmethod
    def _changes(sites, shorter):
        return sum(np.any(b < a if shorter else b > a) for spans in sites for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("kind", ["crossed_neighbour", "distant_pair"])
    def test_scans_that_widen_the_lattice_match_bytewise(self, kind, monkeypatch):
        # a lower curve 20 above the upper one under a weak penalty stretches
        # the lattice over both, as do two states 15 apart; the cells at the
        # far end then hold too much mass and the lattice widens
        grid, n, chains = Grid(0.0, 1.0, 17), 17, 20
        rng = np.random.default_rng(5)
        levels = np.array([0.0, 20.0]) if kind == "crossed_neighbour" else self.LEVELS
        lo = levels[None, :, None] + rng.uniform(-0.1, 0.1, (chains, 2, n))
        lo[..., [0, -1]] = levels[:, None]
        outer = BoundaryData(levels, levels, PLUS_INF, MINUS_INF)
        states, outers = ([lo], [outer]) if kind == "crossed_neighbour" else ([lo, lo + 15.0], [outer, outer])
        h = ScaledExpHamiltonian(1e-3 if kind == "crossed_neighbour" else 1.0)
        u = rng.random((chains, 2, n - 2))
        sites = self._record_passes(monkeypatch)
        new, ref = self._scan_both(states, outers, grid, h, u)
        assert len(sites) == 2 * (n - 2) and self._changes(sites, shorter=False) > 0
        for a, b in zip(new, ref):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["plain", "coupled"])
    @pytest.mark.parametrize("side", ["ceiling", "floor"])
    def test_scans_that_trim_the_lattice_match_bytewise(self, side, kind, monkeypatch):
        # a ceiling 0.3 below the curve's pins at t = 1000 squeezes the site
        # law below it: the upper nodes carry no mass, the keep rule trims
        # them, and a second pass spans the kept nodes only; a floor 0.3
        # above the pins trims the lower nodes
        grid, n, chains = Grid(0.0, 1.0, 17), 17, 20
        rng = np.random.default_rng(6)
        lo = rng.uniform(-0.1, 0.1, (chains, 1, n))
        lo[..., [0, -1]] = 0.0
        walls = (constant_curve(grid, -0.3), MINUS_INF) if side == "ceiling" else (PLUS_INF, constant_curve(grid, 0.3))
        outer = BoundaryData(np.zeros(1), np.zeros(1), *walls)
        states, outers = ([lo], [outer]) if kind == "plain" else ([lo, lo + 0.1], [outer, outer])
        u = rng.random((chains, 1, n - 2))
        sites = self._record_passes(monkeypatch)
        new, ref = self._scan_both(states, outers, grid, ScaledExpHamiltonian(1000.0), u)
        assert len(sites) == n - 2 and self._changes(sites, shorter=True) > 0
        for a, b in zip(new, ref):
            assert a.tobytes() == b.tobytes()
