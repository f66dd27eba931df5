import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbslines import experiments
from gibbslines.bridge_sampler import SWEEP_ROWS
from gibbslines.core import (
    PLUS_INF,
    BoundaryData,
    Curve,
    LineEnsemble,
    McEstimate,
    ScaledExpHamiltonian,
)
from gibbslines.errors import (
    EffectiveSampleSizeTooSmall,
    ValidationError,
    ZeroHits,
)
from gibbslines.experiments import (
    ExperimentReport,
    SeparationConfig,
    _LogMoments,
    _SeparationFrame,
    _anchor_pair,
    _band_draw,
    _band_proposal_batch,
    _channel_anchor,
    _channel_anchors,
    _channel_log_weights,
    _fill_midpoints,
    _gamma_tilted_height,
    _gamma_tilted_log_pdf,
    _log_normal_pdf,
    _run_shards,
    _shard_counts,
    _sine_tilted_height,
    _sine_tilted_log_pdf,
    estimate_excursion_probability,
    run_excursion_experiment,
    run_fluctuation_experiment,
    run_ordering_experiment,
    run_separation_experiment,
    run_z_lowerbound_experiment,
)
from gibbslines.gibbs import ConditionalSpec, _block, _truncated_gaussian, log_boltzmann_weight


@pytest.fixture(scope="module")
def sep_k1():
    return run_separation_experiment(
        SeparationConfig(k=1, L=1.0, t=1000.0, M=1.0, n_samples=4000, seed=5)
    )


@pytest.fixture(scope="module")
def zlb_k2():
    return run_z_lowerbound_experiment(
        SeparationConfig(k=2, L=1.0, t=100.0, M=1.0, n_samples=2000, seed=9)
    )


@pytest.fixture(scope="module")
def ordering_k2():
    return run_ordering_experiment(
        k=2, t_list=[1.0, 8.0, 64.0], gap=1.0, rho=0.25, n_samples=600, seed=3
    )


@pytest.fixture(scope="module")
def fluctuation_report():
    return run_fluctuation_experiment(
        d=0.25, K_list=[1.0, 2.0, 3.0], boundary_box=2.0, n_samples=800, seed=4
    )


@pytest.fixture(scope="module")
def excursion_report():
    return run_excursion_experiment(
        L=1.0, M=1.0, lam=4.0, x=0.0, y=0.0, interval=(0.0, 4.0), n_samples=20000, seed=6
    )


class TestSeparationConfig:
    def test_collects_every_problem(self):
        with pytest.raises(ValidationError) as err:
            SeparationConfig(k=0, L=0.5, t=0.0, M=0.1, n_samples=0, seed=-1)
        assert len(err.value.problems) >= 5


class TestSeparationExperiment:
    def test_report_passes(self, sep_k1):
        assert sep_k1.passed
        assert sep_k1.name == "separation"

    def test_regression_values(self, sep_k1):
        p = sep_k1.estimate("separated_endpoints_prob")
        assert 6.9e-4 < p.mean < 7.7e-4
        z = sep_k1.estimate("free_reference_normalizer")
        assert 0.0 < z.mean <= 1.0
        assert sep_k1.estimate("fitted_decay_rate").mean > 0.0

    def test_every_rare_estimate_reports_healthy_ess(self, sep_k1):
        for label in (
            "ess_free_reference",
            "ess_separated_endpoints",
            "ess_banded_curves",
            "ess_raised_curves",
        ):
            assert sep_k1.estimate(label).mean >= 100.0

    def test_band_event_is_rarer_than_separation(self, sep_k1):
        assert sep_k1.check("band_implies_separation")[0]
        banded = sep_k1.estimate("banded_curves_prob").mean
        separated = sep_k1.estimate("separated_endpoints_prob").mean
        assert 0.0 < banded < separated

    def test_monotone_decay_in_barrier_height(self):
        means = []
        for M in (1.0, 1.5, 2.0):
            rep = run_separation_experiment(
                SeparationConfig(k=1, L=1.0, t=1000.0, M=M, n_samples=3000, seed=21)
            )
            means.append(rep.estimate("separated_endpoints_prob").mean)
        assert means[0] > means[1] > means[2] > 0.0

    def test_bit_reproducible(self):
        cfg = SeparationConfig(k=1, L=1.0, t=100.0, M=1.0, n_samples=1500, seed=77)
        rep_a = run_separation_experiment(cfg)
        rep_b = run_separation_experiment(cfg)
        table_a = [(lab, est.mean, est.stderr) for lab, est in rep_a.estimates]
        table_b = [(lab, est.mean, est.stderr) for lab, est in rep_b.estimates]
        assert table_a == table_b

    def test_two_curve_run_passes(self):
        rep = run_separation_experiment(
            SeparationConfig(k=2, L=1.0, t=100.0, M=1.0, n_samples=60000, seed=5)
        )
        assert rep.passed
        sep = rep.estimate("separated_endpoints_prob").mean
        band = rep.estimate("banded_curves_prob").mean
        raised = rep.estimate("raised_curves_prob").mean
        assert 0.0 < raised < band < sep < 1e-12
        assert rep.estimate("ess_banded_curves").mean >= 100.0
        assert rep.estimate("ess_raised_curves").mean >= 100.0

    def test_starved_budget_fails_loudly(self):
        with pytest.raises(EffectiveSampleSizeTooSmall) as err:
            run_separation_experiment(
                SeparationConfig(k=2, L=1.0, t=100.0, M=1.0, n_samples=1200, seed=0)
            )
        # every ESS is computed before the first failing label raises
        labels = [
            "free reference weights",
            "separated-endpoint weights",
            "banded-curve weights",
            "raised-curve weights",
        ]
        all_ess = err.value.all_ess
        assert list(all_ess) == labels
        failing = [lab for lab in labels if all_ess[lab] < 100.0]
        assert failing and err.value.ess == all_ess[failing[0]]
        assert f"{all_ess[failing[0]]:.2f} for {failing[0]}" in str(err.value)
        for lab in labels:
            assert f"{lab}: {all_ess[lab]:.2f}" in str(err.value)

    def test_peak_memory_per_sample(self):
        # proposal batches are released as soon as they are weighed, so the
        # CLI-default run holds one (n, k, grid) batch at a time: about 3 KB
        # per sample traced, against 12.5 KB with all four batches alive and
        # weights built on a full (n, k + 2, grid) stack
        cfg = SeparationConfig(k=1, L=1.0, t=1000.0, M=1.0, n_samples=4000, seed=0)
        tracemalloc.start()
        try:
            run_separation_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cfg.n_samples <= 6000, f"{peak / cfg.n_samples:.0f} bytes per sample"

    def test_peak_memory_does_not_grow_with_n_samples(self):
        # _run_shards hands the runner pieces of at most DRAW_CHUNK samples,
        # so 16,384 samples hold no more at once than 4096
        def peak(n):
            cfg = SeparationConfig(k=1, L=1.0, t=1000.0, M=1.0, n_samples=n, seed=1)
            tracemalloc.start()
            try:
                run_separation_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # warm-up: first-use imports and caches stay out of the peaks
        small, large = peak(4096), peak(16384)
        assert large <= 1.25 * small, f"{large / 1e6:.2f} MB at 16384 against {small / 1e6:.2f} MB at 4096"

    def test_probability_above_one_fails_the_positivity_check(self, monkeypatch):
        import gibbslines.experiments as experiments

        def above_one(num, den, seed):
            return McEstimate(mean=1.5, stderr=0.1, n_samples=num.n, seed=seed)

        monkeypatch.setattr(experiments, "_ratio_estimate", above_one)
        rep = run_separation_experiment(
            SeparationConfig(k=1, L=1.0, t=100.0, M=1.0, n_samples=1500, seed=77)
        )
        assert not rep.check("endpoint_separation_positive")[0]

    def test_thread_count_validated(self):
        cfg = SeparationConfig(k=1, L=1.0, t=10.0, M=1.0, n_samples=100, seed=0)
        with pytest.raises(ValidationError):
            run_separation_experiment(cfg, threads=0)


def _free_bands(frame):
    return np.full(frame.cfg.k, -np.inf), np.full(frame.cfg.k, np.inf)


def _free_frame_batch(frame, m, seed):
    """Full-path free staggered draws: the band proposal with infinite bands,
    window filled, so every column of each curve's interval is a bridge."""
    rng = np.random.default_rng(seed)
    return _band_proposal_batch(frame, frame.base_batch(m), rng, *_free_bands(frame), window=True)[0]


def _frame_spec(frame, interval):
    """A block spec on the frame's grid, built from the config alone."""
    cfg = frame.cfg
    floor = Curve(frame.grid, np.clip(-0.5 * frame.grid.points**2, -cfg.M, cfg.M))
    pins = np.zeros(cfg.k)  # a weight ignores entrance/exit values
    bd = BoundaryData(pins, pins, PLUS_INF, floor)
    return ConditionalSpec(1, cfg.k, interval, bd, ScaledExpHamiltonian(cfg.t))


class TestSeparationFrame:
    def test_band_geometry(self):
        frame = _SeparationFrame(SeparationConfig(k=2, L=1.0, t=100.0, M=1.5, n_samples=100, seed=0))
        assert list(frame.band_lo) == [7 * 1.5, 3 * 1.5]
        assert list(frame.band_hi) == [9 * 1.5, 5 * 1.5]
        assert list(frame.raise_lv) == [8 * 1.5, 4 * 1.5]
        # nested intervals: one per curve plus the window
        assert list(frame.left) == [-3.0, -2.0, -1.0]
        assert list(frame.right) == [3.0, 2.0, 1.0]

    def test_grid_contains_interval_endpoints(self):
        frame = _SeparationFrame(SeparationConfig(k=3, L=1.0, t=10.0, M=2.0, n_samples=10, seed=1))
        assert np.array_equal(frame.pts[frame.li], frame.left)
        assert np.array_equal(frame.pts[frame.ri], frame.right)
        assert (frame.pts[0], frame.pts[-1]) == (frame.left[0], frame.right[0])

    @pytest.mark.parametrize("k, t", [(1, 1000.0), (2, 100.0), (3, 8.0)])
    def test_off_window_weight_is_the_sum_of_its_pieces(self, k, t):
        # per sample and bit for bit: the weight on [-(k+1) L, -L] plus the
        # weight on [L, (k+1) L], each of one ensemble on the frame's grid
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=t, M=1.0, n_samples=10, seed=0))
        batch = _free_frame_batch(frame, 40, k)
        half = (k + 1) * 1.0
        pieces = [_frame_spec(frame, piece) for piece in ((-half, -1.0), (1.0, half))]
        expected = [
            sum(log_boltzmann_weight(LineEnsemble(frame.grid, ens), spec) for spec in pieces)
            for ens in batch
        ]
        got = frame.off_window_log_weights(batch)
        assert np.array_equal(got, expected)
        assert np.unique(got).size > 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_window_interior_never_reaches_the_off_window_weight(self, k):
        # NaN strictly inside the window must leave every weight as it is
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0))
        batch = _free_frame_batch(frame, 40, k)
        expected = frame.off_window_log_weights(batch)
        assert not np.isnan(expected).any() and np.unique(expected).size > 1
        batch[:, :, frame.iwl + 1 : frame.iwr] = np.nan
        assert frame.off_window_log_weights(batch).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_off_window_weight_dominates_full(self, k):
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0))
        batch = _free_frame_batch(frame, 40, k)
        full = _block(_frame_spec(frame, (frame.left[0], frame.right[0])), frame.grid)
        off = frame.off_window_log_weights(batch)
        assert np.all(off >= full.log_weights(batch))
        assert np.any(off > full.log_weights(batch))

    def test_raised_factor_is_a_floor_on_the_inner_interval(self, monkeypatch):
        cfg = SeparationConfig(k=3, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0)
        frame = _SeparationFrame(cfg)
        rng = np.random.default_rng(21)
        m, n = 400, frame.grid.n
        # steps of 0.5 around each level, so many values sit exactly on it
        steps = rng.choice([-1.0, 0.0, 1.0, 2.0], p=[0.002, 0.3, 0.3, 0.398], size=(m, cfg.k, n))
        paths = frame.raise_lv[None, :, None] + 0.5 * steps
        left, right = frame.left, frame.right
        expected = np.zeros(m)
        for j in range(cfg.k):
            i0, i1 = frame.grid.index_of(left[j + 1]), frame.grid.index_of(right[j + 1])
            paths[:, j, :i0] -= 50.0  # outside the inner interval nothing is tested
            paths[:, j, i1 + 1 :] -= 50.0
            # the anchors are drawn inside the channel, whatever the paths say there
            paths[:, j, frame.anchor_idx[j]] = frame.raise_lv[j]
            ok = np.all(paths[:, j, i0 : i1 + 1] >= frame.raise_lv[j], axis=1)
            expected += np.where(ok, 0.0, -np.inf)

        def level_from_paths(batch, j, rows, level, rng):
            # every midpoint level takes these fixed paths' values instead of bridge draws
            values = paths[rows, j][:, level.idx]
            batch[rows[:, None], j, level.idx] = values
            return values

        def fill_from_paths(frame, rows, j, stops, rng):
            # so do the outer spans, filled for the leading rows
            (i0, _), (i1, _) = stops[0], stops[-1]
            rows[:, j, i0 : i1 + 1] = paths[: rows.shape[0], j, i0 : i1 + 1]

        monkeypatch.setattr(experiments, "_draw_level", level_from_paths)
        monkeypatch.setattr(experiments, "_fill_bridges", fill_from_paths)
        batch = frame.base_batch(m)
        no_ceiling = np.full(cfg.k, np.inf)
        lw, got = _channel_log_weights(frame, batch, np.random.default_rng(3), frame.raise_lv, no_ceiling)
        assert np.array_equal(got, expected)
        assert 0 < np.sum(got == 0.0) < m
        assert np.array_equal(np.isfinite(lw), got == 0.0)

    @pytest.mark.parametrize("k, t", [(1, 1000.0), (2, 100.0), (3, 8.0)])
    def test_window_weights_match_per_sample_weights(self, k, t):
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=t, M=1.0, n_samples=10, seed=0))
        rng = np.random.default_rng(k)
        batch, anchors, _ = _band_proposal_batch(
            frame, frame.base_batch(40), rng, frame.band_lo, frame.band_hi, window=True
        )
        window = batch[:, :, frame.iwl : frame.iwr + 1]
        expected = [
            log_boltzmann_weight(
                LineEnsemble(frame.win_grid, window[i]),
                frame.window_spec(anchors[i, :, 0], anchors[i, :, 1]),
            )
            for i in range(len(window))
        ]
        got = frame.window.log_weights(window)
        assert np.array_equal(got, expected)
        assert np.unique(got).size > 1

    @pytest.mark.parametrize("rows", [64, SWEEP_ROWS])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_reused_batch_gives_the_fresh_batch_draws(self, k, rows):
        # the separation runner draws its four proposals into one batch in turn;
        # what each weight reads must not depend on what the batch held before:
        # every column off the window, and the leading rows of a channel draw
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0))
        no_ceiling = np.full(k, np.inf)
        off = np.r_[: frame.iwl + 1, frame.iwr : frame.grid.n]

        def draws(batch_for, rng):
            out = []
            for lo, hi in (_free_bands(frame), (frame.band_lo, frame.band_hi)):
                batch, anchors, lmass = _band_proposal_batch(frame, batch_for(), rng, lo, hi, window=False)
                out.append((batch[..., off].copy(), anchors, lmass, frame.off_window_log_weights(batch)))
            for lo, hi in ((frame.band_lo, frame.band_hi), (frame.raise_lv, no_ceiling)):
                batch = batch_for()
                lw, factor = _channel_log_weights(frame, batch, rng, lo, hi)
                kept = batch[: np.count_nonzero(factor == 0.0)]
                out.append((kept[..., off].copy(), lw, factor))
            return out

        shared = frame.base_batch(rows)
        reused = draws(lambda: shared, np.random.default_rng(k))
        fresh = draws(lambda: frame.base_batch(rows), np.random.default_rng(k))
        for got, expected in zip(reused, fresh, strict=True):
            for a, b in zip(got, expected, strict=True):
                assert np.array_equal(a, b)


def _rejected_sine_height(width, g, rng):
    """Reference: _sine_tilted_height's rejection rounds as plain expressions,
    both proposals made for every pending height and picked by np.where."""
    b = math.pi / width
    gg = np.abs(g)
    x = np.full(gg.shape, np.nan)
    while np.isnan(x).any():
        todo = np.flatnonzero(np.isnan(x))
        gt = gg[todo]
        u0, u1, u2 = rng.random((3, todo.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            shallow = np.where(gt > 0, -np.log1p(u0 * np.expm1(-gt * width)) / gt, u0 * width)
            steep = -np.log((1.0 - u0) * (1.0 - u1)) / gt
        prop = np.where(gt >= b, steep, shallow)
        accept = (prop < width) & (u2 * np.where(gt >= b, b * prop, 1.0) < np.sin(b * prop))
        x[todo[accept]] = prop[accept]
    return np.where(g < 0, width - x, x)


def _channel_anchor_formula(mu, sd, lo, hi, rng, m):
    """Reference: the channel anchor with each sample's component picked one
    sample at a time; the tilted samples take the tilted heights in order."""
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (m,))
    sd = np.broadcast_to(np.asarray(sd, dtype=float), (m,))
    pick_tn = rng.random(m) < 0.5
    v_tn, log_mass = _band_draw(mu, sd, lo, hi, rng, m)
    g = (lo - mu) / (sd * sd)
    if np.isfinite(hi):
        heights = iter(_rejected_sine_height(hi - lo, g[~pick_tn], rng))
        v = np.array([v_tn[i] if pick_tn[i] else lo + next(heights) for i in range(m)])
        lq_tilt = _sine_tilted_log_pdf(hi - lo, g, v - lo)
    else:
        g = np.maximum(g, 0.25 / sd)
        v = np.where(pick_tn, v_tn, lo + _gamma_tilted_height(g, rng, m))
        lq_tilt = _gamma_tilted_log_pdf(g, np.maximum(v - lo, 1e-300))
    log_phi = _log_normal_pdf(v, mu, sd)
    log_q = np.logaddexp(log_phi - log_mass, lq_tilt) - math.log(2.0)
    return v, log_phi - log_q


class TestChannelProposal:
    @pytest.mark.parametrize("rows", [64, SWEEP_ROWS])
    @pytest.mark.parametrize("channel", ["banded", "raised"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batch_is_bitwise_the_plain_formula(self, k, channel, rows, monkeypatch):
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0))
        if channel == "banded":
            lo, hi = frame.band_lo, frame.band_hi
        else:
            lo, hi = frame.raise_lv, np.full(k, np.inf)

        def draws(rng):
            # the anchors and inner spans alone, then one whole proposal
            batch = frame.base_batch(rows)
            log_ratio, inside = _channel_anchors(frame, batch, rng, lo, hi)
            anchored = batch.copy()
            return (anchored, log_ratio, inside, *_channel_log_weights(frame, batch, rng, lo, hi), batch)

        rng = np.random.default_rng(30 + k)
        got = draws(rng)
        monkeypatch.setattr(experiments, "_channel_anchor", _channel_anchor_formula)
        ref_rng = np.random.default_rng(30 + k)
        expected = draws(ref_rng)
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(a, b)
        got_ratio = got[1]
        assert np.all(np.isfinite(got_ratio)) and np.unique(got_ratio).size > 1
        assert rng.random() == ref_rng.random()

    def test_anchor_with_no_tilted_sample(self):
        # a seed whose picks all take the truncated component: the tilted subset is empty
        m = 4
        seed = next(s for s in range(200) if np.all(np.random.default_rng(s).random(m) < 0.5))
        args = (np.linspace(-3.0, 1.0, m), np.full(m, 0.8), 2.0, 3.5)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        v, term = _channel_anchor(*args, rng, m)
        v_ref, term_ref = _channel_anchor_formula(*args, ref_rng, m)
        assert np.array_equal(v, v_ref) and np.array_equal(term, term_ref)
        assert np.all((v >= 2.0) & (v <= 3.5))
        assert rng.random() == ref_rng.random()


class TestFreeProposalLaw:
    @pytest.mark.parametrize("k", [1, 2])
    def test_moments_are_the_staggered_bridge_moments(self, k):
        # the free draw takes each curve's values at -L and L from their exact
        # bridge marginals and fills only the off-window pieces; each curve must
        # still be a bridge from ext[j] at left[j] to ext[j] at right[j]: mean
        # ext[j] and covariance (s - left)(right - t) / (right - left), s <= t
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0))
        m, chunk = 20_000, 5_000
        # per curve: the two window edges, then one column inside each off-window piece
        cols = [
            (frame.iwl, frame.iwr, (frame.li[j] + frame.iwl) // 2, (frame.iwr + frame.ri[j]) // 2)
            for j in range(k)
        ]
        rng = np.random.default_rng(40 + k)
        batch = frame.base_batch(chunk)
        parts = []
        for _ in range(m // chunk):
            _band_proposal_batch(frame, batch, rng, *_free_bands(frame), window=False)
            parts.append(np.stack([batch[:, j, cols[j]] for j in range(k)], axis=1))
        values = np.concatenate(parts)
        for j in range(k):
            left, right, c = frame.left[j], frame.right[j], frame.ext[j]
            s = frame.pts[list(cols[j])]
            assert left < s[2] < s[0] < s[1] < s[3] < right
            var = (s - left) * (right - s) / (right - left)
            x = values[:, j]
            assert np.all(np.abs(x.mean(axis=0) - c) <= 4.0 * np.sqrt(var / m))
            assert np.all(np.abs(x.var(axis=0, ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / (m - 1)))
            cov = (s[0] - left) * (right - s[1]) / (right - left)
            got = np.cov(x[:, 0], x[:, 1])[0, 1]
            assert abs(got - cov) <= 4.0 * math.sqrt((var[0] * var[1] + cov * cov) / m)


class TestMidpointFill:
    @pytest.mark.parametrize("k", [1, 2])
    def test_infinite_band_gives_the_bridge_moments(self, k):
        # midpoint-first fills of curve 0 between fixed anchors, with nothing
        # dropped, must be bridges between consecutive anchors: mean the chord
        # between them, covariance (s - a)(b - t) / (b - a) for a <= s <= t <= b
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0))
        stops = frame.anchor_idx[0]
        anchors = np.array([0.5, -1.0, 2.0, 0.3])[: stops.size]
        # per span: a column off its middle, one on the other side, and the span
        cols = [(a + (c - a) // 4 + 1, a + 3 * (c - a) // 4 - 1, a, c) for a, c in zip(stops, stops[1:])]
        m, chunk = 20_000, 4_000
        rng = np.random.default_rng(60 + k)
        batch = frame.base_batch(chunk)
        parts = []
        for _ in range(m // chunk):
            batch[:, 0, stops] = anchors
            rows = _fill_midpoints(frame, batch, 0, np.arange(chunk), -np.inf, np.inf, rng)
            assert np.array_equal(rows, np.arange(chunk))
            parts.append(batch[:, 0, [c for s, t, _, _ in cols for c in (s, t)]].copy())
        values = np.concatenate(parts)
        assert np.array_equal(batch[:, 0, stops], np.broadcast_to(anchors, (chunk, stops.size)))
        for n, (s, t, a, c) in enumerate(cols):
            pa, pc = frame.pts[a], frame.pts[c]
            va, vc = anchors[n], anchors[n + 1]
            p = frame.pts[[s, t]]
            assert pa < p[0] < p[1] < pc
            mean = va + (vc - va) * (p - pa) / (pc - pa)
            var = (p - pa) * (pc - p) / (pc - pa)
            x = values[:, 2 * n : 2 * n + 2]
            assert np.all(np.abs(x.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / m))
            assert np.all(np.abs(x.var(axis=0, ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / (m - 1)))
            cov = (p[0] - pa) * (pc - p[1]) / (pc - pa)
            got = np.cov(x[:, 0], x[:, 1])[0, 1]
            assert abs(got - cov) <= 4.0 * math.sqrt((var[0] * var[1] + cov * cov) / m)

    def test_levels_draw_every_inner_column_once(self):
        frame = _SeparationFrame(SeparationConfig(k=3, L=1.5, t=100.0, M=2.0, n_samples=10, seed=0))
        for j in range(3):
            stops = frame.anchor_idx[j]
            drawn = np.concatenate([level.idx for level in frame.levels[j]])
            inner = np.setdiff1d(np.arange(stops[0], stops[-1] + 1), stops)
            assert np.array_equal(np.sort(drawn), inner)
            known = set(stops)
            for level in frame.levels[j]:
                # each level's ends are drawn before it, and its indices lie between them
                assert known >= set(level.left) | set(level.right)
                assert np.all((level.left < level.idx) & (level.idx < level.right))
                known |= set(level.idx)


def _full_path_channel_factor(frame, batch, lo_vec, hi_vec):
    """Reference: the log channel indicator of whole paths, every column of
    each curve's own interval drawn, as one plain formula per curve."""
    out = np.zeros(batch.shape[0])
    for j in range(frame.cfg.k):
        lo, hi = float(lo_vec[j]), float(hi_vec[j])
        in0, in1 = int(frame.li[j + 1]), int(frame.ri[j + 1])
        own0, own1 = int(frame.li[j]), int(frame.ri[j])
        inner = batch[:, j, in0 : in1 + 1]
        ok = np.all((inner >= lo) & (inner <= hi), axis=1)
        ok &= np.all(batch[:, j, own0 : in0 + 1] <= hi, axis=1)
        ok &= np.all(batch[:, j, in1 : own1 + 1] <= hi, axis=1)
        out += np.where(ok, 0.0, -np.inf)
    return out


def _inner_channel_ok(frame, batch, lo_vec, hi_vec):
    """Reference: the samples whose every curve j stays in [lo_vec[j],
    hi_vec[j]] on every column of its next narrower interval."""
    ok = np.ones(batch.shape[0], dtype=bool)
    for j in range(frame.cfg.k):
        inner = batch[:, j, frame.li[j + 1] : frame.ri[j + 1] + 1]
        ok &= np.all((inner >= lo_vec[j]) & (inner <= hi_vec[j]), axis=1)
    return ok


def _survivor_recount(frame, batch, rng, lo, hi):
    """Run one channel proposal on `batch` and check it against a replay of
    its inner draws; returns (log_weights, log_factor, full-path recount,
    inner-channel mask)."""
    m, k = batch.shape[0], frame.cfg.k
    replay = frame.base_batch(m)
    log_ratio, inside = _channel_anchors(frame, replay, copy.deepcopy(rng), lo, hi)
    lw, factor = _channel_log_weights(frame, batch, rng, lo, hi)
    keep = np.flatnonzero(inside)
    # the midpoint-first test keeps exactly the samples whose whole inner paths
    # stay in the channel: a dropped row still holds the value that failed it
    assert np.array_equal(inside, _inner_channel_ok(frame, replay, lo, hi))
    n = keep.size
    # a sample outside the inner channel has weight 0, outer spans or not
    assert np.all(lw[~inside] == -np.inf) and np.all(factor[~inside] == -np.inf)
    # the kept samples' leading rows hold their own inner spans off the window;
    # their window, which no weight reads, comes from the replay
    full = batch[:n].copy()
    for j in range(k):
        own = np.r_[frame.li[j + 1] : frame.iwl + 1, frame.iwr : frame.ri[j + 1] + 1]
        assert np.array_equal(full[:, j, own], replay[keep, j][:, own])
    full[:, :, frame.iwl + 1 : frame.iwr] = replay[keep, :, frame.iwl + 1 : frame.iwr]
    # every kept row is inside the inner channel, so its full-path factor is the outer one
    outer = _full_path_channel_factor(frame, full, lo, hi)
    assert np.array_equal(factor[keep], outer)
    expected = log_ratio[keep] + frame.off_window_log_weights(batch[:n]) + outer
    assert lw[keep].tobytes() == expected.tobytes()
    recount = np.empty(m)
    recount[keep] = outer
    recount[~inside] = _full_path_channel_factor(frame, replay[~inside], lo, hi)
    return lw, factor, recount, inside


class TestChannelSurvivors:
    @pytest.mark.parametrize("channel", ["banded", "raised", "low"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_survivors_carry_the_full_path_weight(self, k, channel):
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0))
        if channel == "banded":
            lo, hi = frame.band_lo, frame.band_hi
        elif channel == "raised":
            lo, hi = frame.raise_lv, np.full(k, np.inf)
        else:
            # a band low enough that some outer spans cross its ceiling
            lo, hi = frame.band_lo - 4.0, frame.band_lo - 1.5
        m = 2000
        rng = np.random.default_rng(50 + k)
        lw, factor, recount, inside = _survivor_recount(frame, frame.base_batch(m), rng, lo, hi)
        assert 0 < np.sum(factor == 0.0) < m
        assert np.array_equal(factor, recount)
        assert np.unique(lw[np.isfinite(lw)]).size > 1
        if channel == "low":
            assert np.sum(factor == 0.0) < np.sum(inside)

    def test_report_counts_match_a_full_path_recount(self):
        cfg = SeparationConfig(k=1, L=1.0, t=1000.0, M=1.0, n_samples=4000, seed=24)
        detail = run_separation_experiment(cfg).check("band_implies_separation")[1]
        # replay the one shard's stream: the free and separated draws, then the banded one
        frame = _SeparationFrame(cfg)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        batch = frame.base_batch(cfg.n_samples)
        for lo, hi in (_free_bands(frame), (frame.band_lo, frame.band_hi)):
            _band_proposal_batch(frame, batch, rng, lo, hi, window=False)
        _, factor, recount, _ = _survivor_recount(frame, batch, rng, frame.band_lo, frame.band_hi)
        positive = int(np.sum(recount > -np.inf))
        assert positive == np.sum(factor > -np.inf) > 0 and np.all(recount <= 0.0)
        assert detail.endswith(f"{positive} of {cfg.n_samples} proposal samples carried band mass")


class TestZLowerBound:
    def test_report_passes(self, zlb_k2):
        assert zlb_k2.passed

    def test_normalizers_in_unit_interval(self, zlb_k2):
        z_mean = zlb_k2.estimate("conditional_mean_normalizer").mean
        z_min = zlb_k2.estimate("minimum_normalizer").mean
        assert 0.0 < z_min <= z_mean <= 1.0

    def test_lower_bound_ratio_positive(self, zlb_k2):
        assert zlb_k2.estimate("fitted_lower_bound_ratio").mean > 0.0

    def test_chord_band_weight_supported(self, zlb_k2):
        ok, detail = zlb_k2.check("chord_band_weight")
        assert ok
        assert 0.0 < zlb_k2.estimate("chord_band_fraction").mean <= 1.0

    def test_peak_memory_of_default_run(self):
        # one estimate_Z call holds the 384 x 256 inner weights and one chunk
        # of at most Z_BATCH candidate curves: 4.2 MB traced
        cfg = SeparationConfig(k=2, L=1.0, t=100.0, M=1.0, n_samples=2000, seed=0)
        tracemalloc.start()
        try:
            run_z_lowerbound_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14e6, f"{peak / 1e6:.1f} MB"


class TestOrdering:
    def test_report_passes(self, ordering_k2):
        assert ordering_k2.passed

    def test_quantiles_ordered_per_time(self, ordering_k2):
        for t in (1, 8, 64):
            q05 = ordering_k2.estimate(f"min_gap_q05[t={t}]").mean
            q50 = ordering_k2.estimate(f"min_gap_q50[t={t}]").mean
            q95 = ordering_k2.estimate(f"min_gap_q95[t={t}]").mean
            assert q05 <= q50 <= q95

    def test_near_touch_prob_extremes(self):
        low = run_ordering_experiment(
            k=1, t_list=[1.0], gap=1.0, rho=-1000.0, n_samples=60, seed=2
        )
        high = run_ordering_experiment(
            k=1, t_list=[1.0], gap=1.0, rho=1000.0, n_samples=60, seed=2
        )
        assert low.estimate("near_touch_prob[t=1]").mean == 0.0
        assert high.estimate("near_touch_prob[t=1]").mean == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_ordering_experiment(k=5, t_list=[1.0], gap=1.0, rho=0.1, n_samples=10, seed=0)
        with pytest.raises(ValidationError):
            run_ordering_experiment(k=1, t_list=[0.0], gap=1.0, rho=0.1, n_samples=10, seed=0)
        with pytest.raises(ValidationError):
            run_ordering_experiment(k=1, t_list=[1.0], gap=-2.0, rho=0.1, n_samples=10, seed=0)

    @pytest.mark.parametrize("t_list", [[64.0, 8.0, 1.0], [1.0, 8.0, 8.0], [8.0, 1.0, 64.0]])
    def test_t_list_must_increase(self, t_list):
        # the monotonicity check compares neighbours in t_list order
        with pytest.raises(ValidationError, match="strictly increasing"):
            run_ordering_experiment(k=2, t_list=t_list, gap=1.0, rho=0.25, n_samples=10, seed=0)


class TestFluctuation:
    def test_report_passes(self, fluctuation_report):
        assert fluctuation_report.passed

    def test_probabilities_decay_in_threshold(self, fluctuation_report):
        probs = [
            fluctuation_report.estimate(f"big_fluctuation_prob[K={K}]").mean
            for K in (1, 2, 3)
        ]
        assert probs[0] > probs[1] > probs[2] >= 0.0
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_fitted_constants_positive(self, fluctuation_report):
        assert fluctuation_report.estimate("fitted_decay_constant").mean >= 1.0
        assert fluctuation_report.estimate("fitted_mixture_decay").mean > 0.0

    def test_zero_threshold_is_certain(self):
        rep = run_fluctuation_experiment(
            d=0.25, K_list=[0.0, 3.0], boundary_box=2.0, n_samples=400, seed=8
        )
        assert rep.estimate("big_fluctuation_prob[K=0]").mean == 1.0
        assert rep.passed

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_fluctuation_experiment(d=0.0, K_list=[1.0], boundary_box=1.0, n_samples=10, seed=0)
        with pytest.raises(ValidationError):
            run_fluctuation_experiment(d=0.5, K_list=[-1.0], boundary_box=1.0, n_samples=10, seed=0)
        with pytest.raises(ValidationError):
            run_fluctuation_experiment(d=0.5, K_list=[1.0], boundary_box=0.0, n_samples=10, seed=0)


class TestExcursion:
    def test_report_passes(self, excursion_report):
        assert excursion_report.passed

    def test_regression_value(self, excursion_report):
        p = excursion_report.estimate("excursion_prob")
        assert 4e-11 < p.mean < 9e-11

    def test_containment_audit_clean(self, excursion_report):
        ok, detail = excursion_report.check("containment_samplewise")
        assert ok
        assert "0" in detail

    def test_product_bound_below_estimate(self, excursion_report):
        prod = excursion_report.estimate("subevent_product").mean
        full = excursion_report.estimate("excursion_prob").mean
        assert prod <= full * 1.05

    def test_vacuous_constraints_give_probability_near_one(self):
        est = estimate_excursion_probability(
            L=1.0, M=50.0, lam=-0.1, x=0.0, y=0.0, interval=(0.0, 4.0), n_samples=1500, seed=1
        )
        assert est.mean > 0.99

    def test_zero_hits_raised_when_no_mass(self):
        with pytest.raises(ZeroHits) as err:
            run_excursion_experiment(
                L=1.0, M=1.0, lam=32.0, x=0.0, y=0.0, interval=(0.0, 4.0), n_samples=400, seed=2
            )
        assert "no excursion mass" in str(err.value)

    def test_geometry_validation(self):
        with pytest.raises(ValidationError):
            run_excursion_experiment(
                L=1.0, M=1.0, lam=4.0, x=0.0, y=0.0, interval=(0.0, 20.0), n_samples=10, seed=0
            )
        with pytest.raises(ValidationError):
            run_excursion_experiment(
                L=4.0, M=1.0, lam=4.0, x=0.0, y=0.0, interval=(0.0, 17.0), n_samples=10, seed=0
            )


@pytest.mark.parametrize(
    "run",
    [
        lambda seed: SeparationConfig(k=1, L=1.0, t=100.0, M=1.0, n_samples=10, seed=seed),
        lambda seed: run_ordering_experiment(
            k=1, t_list=[1.0], gap=1.0, rho=0.1, n_samples=10, seed=seed
        ),
        lambda seed: run_fluctuation_experiment(
            d=0.25, K_list=[1.0], boundary_box=1.0, n_samples=10, seed=seed
        ),
        lambda seed: run_excursion_experiment(
            L=1.0, M=1.0, lam=4.0, x=0.0, y=0.0, interval=(0.0, 4.0), n_samples=10, seed=seed
        ),
        lambda seed: estimate_excursion_probability(
            L=1.0, M=1.0, lam=4.0, x=0.0, y=0.0, interval=(0.0, 4.0), n_samples=10, seed=seed
        ),
    ],
    ids=["separation", "ordering", "fluctuation", "excursion", "excursion_probability"],
)
def test_negative_seed_is_a_validation_error(run):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer, got -1"):
        run(-1)


@pytest.mark.parametrize(
    "run, key",
    [
        (lambda v: SeparationConfig(k=1, L=v, t=10.0, M=1.0, n_samples=10, seed=0), "L"),
        (lambda v: SeparationConfig(k=1, L=1.0, t=10.0, M=v, n_samples=10, seed=0), "M"),
        (lambda v: run_ordering_experiment(k=1, t_list=[1.0], gap=v, rho=0.25, n_samples=10, seed=0), "gap"),
        (
            lambda v: run_fluctuation_experiment(d=0.25, K_list=[1.0], boundary_box=v, n_samples=10, seed=0),
            "boundary_box",
        ),
    ],
    ids=["separation_L", "separation_M", "ordering_gap", "fluctuation_boundary_box"],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_geometry_is_a_validation_error(run, key, value):
    # a non-finite size must fail validation, not the grid builder or a sampler
    with pytest.raises(ValidationError, match=f"{key} must be .*finite"):
        run(value)


@pytest.mark.parametrize(
    "run", [run_excursion_experiment, estimate_excursion_probability], ids=["excursion", "excursion_probability"]
)
@pytest.mark.parametrize("key", ["lam", "M"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_excursion_level_is_a_validation_error(run, key, value):
    # a non-finite level must fail validation, not the proposal band's sampler
    params = dict(L=1.0, M=1.0, lam=4.0, x=0.0, y=0.0, interval=(0.0, 4.0), n_samples=10, seed=0)
    params[key] = value
    with pytest.raises(ValidationError, match=f"{key} must be .*finite"):
        run(**params)


class TestReportAccessors:
    def test_lookup_by_label(self):
        rep = ExperimentReport(
            name="demo",
            estimates=[("a", McEstimate(1.0, 0.1, 10, 0))],
            checks=[("c", True, "fine")],
        )
        assert rep.estimate("a").mean == 1.0
        assert rep.check("c") == (True, "fine")
        assert rep.passed

    def test_missing_labels_raise(self):
        rep = ExperimentReport(name="demo")
        with pytest.raises(KeyError):
            rep.estimate("absent")
        with pytest.raises(KeyError):
            rep.check("absent")

    def test_failed_check_flips_passed(self):
        rep = ExperimentReport(name="demo", checks=[("a", True, ""), ("b", False, "bad")])
        assert not rep.passed


class TestRunShards:
    @staticmethod
    def _toy_shard(m, rng):
        x = np.arange(m) + rng.standard_normal(m)  # the index within a piece shows every split
        return x, m, _LogMoments.from_logs(x)

    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_merge_matches_serial_left_fold(self, threads, chunk, monkeypatch):
        import gibbslines.experiments as experiments

        if chunk is not None:
            monkeypatch.setattr(experiments, "DRAW_CHUNK", chunk)
        chunk = experiments.DRAW_CHUNK
        n, seed = 10, 17
        counts = _shard_counts(n, threads)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(counts))]
        # serial evaluation of each shard's pieces, in order, on that shard's
        # generator; threads > 1 runs the pool
        parts = [
            self._toy_shard(min(chunk, m - done), rng)
            for m, rng in zip(counts, rngs)
            for done in range(0, m, chunk)
        ]
        x, total, logmom = _run_shards(self._toy_shard, n, seed, threads)
        # arrays in shard then piece order, ints summed, accumulators folded left
        assert np.array_equal(x, np.concatenate([p[0] for p in parts]))
        assert total == n
        log_fold = parts[0][2]
        for p in parts[1:]:
            log_fold = log_fold.merge(p[2])
        assert logmom == log_fold


class TestProposalHelpers:
    def test_truncated_gaussian_stays_in_band(self):
        rng = np.random.default_rng(0)
        for mu in (-30.0, 0.0, 4.0, 55.0):
            v, lm = _truncated_gaussian(np.full(256, mu), 1.3, 2.0, 7.0, rng.random(256))
            assert np.all((v >= 2.0) & (v <= 7.0))
            assert np.all(lm <= 0.0)

    def test_truncated_gaussian_mass_matches_moderate_band(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(1)
        for mu in (-0.7, 0.0, 0.4, 1.3):
            v, lm = _truncated_gaussian(np.full(4, mu), 1.0, -1.0, 2.0, rng.random(4))
            expected = math.log(ndtr(2.0 - mu) - ndtr(-1.0 - mu))
            assert np.allclose(lm, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("hi_offset", [1.5, math.inf])
    def test_truncated_gaussian_far_tail_band(self, side, hi_offset):
        # a band 60 sigma out: the draw stays in band and its mass stays finite
        lo, hi = 60.0, 60.0 + hi_offset
        if side < 0:
            lo, hi = -hi, -lo
        v, lm = _truncated_gaussian(np.zeros(512), 1.0, lo, hi, np.random.default_rng(2).random(512))
        assert np.all((v >= lo) & (v <= hi))
        assert np.all(np.isfinite(lm))
        # Mills ratio: log P(Z > 60) = -1800 - log(60 sqrt(2 pi)) - 1/3600 + O(60^-4)
        if math.isinf(hi_offset):
            assert np.allclose(lm, -1800.0 - math.log(60.0 * math.sqrt(2.0 * math.pi)) - 1.0 / 3600.0, rtol=1e-9)
        # most mass sits within a few 1/60 of the near edge
        near = lo if side > 0 else hi
        assert abs(np.median(v) - near) < 0.05

    def test_band_draw_rejects_band_without_mass(self):
        rng = np.random.default_rng(3)
        with pytest.raises(EffectiveSampleSizeTooSmall):
            _band_draw(0.0, 1.0, 2.0, 2.0, rng, 8)  # zero width: log mass -inf
        with pytest.raises(EffectiveSampleSizeTooSmall), np.errstate(invalid="ignore"):
            _band_draw(0.0, 1.0, 1e160, math.inf, rng, 8)  # log_ndtr underflows: nan

    def test_anchor_pair_stays_in_band_and_sums_masses(self):
        lo, hi = 1.0, 2.5
        rng = np.random.default_rng(4)
        v1, v2, lm = _anchor_pair(0.0, 0.5, (-2.0, 2.0), -1.0, 1.0, lo, hi, 64, rng)
        assert np.all((v1 >= lo) & (v1 <= hi) & (v2 >= lo) & (v2 <= hi))
        # first anchor: bridge mean 0.125, sd sqrt(3/4); second given v1 at -1
        _, lm1 = _truncated_gaussian(0.125, math.sqrt(0.75), lo, hi, np.zeros(1))
        _, lm2 = _truncated_gaussian((v1 + 2.0 * 0.5) / 3.0, math.sqrt(2.0 / 3.0), lo, hi, np.zeros(64))
        assert np.allclose(lm, lm1 + lm2, rtol=1e-12, atol=0.0)

    def test_sine_tilted_pdf_normalizes(self):
        for width in (1.0, 3.0):
            for g in (-8.0, 0.02, 3.0, 40.0):
                x = np.linspace(1e-9, width - 1e-9, 20001)
                pdf = np.exp(_sine_tilted_log_pdf(width, np.full_like(x, g), x))
                total = np.trapezoid(pdf, x)
                assert abs(total - 1.0) < 1e-3, (width, g, total)

    def test_sine_tilted_mirror_symmetry(self):
        x = np.linspace(0.05, 1.95, 64)
        lp_pos = _sine_tilted_log_pdf(2.0, np.full_like(x, 4.0), x)
        lp_neg = _sine_tilted_log_pdf(2.0, np.full_like(x, -4.0), 2.0 - x)
        assert np.allclose(lp_pos, lp_neg, rtol=1e-12)

    def test_sine_tilted_samples_match_pdf_mean(self):
        rng = np.random.default_rng(3)
        g = np.full(200000, 5.0)
        x = _sine_tilted_height(2.0, g, rng)
        assert np.all((x > 0.0) & (x < 2.0))
        grid = np.linspace(1e-9, 2.0 - 1e-9, 40001)
        pdf = np.exp(_sine_tilted_log_pdf(2.0, np.full_like(grid, 5.0), grid))
        target = np.trapezoid(grid * pdf, grid)
        assert abs(x.mean() - target) < 4.0 * x.std() / math.sqrt(x.size)

    # b = pi / width: the rejection switches envelopes at |g| = b
    @pytest.mark.parametrize("g_over_b", [0.0, 0.98, 1.02, 20.0, -1.5])
    def test_sine_tilted_law_matches_the_closed_form_cdf(self, g_over_b):
        # KS test at level 1e-3: a correct sampler fails a case with probability
        # 1e-3 over seeds, the five cases together 0.5 %; the seed is fixed
        from scipy.stats import kstest

        width, n = 2.0, 20_000
        b = math.pi / width
        g = g_over_b * b
        x = _sine_tilted_height(width, np.full(n, g), np.random.default_rng(70))
        assert np.all((x > 0.0) & (x < width))
        gg = abs(g)

        def cdf(y):
            y = width - y if g < 0 else y
            f = b - np.exp(-gg * y) * (b * np.cos(b * y) + gg * np.sin(b * y))
            f /= b * (1.0 + np.exp(-gg * width))
            return 1.0 - f if g < 0 else f

        assert kstest(x, cdf).pvalue > 1e-3

    def test_sine_tilted_rejects_proposals_at_the_edges(self):
        # all-zero uniforms put every proposal at x = 0, where the density
        # vanishes: that whole round is rejected and the next one is a fresh
        # generator's first round
        class ZerosFirst:
            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            def random(self, size):
                self.calls += 1
                return np.zeros(size) if self.calls == 1 else self.rng.random(size)

        width = 2.0
        b = math.pi / width
        g = np.tile(b * np.array([0.0, 0.5, 1.0, 20.0, 1e6, -0.5, -3.0]), 300)
        rng = ZerosFirst(8)
        x = _sine_tilted_height(width, g, rng)
        assert rng.calls > 2
        assert np.all((x > 0.0) & (x < width))
        assert np.array_equal(x, _sine_tilted_height(width, g, np.random.default_rng(8)))

    def test_gamma_tilted_log_pdf_normalizes(self):
        x = np.linspace(1e-9, 60.0, 400001)
        pdf = np.exp(_gamma_tilted_log_pdf(np.full_like(x, 0.8), x))
        assert abs(np.trapezoid(pdf, x) - 1.0) < 1e-6

    @given(
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=64),
    )
    def test_shard_counts_partition(self, n, shards):
        counts = _shard_counts(n, shards)
        assert sum(counts) == n
        assert all(c >= 0 for c in counts)
        assert max(counts) - min(counts) <= 1

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=40),
        st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=40),
        st.lists(st.floats(min_value=-700.0, max_value=700.0), min_size=1, max_size=40),
    )
    def test_log_moments_merge_associative(self, xs, ys, zs):
        a = _LogMoments.from_logs(np.array(xs))
        b = _LogMoments.from_logs(np.array(ys))
        c = _LogMoments.from_logs(np.array(zs))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert math.isclose(left.log_sum, right.log_sum, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(left.log_sum_sq, right.log_sum_sq, rel_tol=1e-12, abs_tol=1e-12)
        assert left.n == right.n
        assert 0.0 < left.ess() <= left.n + 1e-9
