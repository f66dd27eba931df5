import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbslines.core import LineEnsemble, McEstimate
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
    _channel_log_factor,
    _gamma_tilted_log_pdf,
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
from gibbslines.gibbs import _truncated_gaussian, log_boltzmann_weight


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

    def test_band_geometry(self):
        cfg = SeparationConfig(k=2, L=1.0, t=100.0, M=1.5, n_samples=100, seed=0)
        assert cfg.band(1) == (7 * 1.5, 9 * 1.5)
        assert cfg.band(2) == (3 * 1.5, 5 * 1.5)
        assert cfg.raise_level(1) == 8 * 1.5
        # nested intervals: one per curve plus the window
        assert list(cfg.left_ends()) == [-3.0, -2.0, -1.0]
        assert list(cfg.right_ends()) == [3.0, 2.0, 1.0]

    def test_grid_contains_interval_endpoints(self):
        cfg = SeparationConfig(k=3, L=1.0, t=10.0, M=2.0, n_samples=10, seed=1)
        grid = cfg.build_grid()
        for p in list(cfg.left_ends()) + list(cfg.right_ends()):
            assert grid.index_of(p) >= 0


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

    def test_thread_count_validated(self):
        cfg = SeparationConfig(k=1, L=1.0, t=10.0, M=1.0, n_samples=100, seed=0)
        with pytest.raises(ValidationError):
            run_separation_experiment(cfg, threads=0)


class TestSeparationFrame:
    def test_raised_factor_is_a_floor_on_the_inner_interval(self):
        cfg = SeparationConfig(k=3, L=1.0, t=100.0, M=1.0, n_samples=10, seed=0)
        frame = _SeparationFrame(cfg)
        rng = np.random.default_rng(21)
        m, n = 400, frame.grid.n
        # steps of 0.5 around each level, so many values sit exactly on it
        steps = rng.choice([-1.0, 0.0, 1.0, 2.0], p=[0.002, 0.3, 0.3, 0.398], size=(m, cfg.k, n))
        batch = frame.raise_lv[None, :, None] + 0.5 * steps
        left, right = cfg.left_ends(), cfg.right_ends()
        expected = np.zeros(m)
        for j in range(cfg.k):
            i0, i1 = frame.grid.index_of(left[j + 1]), frame.grid.index_of(right[j + 1])
            batch[:, j, :i0] -= 50.0  # outside the inner interval nothing is tested
            batch[:, j, i1 + 1 :] -= 50.0
            ok = np.all(batch[:, j, i0 : i1 + 1] >= frame.raise_lv[j], axis=1)
            expected += np.where(ok, 0.0, -np.inf)
        got = _channel_log_factor(frame, batch, frame.raise_lv, np.full(cfg.k, np.inf))
        assert np.array_equal(got, expected)
        assert 0 < np.sum(got == 0.0) < m

    @pytest.mark.parametrize("k, t", [(1, 1000.0), (2, 100.0), (3, 8.0)])
    def test_window_weights_match_per_sample_weights(self, k, t):
        frame = _SeparationFrame(SeparationConfig(k=k, L=1.0, t=t, M=1.0, n_samples=10, seed=0))
        batch, anchors, _ = _band_proposal_batch(frame, 40, np.random.default_rng(k))
        window = batch[:, :, frame.iwl : frame.iwr + 1]
        expected = [
            log_boltzmann_weight(
                LineEnsemble(frame.win_grid, window[i]),
                frame.window_spec(anchors[i, :, 0], anchors[i, :, 1]),
            )
            for i in range(len(window))
        ]
        got = frame.window_log_weights(window)
        assert np.array_equal(got, expected)
        assert np.unique(got).size > 1


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
        assert rep.check("threshold_nesting_samplewise")[0]

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
        x = rng.standard_normal(m)
        return x, m, _LogMoments.from_logs(x)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_merge_matches_serial_left_fold(self, threads):
        n, seed = 10, 17
        counts = _shard_counts(n, threads)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(counts))]
        # serial evaluation of the same shard generators; threads > 1 runs the pool
        parts = [self._toy_shard(m, rng) for m, rng in zip(counts, rngs)]
        x, total, logmom = _run_shards(self._toy_shard, n, seed, threads)
        # arrays in shard order, ints summed, accumulators folded left
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
        x = _sine_tilted_height(2.0, g, rng.random(200000))
        assert np.all((x > 0.0) & (x < 2.0))
        grid = np.linspace(1e-9, 2.0 - 1e-9, 40001)
        pdf = np.exp(_sine_tilted_log_pdf(2.0, np.full_like(grid, 5.0), grid))
        target = np.trapezoid(grid * pdf, grid)
        assert abs(x.mean() - target) < 4.0 * x.std() / math.sqrt(x.size)

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
