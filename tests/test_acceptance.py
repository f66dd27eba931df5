"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test states its tolerance inline and asserts its own wall-clock
budget, so `pytest -v` gives a single pass/fail line per criterion.
Monte Carlo comparisons run at frozen seeds; "3 SE" always means three
combined standard errors of the quantities being compared.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gibbslines.bridge_analytics import (
    barrier_tail_mc,
    bridge_max_tail,
    bridge_min_tail,
    sample_bridge_minima,
)
from gibbslines.core import (
    MINUS_INF,
    PLUS_INF,
    BoundaryData,
    Grid,
    OrderedHamiltonian,
    ScaledExpHamiltonian,
    constant_curve,
)
from gibbslines.experiments import (
    SeparationConfig,
    run_fluctuation_experiment,
    run_ordering_experiment,
    run_separation_experiment,
)
from gibbslines.gibbs import (
    ConditionalSpec,
    coupled_scan_batch,
    estimate_Z,
    heat_bath_scan_batch,
    sample_conditional,
    sample_conditional_batch,
)
from gibbslines.scaling import ScalingParams

from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / "results"


# ---------------------------------------------------------------------------
# criterion 1 + 10: closed-form barrier tails vs corrected Monte Carlo


def _tail_cells(grid_n: int, seed: int):
    """Corrected-MC estimates for a 5x5x3 sweep of (x, y, barrier) cells.

    Barriers are placed relative to the endpoint levels so every cell has
    a probability strictly inside (0, 1): two below the endpoints for the
    minimum tail, one above them for the maximum tail.
    """
    levels = [-0.75, -0.3, 0.0, 0.4, 0.9]
    cells = []
    i = 0
    for x in levels:
        for y in levels:
            layout = [
                ("min", min(x, y) - 0.25),
                ("min", min(x, y) - 0.7),
                ("max", max(x, y) + 0.5),
            ]
            for side, beta in layout:
                exact = (
                    bridge_min_tail(0.0, 1.0, x, y, beta)
                    if side == "min"
                    else bridge_max_tail(0.0, 1.0, x, y, beta)
                )
                mc = barrier_tail_mc(
                    0.0, 1.0, x, y, beta,
                    n=100_000, seed=seed + i, side=side, grid_n=grid_n,
                )
                cells.append((f"{side} x={x} y={y} beta={beta:.2f}", exact, mc))
                i += 1
    return cells


@pytest.fixture(scope="module")
def tail_cells_base():
    t0 = time.perf_counter()
    cells = _tail_cells(grid_n=65, seed=600)
    return cells, time.perf_counter() - t0


def test_criterion_01_closed_form_tails_match_corrected_mc(tail_cells_base):
    cells, elapsed = tail_cells_base
    assert len(cells) == 75
    for label, exact, mc in cells:
        tol = 3.0 * mc.stderr + 1e-12
        assert abs(exact - mc.mean) <= tol, (
            f"{label}: closed form {exact:.6g} vs MC {mc.mean:.6g} "
            f"+- {mc.stderr:.2g} (tolerance {tol:.2g})"
        )
    assert elapsed < 60.0, f"tail sweep took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# criterion 2 + 10: rejection sampler composes to the truncated-minimum law


def _accepted_minima(grid_n: int, n_accept: int, seed: int):
    """Continuum minima of hard-wall accepted bridges, with their KS p-value
    against the exactly truncated minimum law."""
    x = y = 0.8
    beta = 0.0
    grid = Grid(0.0, 1.0, grid_n)
    wall = constant_curve(grid, beta)
    bd = BoundaryData(np.array([x]), np.array([y]), PLUS_INF, wall)
    spec = ConditionalSpec(
        k1=1, k2=1, interval=(0.0, 1.0), boundary=bd, hamiltonian=OrderedHamiltonian()
    )
    rng = np.random.default_rng(seed)
    curves, _ = sample_conditional_batch(spec, grid, rng, n_accept)
    minima = sample_bridge_minima(curves[:, 0], grid.spacing, rng, barrier=beta)

    p_beta = math.exp(-2.0 * (x - beta) * (y - beta))

    def trunc_cdf(m):
        m = np.asarray(m, dtype=np.float64)
        pm = np.exp(np.minimum(0.0, -2.0 * (x - m) * (y - m)))
        return np.clip((pm - p_beta) / (1.0 - p_beta), 0.0, 1.0)

    ks_p = float(stats.kstest(minima, trunc_cdf).pvalue)
    mean = float(minima.mean())
    se = float(minima.std(ddof=1) / math.sqrt(n_accept))
    return minima, ks_p, mean, se


@pytest.fixture(scope="module")
def accepted_minima_base():
    t0 = time.perf_counter()
    out = _accepted_minima(grid_n=65, n_accept=10_000, seed=901)
    return out, time.perf_counter() - t0


def test_criterion_02_accepted_minimum_matches_truncated_law(accepted_minima_base):
    (minima, ks_p, _, _), elapsed = accepted_minima_base
    assert len(minima) == 10_000
    assert np.all(minima > 0.0), "accepted paths must stay above the wall"
    assert ks_p > 0.001, f"KS p-value {ks_p:.5f} against truncated minimum law"
    assert elapsed < 60.0, f"rejection sampling took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# criterion 3 + 10: normalizer estimate vs reciprocal mean acceptance index


def _normalizer_ladder(grid_n: int, seed: int):
    """Five single-curve blocks whose normalizers cover roughly 0.05..0.98.

    Three use the hard wall at 0 with both endpoints at height d, where the
    survival normalizer is exactly 1 - exp(-2 d^2); two use the soft penalty
    at scale t=8 over a constant floor. Returns per-spec records with the
    direct weight-mean estimate and the reciprocal mean attempt count.
    """
    grid = Grid(0.0, 1.0, grid_n)
    hard_d = [0.16018891, 0.42227000, 1.39859000]
    soft_off = [-0.3, -1.0]
    specs = []
    for d in hard_d:
        wall = constant_curve(grid, 0.0)
        bd = BoundaryData(np.array([d]), np.array([d]), PLUS_INF, wall)
        specs.append(
            (
                ConditionalSpec(
                    k1=1, k2=1, interval=(0.0, 1.0), boundary=bd,
                    hamiltonian=OrderedHamiltonian(),
                ),
                1.0 - math.exp(-2.0 * d * d),
            )
        )
    for off in soft_off:
        wall = constant_curve(grid, off)
        bd = BoundaryData(np.array([0.0]), np.array([0.0]), PLUS_INF, wall)
        specs.append(
            (
                ConditionalSpec(
                    k1=1, k2=1, interval=(0.0, 1.0), boundary=bd,
                    hamiltonian=ScaledExpHamiltonian(8.0),
                ),
                None,
            )
        )

    records = []
    n_rep = 3000
    for j, (spec, z_exact) in enumerate(specs):
        z_est = estimate_Z(spec, grid, n=20_000, seed=seed + 7 * j)
        rng = np.random.default_rng(seed + 7 * j + 3)
        attempts = np.empty(n_rep)
        for i in range(n_rep):
            _, att = sample_conditional(spec, grid, rng)
            attempts[i] = att
        abar = float(attempts.mean())
        se_abar = float(attempts.std(ddof=1) / math.sqrt(n_rep))
        z_rec = 1.0 / abar
        se_rec = se_abar / (abar * abar)
        records.append(
            {
                "z_exact": z_exact,
                "z_mc": float(z_est.mean),
                "se_mc": float(z_est.stderr),
                "z_rec": z_rec,
                "se_rec": se_rec,
            }
        )
    return records


@pytest.fixture(scope="module")
def normalizer_ladder_base():
    t0 = time.perf_counter()
    records = _normalizer_ladder(grid_n=65, seed=902)
    return records, time.perf_counter() - t0


def test_criterion_03_normalizer_agrees_with_acceptance_rate(normalizer_ladder_base):
    records, elapsed = normalizer_ladder_base
    assert len(records) == 5
    spans = sorted(r["z_mc"] for r in records)
    assert spans[0] < 0.1 and spans[-1] > 0.9, f"ladder should span wide: {spans}"
    for r in records:
        tol = 3.0 * math.hypot(r["se_mc"], r["se_rec"])
        assert abs(r["z_mc"] - r["z_rec"]) <= tol, (
            f"weight-mean {r['z_mc']:.5f}+-{r['se_mc']:.2g} vs reciprocal "
            f"attempts {r['z_rec']:.5f}+-{r['se_rec']:.2g} (tolerance {tol:.2g})"
        )
        if r["z_exact"] is not None:
            tol2 = 3.0 * r["se_mc"] + 1e-12
            assert abs(r["z_mc"] - r["z_exact"]) <= tol2, (
                f"weight-mean {r['z_mc']:.5f} vs exact {r['z_exact']:.5f}"
            )
    assert elapsed < 120.0, f"normalizer ladder took {elapsed:.1f}s, budget 120s"


# ---------------------------------------------------------------------------
# criterion 4: monotone coupling keeps order and leaves marginals untouched


def test_criterion_04_coupled_sweeps_preserve_order_and_marginals():
    t0 = time.perf_counter()
    n = 65
    grid = Grid(0.0, 1.0, n)
    lo_levels = np.array([0.5, -0.5])
    hi_levels = np.array([1.0, 0.0])
    outer_lo = BoundaryData(lo_levels, lo_levels, PLUS_INF, MINUS_INF)
    outer_hi = BoundaryData(hi_levels, hi_levels, PLUS_INF, MINUS_INF)

    # 50 coupled pairs x 100 scans x 2 penalty scales = 10^4 coupled sweeps.
    violations = 0
    for t in (1.0, 100.0):
        h = ScaledExpHamiltonian(t)
        rng = np.random.default_rng(910 + int(t))
        lo = np.empty((50, 2, n))
        hi = np.empty((50, 2, n))
        lo[:, 0, :], lo[:, 1, :] = lo_levels[0], lo_levels[1]
        hi[:, 0, :], hi[:, 1, :] = hi_levels[0], hi_levels[1]
        for _ in range(100):
            u = rng.random((50, 2, n - 2))
            lo, hi = coupled_scan_batch(lo, hi, grid, outer_lo, outer_hi, h, u)
            violations += int(np.sum(lo > hi))
    assert violations == 0, f"{violations} pointwise order violations"

    # Marginal correctness at t=1: each coupled component must match an
    # independently driven plain heat-bath chain started from the same state.
    h1 = ScaledExpHamiltonian(1.0)
    B, sweeps = 1000, 4
    lo = np.empty((B, 2, n))
    hi = np.empty((B, 2, n))
    lo[:, 0, :], lo[:, 1, :] = lo_levels[0], lo_levels[1]
    hi[:, 0, :], hi[:, 1, :] = hi_levels[0], hi_levels[1]
    plain_lo, plain_hi = lo.copy(), hi.copy()
    rng_c = np.random.default_rng(920)
    rng_a = np.random.default_rng(921)
    rng_b = np.random.default_rng(922)
    for _ in range(sweeps):
        lo, hi = coupled_scan_batch(
            lo, hi, grid, outer_lo, outer_hi, h1, rng_c.random((B, 2, n - 2))
        )
        plain_lo = heat_bath_scan_batch(plain_lo, grid, outer_lo, h1, rng_a.random((B, 2, n - 2)))
        plain_hi = heat_bath_scan_batch(plain_hi, grid, outer_hi, h1, rng_b.random((B, 2, n - 2)))
    mid = n // 2
    p_lo = float(stats.ks_2samp(lo[:, 0, mid], plain_lo[:, 0, mid]).pvalue)
    p_hi = float(stats.ks_2samp(hi[:, 0, mid], plain_hi[:, 0, mid]).pvalue)
    assert p_lo > 0.001, f"lower component marginal KS p={p_lo:.5f}"
    assert p_hi > 0.001, f"upper component marginal KS p={p_hi:.5f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"coupling checks took {elapsed:.1f}s, budget 300s"


# ---------------------------------------------------------------------------
# criterion 5: heat-bath sweeps leave the exact conditional law invariant


def test_criterion_05_heat_bath_preserves_conditional_law():
    t0 = time.perf_counter()
    n = 17
    grid = Grid(-1.0, 1.0, n)
    levels = np.array([1.5, -1.5])
    bd = BoundaryData(levels, levels, PLUS_INF, MINUS_INF)
    spec = ConditionalSpec(
        k1=1, k2=2, interval=(-1.0, 1.0), boundary=bd,
        hamiltonian=ScaledExpHamiltonian(8.0),
    )
    B = 10_000

    def exact_batch(seed):
        return sample_conditional_batch(spec, grid, np.random.default_rng(seed), B)[0]

    swept = exact_batch(930)
    rng_u = np.random.default_rng(931)
    for _ in range(5):
        swept = heat_bath_scan_batch(
            swept, grid, bd, spec.hamiltonian, rng_u.random((B, 2, n - 2))
        )
    fresh = exact_batch(932)

    mid = n // 2
    ks = stats.ks_2samp(swept[:, 0, mid], fresh[:, 0, mid])
    assert ks.pvalue > 0.001, (
        f"top-curve midpoint after 5 sweeps drifted: KS p={ks.pvalue:.5f}, "
        f"stat={ks.statistic:.4f}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"invariance check took {elapsed:.1f}s, budget 300s"


# ---------------------------------------------------------------------------
# criterion 6: resample-then-scale equals scale-then-resample


def test_criterion_06_resample_and_scale_commute():
    t0 = time.perf_counter()
    t = 8.0
    height = t ** (1.0 / 3.0)
    spatial = t ** (2.0 / 3.0)
    n = 33
    n_draw = 10_000

    # Unscaled frame: two curves under exp(t^(1/3) x) on [-1, 1].
    grid_u = Grid(-1.0, 1.0, n)
    x_f = np.array([1.5, -1.5])
    spec_u = ConditionalSpec(
        k1=1, k2=2, interval=(-1.0, 1.0),
        boundary=BoundaryData(x_f, x_f, PLUS_INF, MINUS_INF),
        hamiltonian=ScaledExpHamiltonian(t),
    )

    # Scaled frame: the same block after the change of variables. Heights
    # divide by t^(1/3) (plus the parabolic offset and per-curve shift), space
    # divides by t^(2/3), and the pushforward penalty picks up rate t^(2/3)
    # and amplitude spatial^(1 - t^(1/3)) from du = spatial dv. Since
    # amplitude * exp(rate * gap) = exp(rate * (gap + ln(amplitude) / rate)),
    # that penalty is ScaledExpHamiltonian(t^2) with the lower curve's pins
    # shifted by ln(amplitude) / rate; the top curve's law is unchanged.
    shifts = np.array([ScalingParams(t, 1).index_shift, ScalingParams(t, 2).index_shift])
    x_g = (x_f + t / 24.0) / height + shifts
    grid_s = Grid(-1.0 / spatial, 1.0 / spatial, n)
    h_s = ScaledExpHamiltonian(t * t)
    x_p = x_g + np.array([0.0, math.log(spatial ** (1.0 - height)) / h_s.rate])
    spec_s = ConditionalSpec(
        k1=1, k2=2, interval=(grid_s.a, grid_s.b),
        boundary=BoundaryData(x_p, x_p, PLUS_INF, MINUS_INF),
        hamiltonian=h_s,
    )

    def midpoints(spec, grid, seed):
        curves, _ = sample_conditional_batch(spec, grid, np.random.default_rng(seed), n_draw)
        return curves[:, 0, n // 2]

    mid_u = midpoints(spec_u, grid_u, 940)
    mid_s = midpoints(spec_s, grid_s, 941)
    mapped = (mid_u + t / 24.0) / height + shifts[0]

    ks = stats.ks_2samp(mapped, mid_s)
    assert ks.pvalue > 0.001, (
        f"scaled midpoint laws differ: KS p={ks.pvalue:.5f}, stat={ks.statistic:.4f}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"commutation check took {elapsed:.1f}s, budget 120s"


# ---------------------------------------------------------------------------
# criterion 7: separation probabilities decay no faster than a quadratic shape


def test_criterion_07_separation_decay_dominated_by_quadratic():
    t0 = time.perf_counter()
    m_values = [1.0, 1.5, 2.0]
    rows = []
    for m in m_values:
        cfg = SeparationConfig(k=2, L=1.0, t=100.0, M=m, n_samples=100_000, seed=5)
        rep = run_separation_experiment(cfg)
        p = rep.estimate("separated_endpoints_prob")
        ess = rep.estimate("ess_separated_endpoints").mean
        assert p.mean > 0.0, f"M={m}: separation estimate underflowed"
        assert ess > 100.0, f"M={m}: effective sample size {ess:.1f}"
        rows.append((m, p.mean, math.log(p.mean)))

    probs = [p for _, p, _ in rows]
    assert probs[0] > probs[1] > probs[2], f"not strictly decreasing: {probs}"

    # One fitted constant must lower-bound every point: log p >= -D (M^2 + 1).
    d_fit = max(-lp / (m * m + 1.0) for m, _, lp in rows)
    for m, _, lp in rows:
        assert lp >= -d_fit * (m * m + 1.0) - 1e-9

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "separation_shape.txt"
    sweep = load_script("separation_sweep")
    _, table = sweep.shape_table([(m, p) for m, p, _ in rows], 2, 1.0, 100.0, 100_000, 5)
    out.write_text(table)
    assert out.exists()

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"separation sweep took {elapsed:.1f}s, budget 600s"


# ---------------------------------------------------------------------------
# criterion 8: near-touch probability nonincreasing as the penalty hardens


def test_criterion_08_near_touch_monotone_in_penalty_scale():
    t0 = time.perf_counter()
    rep = run_ordering_experiment(
        k=1, t_list=[1.0, 8.0, 64.0], gap=0.5, rho=0.1, n_samples=2500, seed=41
    )
    ok, detail = rep.check("near_touch_nonincreasing")
    assert ok, detail

    probs = [rep.estimate(f"near_touch_prob[t={t:g}]") for t in (1, 8, 64)]
    for a, b in zip(probs, probs[1:]):
        slack = 3.0 * math.hypot(a.stderr, b.stderr)
        assert b.mean <= a.mean + slack, (
            f"near-touch probability rose {a.mean:.4f} -> {b.mean:.4f} "
            f"beyond slack {slack:.4f}"
        )
    # The overall drop should be decisive, not merely within noise.
    total_slack = 3.0 * math.hypot(probs[0].stderr, probs[-1].stderr)
    assert probs[0].mean - probs[-1].mean > total_slack, (
        f"no decisive decay: {probs[0].mean:.4f} -> {probs[-1].mean:.4f}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"ordering sweep took {elapsed:.1f}s, budget 600s"


# ---------------------------------------------------------------------------
# criterion 9: fluctuation probability bounded by boundary term plus decay


def test_criterion_09_fluctuation_bound_holds_at_each_threshold():
    t0 = time.perf_counter()
    rep = run_fluctuation_experiment(
        d=0.25, K_list=[1.0, 2.0, 3.0], boundary_box=2.0, n_samples=1500, seed=42
    )
    for k in (1, 2, 3):
        ok, detail = rep.check(f"pipeline_bound[K={k}]")
        assert ok, detail
        p_bf = rep.estimate(f"big_fluctuation_prob[K={k}]")
        p_bad = rep.estimate(f"bad_boundary_prob[K={k}]")
        decay = rep.estimate(f"decay_term[K={k}]").mean
        slack = 3.0 * math.hypot(p_bf.stderr, p_bad.stderr)
        assert p_bf.mean <= p_bad.mean + decay + slack + 1e-12, (
            f"K={k}: {p_bf.mean:.4g} > {p_bad.mean:.4g} + {decay:.4g} + {slack:.4g}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"fluctuation check took {elapsed:.1f}s, budget 300s"


# ---------------------------------------------------------------------------
# criterion 10: doubling the grid moves no estimate beyond combined noise


def test_criterion_10_estimates_stable_under_grid_refinement(
    tail_cells_base, accepted_minima_base, normalizer_ladder_base
):
    t0 = time.perf_counter()
    cells_lo, _ = tail_cells_base
    (_, _, min_mean_lo, min_se_lo), _ = accepted_minima_base
    ladder_lo, _ = normalizer_ladder_base

    cells_hi = _tail_cells(grid_n=129, seed=1900)
    for (label, _, mc_lo), (_, _, mc_hi) in zip(cells_lo, cells_hi):
        tol = 3.0 * math.hypot(mc_lo.stderr, mc_hi.stderr) + 1e-12
        assert abs(mc_lo.mean - mc_hi.mean) <= tol, (
            f"{label}: {mc_lo.mean:.6g} (n=65) vs {mc_hi.mean:.6g} (n=129), "
            f"tolerance {tol:.2g}"
        )

    _, ks_p_hi, min_mean_hi, min_se_hi = _accepted_minima(
        grid_n=129, n_accept=10_000, seed=1901
    )
    assert ks_p_hi > 0.001, f"refined-grid KS p={ks_p_hi:.5f}"
    tol = 3.0 * math.hypot(min_se_lo, min_se_hi)
    assert abs(min_mean_lo - min_mean_hi) <= tol, (
        f"mean accepted minimum {min_mean_lo:.5f} vs {min_mean_hi:.5f}, "
        f"tolerance {tol:.2g}"
    )

    ladder_hi = _normalizer_ladder(grid_n=129, seed=1902)
    for r_lo, r_hi in zip(ladder_lo, ladder_hi):
        tol = 3.0 * math.hypot(r_lo["se_mc"], r_hi["se_mc"])
        assert abs(r_lo["z_mc"] - r_hi["z_mc"]) <= tol, (
            f"weight-mean moved {r_lo['z_mc']:.5f} -> {r_hi['z_mc']:.5f}"
        )
        tol = 3.0 * math.hypot(r_lo["se_rec"], r_hi["se_rec"])
        assert abs(r_lo["z_rec"] - r_hi["z_rec"]) <= tol, (
            f"reciprocal attempts moved {r_lo['z_rec']:.5f} -> {r_hi['z_rec']:.5f}"
        )

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"refinement sweep took {elapsed:.1f}s, budget 600s"
