"""Desk-scale statistical experiments on reweighted bridge ensembles.

Each runner assembles a seeded Monte Carlo study around one quantitative
claim about softly ordered bridge ensembles and returns an ExperimentReport:
point estimates with standard errors and named pass/fail checks. Estimates
of reweighted-measure probabilities use self-normalized importance sampling
from the free bridge law; the rare-event numerators come from proposals whose
anchor values are drawn from exact bridge conditionals truncated to the event
bands by gibbs._truncated_gaussian, the heat bath's hard-wall draw, which
returns each band's log Gaussian mass with the draw. Every density ratio is
thus a product of Gaussian band masses and stays available in closed form.
Effective-sample-size diagnostics are reported on every such estimate and
degenerate runs raise instead of reporting quietly.

All runners are bit-reproducible for a fixed (config, seed, threads) triple.
Every runner draws its samples through _run_shards(fn, n, seed, threads): the
budget n is split over `threads` shards, shard i calls fn(m, rng) with the
i-th generator of SeedSequence(seed).spawn, and the shards' result tuples
merge field by field in shard order (arrays concatenate, ints add, log-weight
accumulators fold left), so the merged numbers do not depend on scheduling
order. Plain means come from McEstimate.from_samples on the merged arrays.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .bridge_analytics import _sliding_range_sup, corridor_survival, fit_decay_constant
from .bridge_sampler import bridge_batch
from .core import (
    BoundaryData,
    Curve,
    Grid,
    McEstimate,
    MINUS_INF,
    PLUS_INF,
    ScaledExpHamiltonian,
)
from .errors import (
    EffectiveSampleSizeTooSmall,
    MixingDiagnosticFailure,
    ValidationError,
    ZeroHits,
)
from .gibbs import (
    ConditionalSpec,
    _log_weight_batch,
    _prepared_slice,
    _truncated_gaussian,
    estimate_Z,
    sample_conditional_batch,
)

DESK_MAX_CURVES = 4
DESK_MAX_T = 1.0e3
DESK_MAX_GRID = 2**13
DESK_MAX_SAMPLES = 10**6
ESS_THRESHOLD = 100.0
DRAW_CHUNK = 2**12  # exact conditional draws held in memory at once

__all__ = [
    "DESK_MAX_CURVES",
    "DESK_MAX_GRID",
    "DESK_MAX_SAMPLES",
    "DESK_MAX_T",
    "ESS_THRESHOLD",
    "ExperimentReport",
    "SeparationConfig",
    "estimate_excursion_probability",
    "run_excursion_experiment",
    "run_fluctuation_experiment",
    "run_ordering_experiment",
    "run_separation_experiment",
    "run_z_lowerbound_experiment",
]


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class ExperimentReport:
    """Outcome of one experiment run: estimates and named checks."""

    name: str
    estimates: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def estimate(self, label: str) -> McEstimate:
        for lab, est in self.estimates:
            if lab == label:
                return est
        raise KeyError(f"no estimate labeled {label!r} in report {self.name!r}")

    def check(self, label: str) -> tuple[bool, str]:
        for lab, ok, detail in self.checks:
            if lab == label:
                return ok, detail
        raise KeyError(f"no check labeled {label!r} in report {self.name!r}")


def _const_estimate(value: float, n: int, seed: int) -> McEstimate:
    # deterministic quantity carried in estimate rows for uniform reporting
    return McEstimate(mean=float(value), stderr=0.0, n_samples=n, seed=seed)


# ---------------------------------------------------------------------------
# mergeable importance-weight statistics


@dataclass
class _LogMoments:
    """Log-domain running sums for importance weights spanning many decades."""

    log_sum: float = -np.inf
    log_sum_sq: float = -np.inf
    n: int = 0

    @classmethod
    def from_logs(cls, log_w: np.ndarray) -> "_LogMoments":
        lw = np.asarray(log_w, dtype=np.float64)
        return cls(
            log_sum=float(logsumexp(lw)),
            log_sum_sq=float(logsumexp(2.0 * lw)),
            n=lw.size,
        )

    def merge(self, other: "_LogMoments") -> "_LogMoments":
        return _LogMoments(
            log_sum=float(np.logaddexp(self.log_sum, other.log_sum)),
            log_sum_sq=float(np.logaddexp(self.log_sum_sq, other.log_sum_sq)),
            n=self.n + other.n,
        )

    def log_mean(self) -> float:
        return self.log_sum - math.log(self.n)

    def rel_stderr(self) -> float:
        """Standard error of the mean divided by the mean, scale-free."""
        if self.n < 2 or self.log_sum == -np.inf:
            return 0.0
        # E[w^2]/E[w]^2 - 1, computed without leaving the log domain
        rel_var = math.expm1(self.log_sum_sq - math.log(self.n) - 2.0 * self.log_mean())
        rel_var = max(rel_var, 0.0) * self.n / (self.n - 1)
        return math.sqrt(rel_var / self.n)

    def ess(self) -> float:
        if self.log_sum == -np.inf:
            return 0.0
        return math.exp(2.0 * self.log_sum - self.log_sum_sq)


def _ratio_estimate(num: _LogMoments, den: _LogMoments, seed: int) -> McEstimate:
    """Self-normalized IS ratio E_q[num]/E_q'[den] with delta-method stderr."""
    if num.log_sum == -np.inf:
        return McEstimate(mean=0.0, stderr=0.0, n_samples=num.n, seed=seed)
    p = math.exp(num.log_mean() - den.log_mean())
    rel = math.hypot(num.rel_stderr(), den.rel_stderr())
    return McEstimate(mean=p, stderr=p * rel, n_samples=num.n, seed=seed)


def _require_ess(moments: dict):
    """Raise for the first label whose ESS is below ESS_THRESHOLD; the error
    carries every label's ESS, computed before any raises."""
    all_ess = {label: lm.ess() for label, lm in moments.items()}
    for label, ess in all_ess.items():
        if ess < ESS_THRESHOLD:
            raise EffectiveSampleSizeTooSmall(ess, ESS_THRESHOLD, label, all_ess)


# ---------------------------------------------------------------------------
# shard fan-out


def _shard_counts(n: int, shards: int) -> list[int]:
    shards = max(1, min(shards, n))
    base, extra = divmod(n, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _run_shards(fn, n: int, seed: int, threads: int) -> tuple:
    """Run fn(m, rng) on up to `threads` shards whose m sum to n; merge the tuples.

    Shard i uses the i-th generator of SeedSequence(seed).spawn and runs on a
    thread pool when threads > 1. The shards' tuples merge field by field in
    shard order: arrays concatenate, ints add, and _LogMoments accumulators
    fold left through their merge.
    """
    counts = _shard_counts(n, threads)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(counts))]
    if threads <= 1 or len(counts) <= 1:
        parts = [fn(m, rng) for m, rng in zip(counts, rngs)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(fn, counts, rngs))
    merged = []
    for values in zip(*parts):
        if isinstance(values[0], np.ndarray):
            merged.append(np.concatenate(values))
        elif isinstance(values[0], int):
            merged.append(sum(values))
        else:
            acc = values[0]
            for v in values[1:]:
                acc = acc.merge(v)
            merged.append(acc)
    return tuple(merged)


def _check_threads(threads: int):
    if not isinstance(threads, int) or not 1 <= threads <= 64:
        raise ValidationError([f"threads must be an integer in [1, 64], got {threads}"])


def _seed_problems(seed) -> list[str]:
    ok = isinstance(seed, (int, np.integer)) and seed >= 0  # as SeedSequence needs
    return [] if ok else [f"seed must be a nonnegative integer, got {seed}"]


# ---------------------------------------------------------------------------
# truncated Gaussian proposals


def _band_draw(mu, sd, lo: float, hi: float, rng, m: int):
    """m exact draws of N(mu, sd^2) truncated to [lo, hi]; returns (values, log_mass).

    A band whose Gaussian mass is not representable (log_mass not finite)
    would leave a proposal without a density ratio, so it raises instead.
    """
    v, log_mass = _truncated_gaussian(mu, sd, lo, hi, rng.random(m))
    if not np.all(np.isfinite(log_mass)):
        raise EffectiveSampleSizeTooSmall(0.0, ESS_THRESHOLD, "truncated proposal band")
    return v, log_mass


def _bridge_point(p0: float, v0, p: float, p1: float, v1):
    """Mean and standard deviation at p of a Brownian bridge from v0 at p0 to v1 at p1."""
    span = p1 - p0
    return ((p1 - p) * v0 + (p - p0) * v1) / span, math.sqrt((p - p0) * (p1 - p) / span)


def _anchor_pair(x, y, interval, p: float, q: float, lo: float, hi: float, m: int, rng):
    """Anchors at p < q on a bridge from x to y over `interval`, each drawn from
    its exact bridge conditional truncated to [lo, hi], p first; returns
    (v_p, v_q, summed log band mass)."""
    ell, r = interval
    v1, lm1 = _band_draw(*_bridge_point(ell, x, p, r, y), lo, hi, rng, m)
    v2, lm2 = _band_draw(*_bridge_point(p, v1, q, r, y), lo, hi, rng, m)
    return v1, v2, lm1 + lm2


# ---------------------------------------------------------------------------
# staggered-interval geometry shared by the separation runners


@dataclass(frozen=True)
class SeparationConfig:
    """Geometry and budget for the staggered nested-interval experiments.

    Curves j = 1..k live on intervals [-(k+2-j) L, (k+2-j) L]; the innermost
    interval (-L, L) is the resampling window whose complement carries the
    off-window Boltzmann weight. The endpoint band for curve j is
    [(4k-4j+3) M, (4k-4j+5) M], so lower-indexed curves sit higher.
    """

    k: int
    L: float
    t: float
    M: float
    n_samples: int
    seed: int

    def __post_init__(self):
        problems = []
        if not isinstance(self.k, int) or not 1 <= self.k <= DESK_MAX_CURVES:
            problems.append(f"k must be an integer in [1, {DESK_MAX_CURVES}], got {self.k}")
        if not 1.0 <= self.L < math.inf:
            problems.append(f"L must be finite and >= 1, got {self.L}")
        if not 1.0 <= self.t <= DESK_MAX_T:
            problems.append(f"t must lie in [1, {DESK_MAX_T:g}], got {self.t}")
        if not self.M < math.inf:
            problems.append(f"M must be finite, got {self.M}")
        elif 0 < self.L < math.inf and not self.M >= math.sqrt(self.L):
            problems.append(f"M must be >= sqrt(L) = {math.sqrt(self.L):.6g}, got {self.M}")
        if not isinstance(self.n_samples, int) or not 1 <= self.n_samples <= DESK_MAX_SAMPLES:
            problems.append(f"n_samples must be an integer in [1, {DESK_MAX_SAMPLES}], got {self.n_samples}")
        problems += _seed_problems(self.seed)
        if problems:
            raise ValidationError(problems)

    def left_ends(self) -> np.ndarray:
        j = np.arange(1, self.k + 2)
        return -(self.k + 2 - j) * self.L

    def right_ends(self) -> np.ndarray:
        return -self.left_ends()

    def band(self, j: int) -> tuple[float, float]:
        base = 4 * self.k - 4 * j
        return ((base + 3) * self.M, (base + 5) * self.M)

    def raise_level(self, j: int) -> float:
        return (4 * self.k - 4 * j + 4) * self.M

    def build_grid(self) -> Grid:
        per = int(math.ceil(32.0 * self.L))  # keeps at least 33 points per unit
        n = 2 * (self.k + 1) * per + 1
        if n > DESK_MAX_GRID:
            raise ValidationError([f"grid would need {n} points, above the cap {DESK_MAX_GRID}"])
        half = (self.k + 1) * self.L
        return Grid(-half, half, n)


class _SeparationFrame:
    """Precomputed grid indices, boundary rows, event levels and weight slices
    (off-window and full-window) for one config."""

    def __init__(self, cfg: SeparationConfig):
        self.cfg = cfg
        k, L, M = cfg.k, cfg.L, cfg.M
        self.grid = cfg.build_grid()
        self.pts = self.grid.points
        self.left = cfg.left_ends()
        self.right = cfg.right_ends()
        self.li = np.array([self.grid.index_of(float(v)) for v in self.left])
        self.ri = np.array([self.grid.index_of(float(v)) for v in self.right])
        self.iwl = int(self.li[-1])
        self.iwr = int(self.ri[-1])
        # staggered constant extensions, all inside [-M, M], strictly decreasing
        self.ext = np.array([M * (1.0 - 2.0 * j / k) for j in range(k)])
        self.floor_vals = np.clip(-0.5 * self.pts**2, -M, M)
        self.band_lo = np.array([cfg.band(j)[0] for j in range(1, k + 1)])
        self.band_hi = np.array([cfg.band(j)[1] for j in range(1, k + 1)])
        self.raise_lv = np.array([cfg.raise_level(j) for j in range(1, k + 1)])
        self.h = ScaledExpHamiltonian(cfg.t)
        boundary = BoundaryData(
            x_vec=self.ext,
            y_vec=self.ext,
            upper=PLUS_INF,
            lower=Curve(self.grid, self.floor_vals),
        )
        self.spec = ConditionalSpec(
            1,
            k,
            (float(self.left[0]), float(self.right[0])),
            boundary,
            self.h,
            window=(-L, L),
        )
        _, _, _, self._upper, self._lower, self._columns = _prepared_slice(self.spec, self.grid)
        self.win_grid = Grid(-L, L, self.iwr - self.iwl + 1)
        self.win_floor = Curve(self.win_grid, self.floor_vals[self.iwl : self.iwr + 1])
        # the window weight ignores entrance/exit values: any spec's slice serves
        win_spec = self.window_spec(self.ext, self.ext)
        _, _, *self._win_slice = _prepared_slice(win_spec, self.win_grid)

    def log_weights(self, batch: np.ndarray) -> np.ndarray:
        """Off-window log Boltzmann weight of each staggered sample."""
        return _log_weight_batch(batch, self.pts, self._upper, self._lower, self.h, self._columns)

    def window_log_weights(self, window: np.ndarray) -> np.ndarray:
        """Full-window log Boltzmann weight of each (k, window points) sample."""
        pts, upper, lower, columns = self._win_slice
        return _log_weight_batch(window, pts, upper, lower, self.h, columns)

    def base_batch(self, m: int) -> np.ndarray:
        return np.broadcast_to(self.ext[None, :, None], (m, self.cfg.k, self.grid.n)).copy()

    def window_spec(self, x_vec: np.ndarray, y_vec: np.ndarray) -> ConditionalSpec:
        bd = BoundaryData(x_vec=x_vec, y_vec=y_vec, upper=PLUS_INF, lower=self.win_floor)
        return ConditionalSpec(1, self.cfg.k, (-self.cfg.L, self.cfg.L), bd, self.h)


def _fill_bridges(frame: _SeparationFrame, batch: np.ndarray, j: int, anchors: dict, rng, m: int):
    """Fill curve j of the batch with bridges from its left pin through the
    anchors ({grid point: values}, in increasing point order) to its right pin."""
    c = float(frame.ext[j])
    stops = [(frame.grid.index_of(p), anchors[p]) for p in sorted(anchors)]
    stops.append((int(frame.ri[j]), c))
    i0, v0 = int(frame.li[j]), c
    for i1, v1 in stops:
        batch[:, j, i0 : i1 + 1] = bridge_batch(frame.pts[i0 : i1 + 1], v0, v1, rng, m)
        i0, v0 = i1, v1


def _staggered_free_batch(frame: _SeparationFrame, m: int, rng) -> np.ndarray:
    batch = frame.base_batch(m)
    for j in range(frame.cfg.k):
        _fill_bridges(frame, batch, j, {}, rng, m)
    return batch


def _band_proposal_batch(frame: _SeparationFrame, m: int, rng):
    """Free staggered draws conditioned to the endpoint bands at -L and L.

    The two window-edge values of each curve are drawn from exact bridge
    conditionals truncated to the curve's band; interiors stay free bridges.
    Returns (batch, anchors, log_mass) where log_mass is the summed log band
    mass, i.e. the log density ratio d(free)/d(proposal) on each sample.
    """
    cfg = frame.cfg
    L = cfg.L
    batch = frame.base_batch(m)
    anchors = np.empty((m, cfg.k, 2))
    log_mass = np.zeros(m)
    for j in range(cfg.k):
        c = float(frame.ext[j])
        lj, rj = float(frame.left[j]), float(frame.right[j])
        lo, hi = float(frame.band_lo[j]), float(frame.band_hi[j])
        v1, v2, lm = _anchor_pair(c, c, (lj, rj), -L, L, lo, hi, m, rng)
        log_mass += lm
        anchors[:, j, 0], anchors[:, j, 1] = v1, v2
        _fill_bridges(frame, batch, j, {-L: v1, L: v2}, rng, m)
    return batch, anchors, log_mass


def _channel_log_factor(frame: _SeparationFrame, batch: np.ndarray, lo_vec, hi_vec) -> np.ndarray:
    """Log indicator (0 or -inf) of the channel events on the grid skeleton.

    Curve j must sit in [lo_vec[j], hi_vec[j]] at every grid point of the next
    narrower interval and below hi_vec[j] on the rest of its own interval; the
    raised event is the channel (raise level, +inf). The channel proposal pins
    the inner values into a band by construction, so the band ceiling on the
    free outer segments is what actually gets tested. Channel occupation is a
    skeleton event, matching how the engine evaluates weights.
    """
    m = batch.shape[0]
    out = np.zeros(m)
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


def _sine_tilted_height(width: float, g: np.ndarray, u: np.ndarray):
    """Sample heights from density proportional to exp(-g x) sin(pi x / width)
    on (0, width).

    This is the stationary profile of a bridge conditioned to stay in a slab
    while its unconditioned mean sags below the floor at linear rate g: the
    exponential factor carries the sag, the sine factor the edge repulsion.
    The CDF is elementary, so inversion is a bisection on a monotone function.
    Negative g (mean above the floor) is handled by mirroring the slab.
    """
    b = math.pi / width
    gg = np.abs(g)
    norm = b * (1.0 + np.exp(-gg * width)) / (gg * gg + b * b)
    target = u * (norm * (gg * gg + b * b))
    x_lo = np.zeros_like(gg)
    x_hi = np.full_like(gg, width)
    for _ in range(52):
        mid = 0.5 * (x_lo + x_hi)
        f = b * (1.0 - np.exp(-gg * mid) * np.cos(b * mid)) - gg * np.exp(-gg * mid) * np.sin(
            b * mid
        )
        below = f < target
        x_lo = np.where(below, mid, x_lo)
        x_hi = np.where(below, x_hi, mid)
    x = 0.5 * (x_lo + x_hi)
    x = np.clip(x, 1e-12 * width, (1.0 - 1e-12) * width)
    return np.where(g < 0, width - x, x)


def _sine_tilted_log_pdf(width: float, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    b = math.pi / width
    gg = np.abs(g)
    norm = b * (1.0 + np.exp(-gg * width)) / (gg * gg + b * b)
    xx = np.where(g < 0, width - x, x)
    xx = np.clip(xx, 1e-12 * width, (1.0 - 1e-12) * width)
    return -gg * xx + np.log(np.sin(b * xx)) - np.log(norm)


def _gamma_tilted_height(g: np.ndarray, rng, m: int):
    """Sample heights from density g^2 x exp(-g x) on (0, inf).

    The linear factor is the repulsion of a path conditioned to stay above a
    barrier its mean sags below at rate g.
    """
    return np.maximum(rng.gamma(2.0, 1.0 / g, size=m), 1e-300)


def _gamma_tilted_log_pdf(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return 2.0 * np.log(g) + np.log(x) - g * x


def _log_normal_pdf(v, mu, sd):
    return -0.5 * ((v - mu) / sd) ** 2 - math.log(math.sqrt(2.0 * math.pi)) - np.log(sd)


def _channel_anchor(mu, sd, lo: float, hi: float, rng, m: int):
    """Draw one anchor from a half/half mixture of the exact truncated free
    conditional and a floor-tilted profile; returns (v, log_ratio_term).

    The truncated component keeps the density ratio bounded where the tilted
    profile vanishes (the channel ceiling), the tilted component keeps it
    bounded in the sagging layer at the floor that dominates the free
    conditional. Either component alone leaves a heavy weight tail.
    """
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (m,))
    sd = np.broadcast_to(np.asarray(sd, dtype=float), (m,))
    pick_tn = rng.random(m) < 0.5
    v_tn, log_mass = _band_draw(mu, sd, lo, hi, rng, m)
    g = (lo - mu) / (sd * sd)
    if np.isfinite(hi):
        x_t = _sine_tilted_height(hi - lo, g, rng.random(m))
        v = np.where(pick_tn, v_tn, lo + x_t)
        lq_tilt = _sine_tilted_log_pdf(hi - lo, g, v - lo)
    else:
        g = np.maximum(g, 0.25 / sd)
        x_t = _gamma_tilted_height(g, rng, m)
        v = np.where(pick_tn, v_tn, lo + x_t)
        lq_tilt = _gamma_tilted_log_pdf(g, np.maximum(v - lo, 1e-300))
    log_phi = _log_normal_pdf(v, mu, sd)
    lq_tn = log_phi - log_mass
    log_q = np.logaddexp(lq_tn, lq_tilt) - math.log(2.0)
    return v, log_phi - log_q


def _channel_proposal_batch(frame: _SeparationFrame, m: int, rng, lo_vec, hi_vec):
    """Free staggered draws with anchors pushed into a channel per curve.

    The anchor points of curve j are the nested interval endpoints inside its
    next narrower interval. The outermost pair is conditioned on the pins far
    below, so their heights above the channel floor are drawn from tilted
    densities that match both the sag of the free conditional and the edge
    repulsion of the conditioned path (sine profile for a two-sided band,
    linear-times-exponential for a one-sided floor); anchors conditioned only
    on in-channel neighbors use plain truncated Gaussians. Bridges fill the
    gaps, and the log density ratio d(free)/d(proposal) accumulates exact
    per-anchor terms. Proposals that instead pin every grid step into the
    channel, or that leave the anchors at their sagging conditional layer,
    both lose the effective sample size to weight spread once the channel
    sits several standard deviations above the pins.
    Returns (batch, log_ratio).
    """
    cfg = frame.cfg
    batch = frame.base_batch(m)
    log_ratio = np.zeros(m)
    for j in range(cfg.k):
        c = float(frame.ext[j])
        lj, rj = float(frame.left[j]), float(frame.right[j])
        lo, hi = float(lo_vec[j]), float(hi_vec[j])
        anchor_pts = sorted(map(float, np.r_[frame.left[j + 1 :], frame.right[j + 1 :]]))
        p_first, p_last = anchor_pts[0], anchor_pts[-1]

        v_first, term = _channel_anchor(*_bridge_point(lj, c, p_first, rj, c), lo, hi, rng, m)
        log_ratio += term
        v_last, term = _channel_anchor(
            *_bridge_point(p_first, v_first, p_last, rj, c), lo, hi, rng, m
        )
        log_ratio += term

        values = {p_first: v_first, p_last: v_last}
        for prev, p in zip(anchor_pts, anchor_pts[1:-1]):
            mu_sd = _bridge_point(prev, values[prev], p, p_last, v_last)
            values[p], lm = _band_draw(*mu_sd, lo, hi, rng, m)
            log_ratio += lm
        _fill_bridges(frame, batch, j, values, rng, m)
    return batch, log_ratio


# ---------------------------------------------------------------------------
# separation experiment


def run_separation_experiment(cfg: SeparationConfig, threads: int = 1) -> ExperimentReport:
    """Estimate the endpoint-separation, raised-curve, and banded-curve
    probabilities of the staggered ensemble under the off-window reweighting.

    The three rare-event numerators share one band-conditioned proposal family
    and one free denominator; the report carries the fitted endpoint decay
    rate D with log P(separated) >= -D (M^2/L + L), and the band events imply
    the endpoint event samplewise by construction.
    """
    _check_threads(threads)
    frame = _SeparationFrame(cfg)
    no_ceiling = np.full(cfg.k, np.inf)

    def channel_log_weights(m, rng, lo_vec, hi_vec):
        batch, lmass = _channel_proposal_batch(frame, m, rng, lo_vec, hi_vec)
        factor = _channel_log_factor(frame, batch, lo_vec, hi_vec)
        return lmass + frame.log_weights(batch) + factor, factor

    # each (m, k, n) proposal batch dies once its log weight is taken, so at
    # most one is alive at a time; the draw order is free, sep, banded, raised
    def shard(m, rng):
        lw_free = frame.log_weights(_staggered_free_batch(frame, m, rng))
        # endpoint event: window-edge anchors in band, nothing else conditioned,
        # so the proposal support is exactly the event and no indicator appears
        sep, _, lmass_e = _band_proposal_batch(frame, m, rng)
        lw_sep = lmass_e + frame.log_weights(sep)
        del sep
        lw_banded, band_factor = channel_log_weights(m, rng, frame.band_lo, frame.band_hi)
        lw_raised, _ = channel_log_weights(m, rng, frame.raise_lv, no_ceiling)
        # log factors never exceed 0 and every banded-proposal sample has its
        # window-edge anchors in band, hence realizes the endpoint event
        violations = int(np.sum(band_factor > 1e-12))
        return (
            _LogMoments.from_logs(lw_free),
            _LogMoments.from_logs(lw_sep),
            _LogMoments.from_logs(lw_banded),
            _LogMoments.from_logs(lw_raised),
            violations,
            int(np.sum(band_factor > -np.inf)),
        )

    free_lm, sep_lm, banded_lm, raised_lm, violations, positive_band = _run_shards(
        shard, cfg.n_samples, cfg.seed, threads
    )

    _require_ess({
        "free reference weights": free_lm,
        "separated-endpoint weights": sep_lm,
        "banded-curve weights": banded_lm,
        "raised-curve weights": raised_lm,
    })

    seed = cfg.seed
    p_sep = _ratio_estimate(sep_lm, free_lm, seed)
    p_band = _ratio_estimate(banded_lm, free_lm, seed)
    p_raised = _ratio_estimate(raised_lm, free_lm, seed)
    z_free = math.exp(free_lm.log_mean())

    shape = cfg.M * cfg.M / cfg.L + cfg.L
    if p_sep.mean > 0:
        log_p = sep_lm.log_mean() - free_lm.log_mean()
        d_fit = -log_p / shape
        fit_ok = log_p >= -d_fit * shape * (1.0 + 1e-12)
        fit_detail = (
            f"log P(separated) = {log_p:.6g} >= -D (M^2/L + L) with fitted D = {d_fit:.6g}"
        )
    else:
        d_fit = math.inf
        fit_ok = False
        fit_detail = "separated-endpoint estimate underflowed to zero"

    inclusion_slack = 3.0 * math.hypot(p_band.stderr, p_sep.stderr)
    inclusion_ok = violations == 0 and p_band.mean <= p_sep.mean + inclusion_slack + 1e-12
    estimates = [
        ("separated_endpoints_prob", p_sep),
        ("raised_curves_prob", p_raised),
        ("banded_curves_prob", p_band),
        ("free_reference_normalizer", McEstimate(z_free, z_free * free_lm.rel_stderr(), free_lm.n, seed)),
        ("fitted_decay_rate", _const_estimate(d_fit, sep_lm.n, seed)),
        ("ess_free_reference", _const_estimate(free_lm.ess(), free_lm.n, seed)),
        ("ess_separated_endpoints", _const_estimate(sep_lm.ess(), sep_lm.n, seed)),
        ("ess_banded_curves", _const_estimate(banded_lm.ess(), banded_lm.n, seed)),
        ("ess_raised_curves", _const_estimate(raised_lm.ess(), raised_lm.n, seed)),
    ]
    checks = [
        (
            "endpoint_separation_positive",
            p_sep.mean > 0.0,
            f"P(separated) = {p_sep.mean:.6g} +- {p_sep.stderr:.2g}, ESS = {sep_lm.ess():.1f}",
        ),
        ("endpoint_decay_fit", fit_ok, fit_detail),
        (
            "band_implies_separation",
            inclusion_ok,
            f"banded {p_band.mean:.6g} <= separated {p_sep.mean:.6g} (slack {inclusion_slack:.2g}); "
            f"{positive_band} of {banded_lm.n} proposal samples carried band mass, "
            f"{violations} samplewise violations",
        ),
    ]
    return ExperimentReport(name="separation", estimates=estimates, checks=checks)


# ---------------------------------------------------------------------------
# conditional normalizer lower bound


def run_z_lowerbound_experiment(cfg: SeparationConfig, threads: int = 1) -> ExperimentReport:
    """Estimate the window normalizer conditional on well-separated endpoints.

    Each kept sample realizes the endpoint-separation event by construction;
    its window normalizer is estimated from 256 inner free ensembles (one
    estimate_Z call per shard, one entrance/exit row per kept sample), and
    the conditional mean is the importance-weighted average. The fitted ratio
    D4 = exp(-2kL) / min(normalizer) makes the bound Z >= D4^{-1} exp(-2kL)
    hold on every kept sample; samples whose curves also stay within M of
    their window chords get their full-window log weight checked against
    -2kL directly. The inner runs cap the useful budget, so the kept sample
    count is min(n_samples, 384).
    """
    _check_threads(threads)
    frame = _SeparationFrame(cfg)
    n_keep = min(cfg.n_samples, 384)
    n_inner = 256
    k, L, M = cfg.k, cfg.L, cfg.M
    frac = np.linspace(0.0, 1.0, frame.win_grid.n)

    def shard(m, rng):
        batch, anchors, lmass = _band_proposal_batch(frame, m, rng)
        lw = lmass + frame.log_weights(batch)
        spec = frame.window_spec(anchors[:, :, 0], anchors[:, :, 1])
        z = estimate_Z(spec, frame.win_grid, n=n_inner, seed=int(rng.integers(2**62)))
        window = batch[:, :, frame.iwl : frame.iwr + 1]
        chords = anchors[:, :, 0, None] + (anchors[:, :, 1] - anchors[:, :, 0])[:, :, None] * frac
        osc = np.all(np.abs(window - chords) <= M, axis=(1, 2))
        logw_win = frame.window_log_weights(window)
        return lw, z.mean, z.stderr, osc, logw_win

    lw, zmean, zse, osc, logw_win = _run_shards(shard, n_keep, cfg.seed, threads)

    weights_lm = _LogMoments.from_logs(lw)
    _require_ess({"separated-endpoint weights": weights_lm})

    w = np.exp(lw - lw.max())
    w /= w.sum()
    cond_mean = float(np.dot(w, zmean))
    spread_var = float(np.dot(w * w, (zmean - cond_mean) ** 2))
    inner_var = float(np.dot(w * w, zse**2))
    cond_se = math.sqrt(spread_var + inner_var)
    z_min = float(zmean.min())
    bound = math.exp(-2.0 * k * L)
    d4 = bound / z_min if z_min > 0 else math.inf
    osc_frac = float(np.dot(w, osc))
    n_osc = int(osc.sum())
    seed = cfg.seed

    unit_ok = bool(np.all((zmean > 0.0) & (zmean <= 1.0 + 1e-12)))
    mean_ok = z_min > 0 and cond_mean >= bound / d4 * (1.0 - 1e-9)
    if n_osc > 0:
        w_min = float(logw_win[osc].min())
        osc_ok = bool(w_min >= -2.0 * k * L - 1e-9)
        osc_detail = (
            f"{n_osc} of {len(osc)} kept samples stayed within M of their window chords; "
            f"min log weight {w_min:.6g} >= {-2.0 * k * L:.6g}"
        )
    else:
        osc_ok = False
        osc_detail = "no kept sample realized the chord band at this budget"

    estimates = [
        ("conditional_mean_normalizer", McEstimate(cond_mean, cond_se, len(zmean), seed)),
        ("minimum_normalizer", _const_estimate(z_min, len(zmean), seed)),
        ("fitted_lower_bound_ratio", _const_estimate(d4, len(zmean), seed)),
        ("chord_band_fraction", McEstimate(osc_frac, math.sqrt(float(np.dot(w * w, (osc - osc_frac) ** 2))), len(osc), seed)),
        ("ess_separated_endpoints", _const_estimate(weights_lm.ess(), weights_lm.n, seed)),
    ]
    checks = [
        (
            "normalizer_in_unit_interval",
            unit_ok,
            f"all {len(zmean)} inner estimates inside (0, 1]",
        ),
        (
            "conditional_mean_bound",
            mean_ok,
            f"conditional mean {cond_mean:.6g} >= exp(-2kL)/D4 = {bound / d4 if d4 > 0 else 0:.6g} "
            f"with fitted D4 = {d4:.6g}",
        ),
        ("chord_band_weight", osc_ok, osc_detail),
    ]
    return ExperimentReport(name="z_lowerbound", estimates=estimates, checks=checks)


# ---------------------------------------------------------------------------
# ordering experiment


def run_ordering_experiment(
    k: int,
    t_list: Sequence[float],
    gap: float,
    rho: float,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Estimate how often the two lowest of k+1 softly ordered curves nearly
    touch, and check the probability is nonincreasing as the penalty hardens.

    Boundary data are strictly ordered levels spaced by `gap` on [-2, 2]. The
    samples are independent exact draws from the conditional law of the whole
    block, taken from one batched sample_conditional_batch call per shard (per
    DRAW_CHUNK draws, which bounds memory). The near-touch event is
    {min over [-1, 1] of (curve k - curve k+1) < rho}. A split-chain
    diagnostic raises when the two halves of any run disagree by more than
    three combined standard errors. t_list must be strictly increasing.
    """
    _check_threads(threads)
    problems = []
    if not isinstance(k, int) or not 1 <= k <= DESK_MAX_CURVES - 1:
        problems.append(f"k must be an integer in [1, {DESK_MAX_CURVES - 1}], got {k}")
    if not t_list or not all(0.0 < t <= DESK_MAX_T for t in t_list):
        problems.append(f"t_list entries must lie in (0, {DESK_MAX_T:g}], got {list(t_list)}")
    elif any(b <= a for a, b in zip(t_list, t_list[1:])):
        problems.append(f"t_list must be strictly increasing, got {list(t_list)}")
    if not 0 < gap < math.inf:
        problems.append(f"gap must be positive and finite, got {gap}")
    if not math.isfinite(rho):
        problems.append(f"rho must be finite, got {rho}")
    if not isinstance(n_samples, int) or not 2 <= n_samples <= DESK_MAX_SAMPLES:
        problems.append(f"n_samples must be an integer in [2, {DESK_MAX_SAMPLES}], got {n_samples}")
    problems += _seed_problems(seed)
    if problems:
        raise ValidationError(problems)

    grid = Grid(-2.0, 2.0, 129)
    iw0, iw1 = grid.index_of(-1.0), grid.index_of(1.0)
    levels = gap * np.arange(k, -1, -1, dtype=np.float64)
    outer = BoundaryData(x_vec=levels, y_vec=levels, upper=PLUS_INF, lower=MINUS_INF)

    estimates = []
    checks = []
    probs = []
    for ti, t in enumerate(t_list):
        spec = ConditionalSpec(1, k + 1, (-2.0, 2.0), outer, ScaledExpHamiltonian(float(t)))

        def shard(m, rng, spec=spec):
            mins = []
            for done in range(0, m, DRAW_CHUNK):
                curves, _ = sample_conditional_batch(spec, grid, rng, min(DRAW_CHUNK, m - done))
                diff = curves[:, k - 1, iw0 : iw1 + 1] - curves[:, k, iw0 : iw1 + 1]
                mins.append(diff.min(axis=1))
            return (np.concatenate(mins),)

        (mins,) = _run_shards(shard, n_samples, seed + ti, threads)
        hits = (mins < rho).astype(np.float64)
        est = McEstimate.from_samples(hits, seed)
        label = f"t={t:g}"

        half = len(hits) // 2
        m1 = McEstimate.from_samples(hits[:half], seed)
        m2 = McEstimate.from_samples(hits[half:], seed)
        gap12 = abs(m1.mean - m2.mean)
        allowance = 3.0 * math.hypot(m1.stderr, m2.stderr)
        if gap12 > allowance:
            raise MixingDiagnosticFailure(f"near_touch_prob[{label}]", gap12, allowance)
        checks.append(
            (
                f"split_chain_consistent[{label}]",
                True,
                f"halves differ by {gap12:.4g} within allowance {allowance:.4g}",
            )
        )

        q05, q50, q95 = np.quantile(mins, [0.05, 0.5, 0.95])
        estimates.extend(
            [
                (f"near_touch_prob[{label}]", est),
                (f"min_gap_mean[{label}]", McEstimate.from_samples(mins, seed)),
                (f"min_gap_q05[{label}]", _const_estimate(q05, len(mins), seed)),
                (f"min_gap_q50[{label}]", _const_estimate(q50, len(mins), seed)),
                (f"min_gap_q95[{label}]", _const_estimate(q95, len(mins), seed)),
            ]
        )
        probs.append(est)

    mono_ok = True
    pieces = []
    for a, b in zip(probs, probs[1:]):
        slack = 3.0 * math.hypot(a.stderr, b.stderr)
        mono_ok &= b.mean <= a.mean + slack
        pieces.append(f"{a.mean:.4g} -> {b.mean:.4g} (slack {slack:.4g})")
    checks.append(
        (
            "near_touch_nonincreasing",
            bool(mono_ok),
            "; ".join(pieces) if pieces else "single penalty scale, nothing to compare",
        )
    )
    return ExperimentReport(name="ordering", estimates=estimates, checks=checks)


# ---------------------------------------------------------------------------
# fluctuation pipeline


def run_fluctuation_experiment(
    d: float,
    K_list: Sequence[float],
    boundary_box: float,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Check the boundary-decomposition bound on large window fluctuations.

    A three-curve ensemble on [-1, 1] under the unit-scale soft penalty gets
    synthetic boundary data (sorted uniforms from [-boundary_box, box]); the
    large-fluctuation event is a top-curve range of at least K sqrt(d) over
    [0, d]; per DRAW_CHUNK boundaries one estimate_Z call (192 ensembles a
    row) and one sample_conditional_batch call draw the normalizers and the
    ensembles. For each K the empirical mixture probability is compared with
    P(bad boundary) + exp(-K^2 / (2C)), where the good-boundary set demands
    bounded endpoint values and a normalizer at least exp(-K^2 / (2C)).

    C is fitted from the sliding-window range sups of one pass of free bridges
    (_sliding_range_sup): tails at thresholds deflated by (1 - sqrt(d)) absorb
    the worst boundary slope in the box |x|, |y| <= K, and the fitted
    constant is inflated back by (1 - sqrt(d))^{-2}. Both adjustments push C upward, so the reported
    decay term is conservative. The drift allowance degenerates as d -> 1;
    the factor is floored at 0.05 and the detail string records it.
    """
    _check_threads(threads)
    problems = []
    if not 0.0 < d <= 1.0:
        problems.append(f"d must lie in (0, 1], got {d}")
    if not K_list or not all(K >= 0 and math.isfinite(K) for K in K_list):
        problems.append(f"K_list entries must be finite and nonnegative, got {list(K_list)}")
    if not 0 < boundary_box < math.inf:
        problems.append(f"boundary_box must be positive and finite, got {boundary_box}")
    if not isinstance(n_samples, int) or not 2 <= n_samples <= DESK_MAX_SAMPLES:
        problems.append(f"n_samples must be an integer in [2, {DESK_MAX_SAMPLES}], got {n_samples}")
    problems += _seed_problems(seed)
    if problems:
        raise ValidationError(problems)

    grid = Grid(-1.0, 1.0, 65)
    h = ScaledExpHamiltonian(1.0)
    pts = grid.points
    win = np.flatnonzero((pts >= -1e-12) & (pts <= d + 1e-12))
    rt_d = math.sqrt(d)
    seed_fit = int(np.random.SeedSequence(seed).generate_state(2)[1])

    factor = max(1.0 - rt_d, 0.05)
    k_pos = sorted({float(K) for K in K_list if K > 0})
    sup = _sliding_range_sup(d, 20000, seed_fit, 513, 0.0, 0.0, (-1.0, 1.0))

    def free_tail(big_k):
        return McEstimate.from_samples((sup >= big_k * rt_d).astype(np.float64), seed_fit)

    p_eff = {K: free_tail(K * factor) for K in k_pos}
    p_full = {K: free_tail(K) for K in k_pos}
    usable = [(K, p_eff[K].mean) for K in k_pos if 0.0 < p_eff[K].mean < 1.0]
    if not usable:
        raise ZeroHits("free-law range tails are all degenerate; no decay constant to fit")
    c_raw = fit_decay_constant([K * factor for K, _ in usable], [p for _, p in usable])
    c_fit = max(1.0, c_raw / (factor * factor))

    def shard(m, rng):
        ranges, zs, maxabs = [], [], []
        for done in range(0, m, DRAW_CHUNK):
            rows = min(DRAW_CHUNK, m - done)
            x = np.sort(rng.uniform(-boundary_box, boundary_box, (rows, 3)), axis=1)[:, ::-1]
            y = np.sort(rng.uniform(-boundary_box, boundary_box, (rows, 3)), axis=1)[:, ::-1]
            bd = BoundaryData(x_vec=x, y_vec=y, upper=PLUS_INF, lower=MINUS_INF)
            spec = ConditionalSpec(1, 3, (-1.0, 1.0), bd, h)
            zs.append(estimate_Z(spec, grid, n=192, seed=int(rng.integers(2**62))).mean)
            curves, _ = sample_conditional_batch(spec, grid, rng, rows)
            top = curves[:, 0, win]
            ranges.append(top.max(axis=1) - top.min(axis=1))
            maxabs.append(np.maximum(np.abs(x).max(axis=1), np.abs(y).max(axis=1)))
        return np.concatenate(ranges), np.concatenate(zs), np.concatenate(maxabs)

    ranges, zs, maxabs = _run_shards(shard, n_samples, seed, threads)

    estimates = [("fitted_decay_constant", _const_estimate(c_fit, 20000, seed))]
    checks = []
    bf_by_k = {}
    for K in sorted(float(K) for K in set(K_list)):
        label = f"K={K:g}"
        decay = math.exp(-K * K / (2.0 * c_fit))
        bf = (ranges >= K * rt_d).astype(np.float64)
        gb_bad = ~((maxabs <= K) & (zs >= decay))
        p_bf = McEstimate.from_samples(bf, seed)
        p_bad = McEstimate.from_samples(gb_bad, seed)
        bf_by_k[K] = bf
        slack = 3.0 * math.hypot(p_bf.stderr, p_bad.stderr)
        ok = p_bf.mean <= p_bad.mean + decay + slack + 1e-12
        checks.append(
            (
                f"pipeline_bound[{label}]",
                bool(ok),
                f"P(big fluctuation) {p_bf.mean:.4g} <= "
                f"P(bad boundary) {p_bad.mean:.4g} + decay {decay:.4g} + slack {slack:.4g}",
            )
        )
        estimates.extend(
            [
                (f"big_fluctuation_prob[{label}]", p_bf),
                (f"bad_boundary_prob[{label}]", p_bad),
                (f"decay_term[{label}]", _const_estimate(decay, len(ranges), seed)),
            ]
        )
        if K in p_full:
            estimates.append((f"free_sliding_range_prob[{label}]", p_full[K]))

    ks_sorted = sorted(bf_by_k)
    nested = all(
        bool(np.all(bf_by_k[b] <= bf_by_k[a])) for a, b in zip(ks_sorted, ks_sorted[1:])
    )
    checks.append(
        (
            "threshold_nesting_samplewise",
            nested,
            f"indicators nested over K in {ks_sorted}",
        )
    )

    free_ok = all(p_full[K].mean <= c_fit * math.exp(-K * K / c_fit) + 1e-12 for K in k_pos)
    checks.append(
        (
            "free_law_decay",
            bool(free_ok),
            f"sliding range tails under C exp(-K^2/C) with C = {c_fit:.4g} "
            f"(drift factor {factor:.3g})",
        )
    )

    fit_pts = [(K, bf_by_k[K].mean()) for K in ks_sorted if K > 0 and 0.0 < bf_by_k[K].mean() < 1.0]
    if fit_pts:
        c_bf = fit_decay_constant([K for K, _ in fit_pts], [p for _, p in fit_pts])
        quad_ok = all(p <= math.exp(-K * K / c_bf) * (1.0 + 1e-9) for K, p in fit_pts)
        quad_detail = f"mixture tail fits under exp(-K^2/C') with C' = {c_bf:.4g}"
        estimates.append(("fitted_mixture_decay", _const_estimate(c_bf, len(ranges), seed)))
    else:
        quad_ok = True
        quad_detail = "all mixture estimates degenerate (0 or 1); nothing to fit"
    checks.append(("quadratic_decay_fit", bool(quad_ok), quad_detail))

    return ExperimentReport(name="fluctuation", estimates=estimates, checks=checks)


# ---------------------------------------------------------------------------
# high-excursion construction


def _excursion_problems(L, M, interval, n_samples, seed) -> list[str]:
    problems = []
    if not L > 0:
        problems.append(f"L must be positive, got {L}")
    if not M > 0:
        problems.append(f"M must be positive, got {M}")
    ell, r = interval
    if not (math.isfinite(ell) and math.isfinite(r)) or not r > ell:
        problems.append(f"interval must be finite with r > l, got {interval}")
    elif L > 0:
        span = r - ell
        if not 4.0 * L <= span:
            problems.append(f"interval span {span:g} must be at least 4L = {4 * L:g}")
        if not span <= (2 * DESK_MAX_CURVES + 2) * L:
            problems.append(
                f"interval span {span:g} exceeds the desk cap {(2 * DESK_MAX_CURVES + 2) * L:g}"
            )
    if not isinstance(n_samples, int) or not 2 <= n_samples <= DESK_MAX_SAMPLES:
        problems.append(f"n_samples must be an integer in [2, {DESK_MAX_SAMPLES}], got {n_samples}")
    return problems + _seed_problems(seed)


def _excursion_anchor_shard(L, M, lam, x, y, interval, m, rng):
    """Anchor-level importance sampling of the excursion event; no paths.

    Both anchors are drawn from exact bridge conditionals truncated to the
    full excursion corridor, and every remaining constraint is integrated out
    in closed form (one-sided barrier survivals for the outer segments, the
    reflection series for the middle corridor). Returns per-sample values of
    the excursion probability and of the anchor-band probability.
    """
    ell, r = interval
    mid = (r - ell) - 2.0 * L
    flo, fhi = lam * M, (lam + 4.0) * M
    b1lo, b1hi = (lam + 1.0) * M, (lam + 3.0) * M
    v1, v2, log_mass = _anchor_pair(x, y, interval, ell + L, r - L, flo, fhi, m, rng)
    mass = np.exp(log_mass)

    s_left = -np.expm1(-2.0 * np.clip(fhi - x, 0.0, None) * (fhi - v1) / L)
    s_right = -np.expm1(-2.0 * np.clip(fhi - y, 0.0, None) * (fhi - v2) / L)
    s_mid = corridor_survival(v1, v2, flo, fhi, mid)
    vals = mass * s_left * s_mid * s_right
    in_band = (v1 >= b1lo) & (v1 <= b1hi) & (v2 >= b1lo) & (v2 <= b1hi)
    return vals, mass * in_band


def _excursion_pathwise_shard(L, M, lam, x, y, interval, m, rng):
    """Grid-level containment audit on proposal paths anchored in the inner band."""
    ell, r = interval
    flo, fhi = lam * M, (lam + 4.0) * M
    b1lo, b1hi = (lam + 1.0) * M, (lam + 3.0) * M
    v1, v2, _ = _anchor_pair(x, y, interval, ell + L, r - L, b1lo, b1hi, m, rng)

    def seg(p0, p1, a, b):
        n_pts = int(math.ceil(32.0 * (p1 - p0))) + 1
        pts = np.linspace(p0, p1, n_pts)
        paths = bridge_batch(pts, a, b, rng, m)
        frac = (pts - p0) / (p1 - p0)
        chords = np.multiply.outer(np.asarray(a, dtype=np.float64), 1.0 - frac) + np.multiply.outer(
            np.asarray(b, dtype=np.float64), frac
        )
        return paths, chords

    left, left_ch = seg(ell, ell + L, np.full(m, x), v1)
    middle, mid_ch = seg(ell + L, r - L, v1, v2)
    rightp, right_ch = seg(r - L, r, v2, np.full(m, y))

    dev_ok = (
        np.all(np.abs(left - left_ch) <= M, axis=1)
        & np.all(np.abs(middle - mid_ch) <= M, axis=1)
        & np.all(np.abs(rightp - right_ch) <= M, axis=1)
    )
    event = (
        np.all((middle >= flo) & (middle <= fhi), axis=1)
        & np.all(left <= fhi, axis=1)
        & np.all(rightp <= fhi, axis=1)
    )
    violations = int(np.sum(dev_ok & ~event))
    return violations, int(event.sum()), m


def estimate_excursion_probability(
    L: float,
    M: float,
    lam: float,
    x: float,
    y: float,
    interval: tuple[float, float],
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Probability that a bridge from x to y over `interval` runs above
    lam * M on the inner interval while staying below (lam + 4) M throughout.

    Only the interval geometry is validated here, so degenerate regimes
    (a floor below the endpoints, a far-away ceiling) remain reachable for
    sanity checks; the experiment runner enforces the full preconditions.
    """
    _check_threads(threads)
    problems = _excursion_problems(L, M, interval, n_samples, seed)
    if problems:
        raise ValidationError(problems)
    vals, _ = _run_shards(
        lambda m, rng: _excursion_anchor_shard(L, M, lam, x, y, interval, m, rng),
        n_samples,
        seed,
        threads,
    )
    return McEstimate.from_samples(vals, seed)


def run_excursion_experiment(
    L: float,
    M: float,
    lam: float,
    x: float,
    y: float,
    interval: tuple[float, float],
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Measure the high-excursion probability and its constructive sub-events.

    The four sub-events (anchors in the middle band, then chord deviation at
    most M on each of the three segments) are independent and jointly imply
    the excursion event; the report checks the product lower bound within
    noise, audits the containment samplewise on proposal paths, and fits the
    decay rate D in log P >= -D M^2 / L.
    """
    _check_threads(threads)
    problems = _excursion_problems(L, M, interval, n_samples, seed)
    if not lam >= 4.0:
        problems.append(f"lam must be at least 4, got {lam}")
    if M > 0 and not (abs(x) <= M and abs(y) <= M):
        problems.append(f"|x| and |y| must be at most M = {M}, got x={x}, y={y}")
    if L > 0 and M > 0 and not M >= math.sqrt(L):
        problems.append(f"M must be >= sqrt(L) = {math.sqrt(L):.6g}, got {M}")
    if problems:
        raise ValidationError(problems)

    ell, r = float(interval[0]), float(interval[1])
    mid = (r - ell) - 2.0 * L
    vals, band_vals = _run_shards(
        lambda m, rng: _excursion_anchor_shard(L, M, lam, x, y, (ell, r), m, rng),
        n_samples,
        seed,
        threads,
    )
    est_j = McEstimate.from_samples(vals, seed)
    est_band = McEstimate.from_samples(band_vals, seed)
    if est_j.mean <= 0.0:
        raise ZeroHits(f"no excursion mass at lam={lam:g}, M={M:g} with n={n_samples}")

    # chord-deviation bands are anchor-free, so they come out exactly
    p_left = float(corridor_survival(0.0, 0.0, -M, M, L, images=6))
    p_mid = float(corridor_survival(0.0, 0.0, -M, M, mid, images=6))
    violations, path_hits, path_n = _run_shards(
        lambda m, rng: _excursion_pathwise_shard(L, M, lam, x, y, (ell, r), m, rng),
        min(n_samples, 5000),
        seed + 1,
        threads,
    )

    product = est_band.mean * p_left * p_mid * p_left
    product_se = est_band.stderr * p_left * p_mid * p_left
    slack = 3.0 * math.hypot(est_j.stderr, product_se)
    prod_ok = est_j.mean >= product - slack - 1e-12

    d_fit = -L * math.log(est_j.mean) / (M * M)
    fit_ok = math.log(est_j.mean) >= -d_fit * M * M / L * (1.0 + 1e-12)

    estimates = [
        ("excursion_prob", est_j),
        ("anchor_band_prob", est_band),
        ("chord_band_left", _const_estimate(p_left, n_samples, seed)),
        ("chord_band_middle", _const_estimate(p_mid, n_samples, seed)),
        ("chord_band_right", _const_estimate(p_left, n_samples, seed)),
        ("subevent_product", McEstimate(product, product_se, est_band.n_samples, seed)),
        ("fitted_decay_rate", _const_estimate(d_fit, est_j.n_samples, seed)),
    ]
    checks = [
        (
            "subevent_product_bound",
            bool(prod_ok),
            f"excursion {est_j.mean:.6g} >= product {product:.6g} - slack {slack:.2g}",
        ),
        (
            "containment_samplewise",
            violations == 0,
            f"{path_n} proposal paths audited, {path_hits} realized the excursion, "
            f"{violations} containment violations",
        ),
        (
            "decay_fit",
            bool(fit_ok),
            f"log P = {math.log(est_j.mean):.6g} >= -D M^2/L with fitted D = {d_fit:.6g}",
        ),
    ]
    return ExperimentReport(name="excursion", estimates=estimates, checks=checks)
