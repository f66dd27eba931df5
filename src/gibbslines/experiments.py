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
budget n is split over `threads` shards, shard i calls fn(m, rng) on pieces of
at most DRAW_CHUNK samples with the i-th generator of SeedSequence(seed).spawn,
and the pieces' result tuples merge field by field in order (arrays
concatenate, ints add, log-weight accumulators fold left). So the merged
numbers do not depend on scheduling order, and a shard holds one piece's draws
at a time. Plain means come from McEstimate.from_samples on the merged arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

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
from .errors import EffectiveSampleSizeTooSmall, ValidationError, ZeroHits
from .gibbs import (
    ConditionalSpec,
    _block,
    _gaussian_window,
    _truncated_gaussian,
    _window_inverse,
    estimate_Z,
    sample_conditional_batch,
)

DESK_MAX_CURVES = 4
DESK_MAX_T = 1.0e3
DESK_MAX_GRID = 2**13
DESK_MAX_SAMPLES = 10**6
ESS_THRESHOLD = 100.0
DRAW_CHUNK = 2**12  # samples a runner's piece function draws and holds at once

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


# Report checks allow this many combined standard errors of Monte Carlo noise
# between two estimates: the one rule of every comparison below.
_NOISE_SIGMAS = 3.0


def _noise_slack(se_a: float, se_b: float) -> float:
    """Allowed gap between two independent estimates with these standard errors."""
    return _NOISE_SIGMAS * math.hypot(se_a, se_b)


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
        from scipy.special import logsumexp  # loaded at the first fold, not at import

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
    """Run fn(m, rng) on pieces of at most DRAW_CHUNK samples whose m sum to n,
    over up to `threads` shards; merge the tuples.

    Shard i calls fn on its consecutive pieces with the i-th generator of
    SeedSequence(seed).spawn and runs on a thread pool when threads > 1. The
    pieces' tuples merge field by field, in piece order within shard order:
    arrays concatenate, ints add, and _LogMoments accumulators fold left.
    """
    counts = _shard_counts(n, threads)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(counts))]

    def shard(m, rng):
        return [fn(min(DRAW_CHUNK, m - done), rng) for done in range(0, m, DRAW_CHUNK)]

    if threads <= 1 or len(counts) <= 1:
        parts = [shard(m, rng) for m, rng in zip(counts, rngs)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a threaded run needs it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(shard, counts, rngs))
    merged = []
    for values in zip(*(piece for part in parts for piece in part)):
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


def _thread_problems(threads) -> list[str]:
    ok = isinstance(threads, int) and 1 <= threads <= 64
    return [] if ok else [f"threads must be an integer in [1, 64], got {threads}"]


def _seed_problems(seed) -> list[str]:
    ok = isinstance(seed, (int, np.integer)) and seed >= 0  # as SeedSequence needs
    return [] if ok else [f"seed must be a nonnegative integer, got {seed}"]


def _raise_problems(problems: list[str]):
    """Raise every collected validation problem at once, if there are any."""
    if problems:
        raise ValidationError(problems)


# ---------------------------------------------------------------------------
# truncated Gaussian proposals


def _band_draw(mu, sd, lo: float, hi: float, rng, m: int):
    """m exact draws of N(mu, sd^2) truncated to [lo, hi]; returns (values, log_mass)."""
    v, log_mass = _truncated_gaussian(mu, sd, lo, hi, rng.random(m))
    return v, _representable(log_mass)


def _representable(log_mass):
    """log_mass, or a raise where a band's log mass is not finite, which would
    leave a proposal without a density ratio."""
    if not np.all(np.isfinite(log_mass)):
        raise EffectiveSampleSizeTooSmall(0.0, ESS_THRESHOLD, "truncated proposal band")
    return log_mass


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


def _separation_grid_points(k: int, L: float) -> int:
    return 2 * (k + 1) * int(math.ceil(32.0 * L)) + 1  # keeps at least 33 points per unit


def _separation_problems(k, L, t, M, n_samples, seed) -> list[str]:
    problems = []
    k_ok = isinstance(k, int) and 1 <= k <= DESK_MAX_CURVES
    if not k_ok:
        problems.append(f"k must be an integer in [1, {DESK_MAX_CURVES}], got {k}")
    L_ok = 1.0 <= L < math.inf
    if not L_ok:
        problems.append(f"L must be finite and >= 1, got {L}")
    if not 1.0 <= t <= DESK_MAX_T:
        problems.append(f"t must lie in [1, {DESK_MAX_T:g}], got {t}")
    if not M < math.inf:
        problems.append(f"M must be finite, got {M}")
    elif 0 < L < math.inf and not M >= math.sqrt(L):
        problems.append(f"M must be >= sqrt(L) = {math.sqrt(L):.6g}, got {M}")
    if not isinstance(n_samples, int) or not 1 <= n_samples <= DESK_MAX_SAMPLES:
        problems.append(f"n_samples must be an integer in [1, {DESK_MAX_SAMPLES}], got {n_samples}")
    n_grid = _separation_grid_points(k, L) if k_ok and L_ok else 0
    if n_grid > DESK_MAX_GRID:
        problems.append(f"grid would need {n_grid} points, above the cap {DESK_MAX_GRID}")
    return problems + _seed_problems(seed)


@dataclass(frozen=True)
class SeparationConfig:
    """Parameters and budget of the staggered nested-interval experiments;
    _SeparationFrame lays out their geometry."""

    k: int
    L: float
    t: float
    M: float
    n_samples: int
    seed: int

    def __post_init__(self):
        _raise_problems(_separation_problems(self.k, self.L, self.t, self.M, self.n_samples, self.seed))


class _SeparationFrame:
    """The staggered geometry of one config, computed once, and its weights.

    Curves j = 1..k live on intervals [left[j-1], right[j-1]] =
    [-(k+2-j) L, (k+2-j) L]; the innermost ends (-L, L) bound the resampling
    window. The endpoint band for curve j is [(4k-4j+3) M, (4k-4j+5) M], so
    lower-indexed curves sit higher, and its raise level is (4k-4j+4) M.
    The off-window weight covers the widest interval minus the window: two
    blocks, `off_window`, summed by off_window_log_weights. `window` weighs
    the window grid.
    """

    def __init__(self, cfg: SeparationConfig):
        self.cfg = cfg
        k, L, M = cfg.k, cfg.L, cfg.M
        self.grid = Grid(-(k + 1) * L, (k + 1) * L, _separation_grid_points(k, L))
        self.pts = self.grid.points
        self.right = (k + 1 - np.arange(k + 1)) * L
        self.left = -self.right
        self.li = np.array([self.grid.index_of(float(v)) for v in self.left])
        self.ri = np.array([self.grid.index_of(float(v)) for v in self.right])
        self.iwl = int(self.li[-1])
        self.iwr = int(self.ri[-1])
        # staggered constant extensions, all inside [-M, M], strictly decreasing
        self.ext = np.array([M * (1.0 - 2.0 * j / k) for j in range(k)])
        self.floor_vals = np.clip(-0.5 * self.pts**2, -M, M)
        base = 4 * (k - np.arange(1, k + 1))
        self.band_lo = (base + 3) * M
        self.band_hi = (base + 5) * M
        self.raise_lv = (base + 4) * M
        self.h = ScaledExpHamiltonian(cfg.t)
        # a weight ignores entrance/exit values: any spec's block serves
        bd = BoundaryData(self.ext, self.ext, PLUS_INF, Curve(self.grid, self.floor_vals))
        self.off_window = tuple(
            _block(ConditionalSpec(1, k, (float(a), float(b)), bd, self.h), self.grid)
            for a, b in ((self.left[0], self.left[-1]), (self.right[-1], self.right[0]))
        )
        self.win_grid = Grid(-L, L, self.iwr - self.iwl + 1)
        self.win_floor = Curve(self.win_grid, self.floor_vals[self.iwl : self.iwr + 1])
        self.window = _block(self.window_spec(self.ext, self.ext), self.win_grid)
        # channel proposals: curve j's anchors are the interval ends inside its
        # next narrower interval; the midpoint levels fill the spans between them
        self.anchor_pts = [sorted(map(float, np.r_[self.left[j + 1 :], self.right[j + 1 :]])) for j in range(k)]
        self.anchor_idx = [np.array([self.grid.index_of(p) for p in pts]) for pts in self.anchor_pts]
        self.levels = [_midpoint_levels(self.pts, idx) for idx in self.anchor_idx]

    def off_window_log_weights(self, batch: np.ndarray) -> np.ndarray:
        """Log weight off the window of each ensemble of an (m, k, n) batch:
        the sum of the two pieces' block weights."""
        left, right = self.off_window
        return left.log_weights(batch[..., left.span]) + right.log_weights(batch[..., right.span])

    def base_batch(self, m: int) -> np.ndarray:
        """A fresh (m, k, n) batch of the constant extensions. A draw writes
        only inside curve j's own interval, and there only what its weight
        reads, so one batch takes successive draws; the rest (free and
        separated window interiors, channel rows past the kept ones, and a
        dropped channel sample's values past the level that failed) is stale."""
        return np.broadcast_to(self.ext[None, :, None], (m, self.cfg.k, self.grid.n)).copy()

    def window_spec(self, x_vec: np.ndarray, y_vec: np.ndarray) -> ConditionalSpec:
        bd = BoundaryData(x_vec=x_vec, y_vec=y_vec, upper=PLUS_INF, lower=self.win_floor)
        return ConditionalSpec(1, self.cfg.k, (-self.cfg.L, self.cfg.L), bd, self.h)


class _MidpointLevel(NamedTuple):
    """One level of an index bisection: the grid indices drawn at this level,
    the indices of their two already-drawn ends, and the bridge conditional
    of each given its ends, mean w_left v_left + w_right v_right and sd."""

    idx: np.ndarray
    left: np.ndarray
    right: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    sd: np.ndarray


def _midpoint_levels(pts: np.ndarray, stops: np.ndarray) -> list[_MidpointLevel]:
    """The midpoint-first (Levy) construction of bridges between consecutive
    stop indices: level by level, the middle index of every gap still open,
    left to right; every index strictly between two stops is drawn once."""
    gaps = list(zip(stops[:-1], stops[1:]))
    levels = []
    while gaps := [(a, c) for a, c in gaps if c - a >= 2]:
        a, c = np.array(gaps).T
        b = (a + c) // 2
        span = pts[c] - pts[a]
        w_left, w_right = (pts[c] - pts[b]) / span, (pts[b] - pts[a]) / span
        levels.append(_MidpointLevel(b, a, c, w_left, w_right, np.sqrt(w_left * (pts[b] - pts[a]))))
        gaps = [half for a_, b_, c_ in zip(a, b, c) for half in ((a_, b_), (b_, c_))]
    return levels


def _draw_level(batch: np.ndarray, j: int, rows: np.ndarray, level: _MidpointLevel, rng) -> np.ndarray:
    """Draw one midpoint level of curve j for the given rows of a batch, each
    value from its bridge conditional given its two ends; writes the values
    into the batch and returns them, shape (rows, level size)."""
    cur = batch[:, j]
    z = rng.standard_normal((rows.size, level.idx.size))
    z *= level.sd
    z += cur[np.ix_(rows, level.left)] * level.w_left
    z += cur[np.ix_(rows, level.right)] * level.w_right
    cur[np.ix_(rows, level.idx)] = z
    return z


def _fill_midpoints(frame: _SeparationFrame, batch: np.ndarray, j: int, rows: np.ndarray, lo, hi, rng):
    """Fill curve j between its anchors, already in the batch, level by level
    (frame.levels[j]) for the rows that stay in [lo, hi] (inclusive); returns
    those rows. A row drops out at the first level that leaves the band and
    draws nothing more: it keeps the values that failed and stale values
    past them. With an infinite band every row gets complete bridges."""
    for level in frame.levels[j]:
        v = _draw_level(batch, j, rows, level, rng)
        rows = rows[np.all((v >= lo) & (v <= hi), axis=1)]
    return rows


def _fill_bridges(frame: _SeparationFrame, rows: np.ndarray, j: int, stops: list, rng):
    """Fill curve j of `rows`, a batch or its leading rows, with bridges between
    consecutive stops, (grid index, values) pairs in increasing index order.
    Only the columns from the first stop to the last are written."""
    for (i0, v0), (i1, v1) in zip(stops, stops[1:]):
        span = rows[:, j, i0 : i1 + 1]
        bridge_batch(frame.pts[i0 : i1 + 1], v0, v1, rng, rows.shape[0], out=span)


def _band_proposal_batch(frame: _SeparationFrame, batch: np.ndarray, rng, lo_vec, hi_vec, window: bool):
    """Staggered draws, into a base batch, conditioned to the bands
    [lo_vec[j], hi_vec[j]] at -L and L; infinite bands give the free draw.

    The two window-edge values of each curve are drawn from exact bridge
    conditionals truncated to the curve's band, then bridges fill the rest,
    across the window only if `window` is set. Returns (batch, anchors,
    log_mass) where log_mass is the summed log band mass, i.e. the log
    density ratio d(free)/d(proposal) on each sample.
    """
    cfg = frame.cfg
    m = batch.shape[0]
    anchors = np.empty((m, cfg.k, 2))
    log_mass = np.zeros(m)
    for j in range(cfg.k):
        c = float(frame.ext[j])
        lj, rj = float(frame.left[j]), float(frame.right[j])
        lo, hi = float(lo_vec[j]), float(hi_vec[j])
        v1, v2, lm = _anchor_pair(c, c, (lj, rj), -cfg.L, cfg.L, lo, hi, m, rng)
        log_mass += lm
        anchors[:, j, 0], anchors[:, j, 1] = v1, v2
        stops = [(frame.li[j], c), (frame.iwl, v1), (frame.iwr, v2), (frame.ri[j], c)]
        for piece in [stops] if window else [stops[:2], stops[2:]]:
            _fill_bridges(frame, batch, j, piece, rng)
    return batch, anchors, log_mass


def _sine_tilted_height(width: float, g: np.ndarray, rng):
    """Sample heights from density proportional to exp(-|g| x) sin(pi x / width)
    on (0, width), one per entry of g, by exact rejection.

    This is the stationary profile of a bridge conditioned to stay in a slab
    while its unconditioned mean sags below the floor at linear rate g: the
    exponential factor carries the sag, the sine factor the edge repulsion.
    With b = pi / width, a steep tilt (|g| >= b) proposes from the envelope
    b x exp(-|g| x), a Gamma(2, 1/|g|) law, and accepts with probability
    sin(b x) / (b x); a shallow one proposes from exp(-|g| x) truncated to
    (0, width), inverted in closed form, and accepts with probability sin(b x).
    A proposal at or past an edge is rejected. Either envelope accepts at
    least 52 % of its proposals.
    Each round draws three uniforms per pending height, so how much of the
    stream a call takes depends on its draws. Negative g (mean above the
    floor) is handled by mirroring the slab.
    """
    b = math.pi / width
    gg = np.abs(g)
    out = np.empty_like(gg)
    todo = np.arange(gg.size)
    while todo.size:
        gt = gg[todo]
        u0, u1, u2 = rng.random((3, todo.size))
        steep = gt >= b
        # shallow: exp(-g x) on (0, width) by inversion; g = 0 is the uniform law
        x = np.divide(-np.log1p(u0 * np.expm1(-gt * width)), gt, out=u0 * width, where=gt > 0)
        # steep: Gamma(2, 1/g) as the sum of two exponentials; 1 - u lies in (0, 1]
        x[steep] = -np.log((1.0 - u0[steep]) * (1.0 - u1[steep])) / gt[steep]
        envelope = np.where(steep, b * x, 1.0)  # over exp(-g x); sin(b x) is below it
        accept = (x < width) & (u2 * envelope < np.sin(b * x))
        out[todo[accept]] = x[accept]
        todo = todo[~accept]
    return np.where(g < 0, width - out, out)


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

    The sine-tilted height is drawn by rejection only for the samples that
    take the tilted component, so the stream depends on which component
    each sample picks. Only the samples that pick the truncated component
    invert their uniform; every sample needs the band's log mass.
    """
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (m,))
    sd = np.broadcast_to(np.asarray(sd, dtype=float), (m,))
    pick_tn = rng.random(m) < 0.5
    u_tn = rng.random(m)
    window = _gaussian_window(mu, sd, lo, hi)
    log_mass = _representable(window[-1])
    v = np.empty(m)
    picked = np.flatnonzero(pick_tn)
    v[picked] = _window_inverse(mu[picked], sd[picked], lo, hi, u_tn[picked], [w[picked] for w in window])[0]
    tilt = ~pick_tn
    g = (lo - mu) / (sd * sd)
    if np.isfinite(hi):
        v[tilt] = lo + _sine_tilted_height(hi - lo, g[tilt], rng)
        lq_tilt = _sine_tilted_log_pdf(hi - lo, g, v - lo)
    else:
        g = np.maximum(g, 0.25 / sd)
        v[tilt] = lo + _gamma_tilted_height(g, rng, m)[tilt]
        lq_tilt = _gamma_tilted_log_pdf(g, np.maximum(v - lo, 1e-300))
    log_phi = _log_normal_pdf(v, mu, sd)
    lq_tn = log_phi - log_mass
    log_q = np.logaddexp(lq_tn, lq_tilt) - math.log(2.0)
    return v, log_phi - log_q


def _channel_anchors(frame: _SeparationFrame, batch: np.ndarray, rng, lo_vec, hi_vec):
    """Anchors pushed into a channel per curve, and the bridges between them,
    for the samples of a base batch that stay inside the channel.

    The anchor points of curve j are the nested interval endpoints inside its
    next narrower interval. The outermost pair is conditioned on the pins far
    below, so their heights above the channel floor are drawn from tilted
    densities that match both the sag of the free conditional and the edge
    repulsion of the conditioned path (sine profile for a two-sided band,
    linear-times-exponential for a one-sided floor); anchors conditioned only
    on in-channel neighbors use plain truncated Gaussians. The log density
    ratio d(free)/d(proposal) accumulates exact per-anchor terms. Proposals
    that instead pin every grid step into the channel, or that leave the
    anchors at their sagging conditional layer, both lose the effective
    sample size to weight spread once the channel sits several standard
    deviations above the pins.

    The spans between anchors are filled midpoint first (_fill_midpoints),
    and a sample is dropped at the first level that leaves [lo_vec[j],
    hi_vec[j]], since its weight is 0 whatever the rest of its path. Curve
    j >= 1 is drawn only for the samples still inside. A kept sample ends
    with complete bridges between its anchors, so its law is that of a
    full-path draw.
    Returns (log_ratio, inside): inside marks the samples whose every curve
    j stays in [lo_vec[j], hi_vec[j]] on its next narrower interval; the
    log_ratio of the other samples is partial.
    """
    m = batch.shape[0]
    log_ratio = np.zeros(m)
    rows = np.arange(m)
    for j in range(frame.cfg.k):
        c = float(frame.ext[j])
        lj, rj = float(frame.left[j]), float(frame.right[j])
        lo, hi = float(lo_vec[j]), float(hi_vec[j])
        pts, n = frame.anchor_pts[j], rows.size
        v_first, ratio = _channel_anchor(*_bridge_point(lj, c, pts[0], rj, c), lo, hi, rng, n)
        v_last, term = _channel_anchor(*_bridge_point(pts[0], v_first, pts[-1], rj, c), lo, hi, rng, n)
        ratio += term
        values = [v_first]
        for prev, p in zip(pts, pts[1:-1]):
            v, lm = _band_draw(*_bridge_point(prev, values[-1], p, pts[-1], v_last), lo, hi, rng, n)
            values.append(v)
            ratio += lm
        values.append(v_last)
        log_ratio[rows] += ratio
        batch[rows[:, None], j, frame.anchor_idx[j]] = np.stack(values, axis=1)
        rows = _fill_midpoints(frame, batch, j, rows, lo, hi, rng)
    inside = np.zeros(m, dtype=bool)
    inside[rows] = True
    return log_ratio, inside


def _channel_log_weights(frame: _SeparationFrame, batch: np.ndarray, rng, lo_vec, hi_vec):
    """Channel proposal draws, into a base batch; returns (log_weights,
    log_factor), the latter the log indicator (0 or -inf) of the channel
    event on the grid skeleton: curve j in [lo_vec[j], hi_vec[j]] on its next
    narrower interval and below hi_vec[j] on the rest of its own. Given the
    anchors the bridge pieces are independent, and a sample outside the inner
    channel has weight 0 whatever its outer spans, so only the samples inside
    draw those, in the leading rows, where their off-window columns are
    compacted first."""
    log_ratio, inside = _channel_anchors(frame, batch, rng, lo_vec, hi_vec)
    keep = np.flatnonzero(inside)
    rows = batch[: keep.size]
    for cols in (np.s_[frame.li[1] : frame.iwl + 1], np.s_[frame.iwr : frame.ri[1] + 1]):
        rows[..., cols] = batch[keep, :, cols]
    ok = np.ones(keep.size, dtype=bool)
    for j in range(frame.cfg.k):
        c, hi = float(frame.ext[j]), float(hi_vec[j])
        own0, in0, in1, own1 = frame.li[j], frame.li[j + 1], frame.ri[j + 1], frame.ri[j]
        # the inner anchors at in0 and in1 came along with the compacted columns
        _fill_bridges(frame, rows, j, [(own0, c), (in0, rows[:, j, in0])], rng)
        _fill_bridges(frame, rows, j, [(in1, rows[:, j, in1]), (own1, c)], rng)
        ok &= np.all(rows[:, j, own0 : in0 + 1] <= hi, axis=1)
        ok &= np.all(rows[:, j, in1 : own1 + 1] <= hi, axis=1)
    log_factor = np.full(batch.shape[0], -np.inf)
    log_factor[keep] = np.where(ok, 0.0, -np.inf)
    log_w = np.full(batch.shape[0], -np.inf)
    log_w[keep] = log_ratio[keep] + frame.off_window_log_weights(rows) + log_factor[keep]
    return log_w, log_factor


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
    _raise_problems(_thread_problems(threads))
    frame = _SeparationFrame(cfg)
    no_floor, no_ceiling = np.full(cfg.k, -np.inf), np.full(cfg.k, np.inf)

    # each proposal is done with once its log weight is taken, so the four
    # draws (free, sep, banded, raised, in that order) share one (m, k, n)
    # batch per piece; it lives here, not on the frame, since shards run on
    # threads. Each draw fills only the path pieces that its weight reads.
    def shard(m, rng):
        batch = frame.base_batch(m)
        # the free draw is the band proposal with band (-inf, inf), of mass 1
        _band_proposal_batch(frame, batch, rng, no_floor, no_ceiling, window=False)
        lw_free = frame.off_window_log_weights(batch)
        # endpoint event: window-edge anchors in band, nothing else conditioned,
        # so the proposal support is exactly the event and no indicator appears
        _, _, lmass_e = _band_proposal_batch(frame, batch, rng, frame.band_lo, frame.band_hi, window=False)
        lw_sep = lmass_e + frame.off_window_log_weights(batch)
        lw_banded, band_factor = _channel_log_weights(frame, batch, rng, frame.band_lo, frame.band_hi)
        lw_raised, _ = _channel_log_weights(frame, batch, rng, frame.raise_lv, no_ceiling)
        return (
            _LogMoments.from_logs(lw_free),
            _LogMoments.from_logs(lw_sep),
            _LogMoments.from_logs(lw_banded),
            _LogMoments.from_logs(lw_raised),
            int(np.sum(band_factor > -np.inf)),
        )

    free_lm, sep_lm, banded_lm, raised_lm, positive_band = _run_shards(
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
    d_fit = -(sep_lm.log_mean() - free_lm.log_mean()) / shape if p_sep.mean > 0 else math.inf

    inclusion_slack = _noise_slack(p_band.stderr, p_sep.stderr)
    inclusion_ok = p_band.mean <= p_sep.mean + inclusion_slack + 1e-12
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
            0.0 < p_sep.mean <= 1.0,
            f"P(separated) = {p_sep.mean:.6g} +- {p_sep.stderr:.2g}, ESS = {sep_lm.ess():.1f}",
        ),
        (
            "band_implies_separation",
            inclusion_ok,
            f"banded {p_band.mean:.6g} <= separated {p_sep.mean:.6g} (slack {inclusion_slack:.2g}); "
            f"{positive_band} of {banded_lm.n} proposal samples carried band mass",
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
    _raise_problems(_thread_problems(threads))
    frame = _SeparationFrame(cfg)
    n_keep = min(cfg.n_samples, 384)
    n_inner = 256
    k, L, M = cfg.k, cfg.L, cfg.M
    frac = np.linspace(0.0, 1.0, frame.win_grid.n)
    bands = frame.band_lo, frame.band_hi

    def shard(m, rng):
        batch, anchors, lmass = _band_proposal_batch(frame, frame.base_batch(m), rng, *bands, window=True)
        lw = lmass + frame.off_window_log_weights(batch)
        spec = frame.window_spec(anchors[:, :, 0], anchors[:, :, 1])
        z = estimate_Z(spec, frame.win_grid, n=n_inner, seed=int(rng.integers(2**62)))
        window = batch[:, :, frame.iwl : frame.iwr + 1]
        chords = anchors[:, :, 0, None] + (anchors[:, :, 1] - anchors[:, :, 0])[:, :, None] * frac
        osc = np.all(np.abs(window - chords) <= M, axis=(1, 2))
        logw_win = frame.window.log_weights(window)
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
        ("chord_band_weight", osc_ok, osc_detail),
    ]
    return ExperimentReport(name="z_lowerbound", estimates=estimates, checks=checks)


# ---------------------------------------------------------------------------
# ordering experiment


def _ordering_problems(k, t_list, gap, rho, n_samples, seed, threads) -> list[str]:
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
    return problems + _seed_problems(seed) + _thread_problems(threads)


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
    block, taken from one batched sample_conditional_batch call per
    _run_shards piece. The near-touch event is
    {min over [-1, 1] of (curve k - curve k+1) < rho}. t_list must be
    strictly increasing.
    """
    _raise_problems(_ordering_problems(k, t_list, gap, rho, n_samples, seed, threads))

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
            curves, _ = sample_conditional_batch(spec, grid, rng, m)
            return ((curves[:, k - 1, iw0 : iw1 + 1] - curves[:, k, iw0 : iw1 + 1]).min(axis=1),)

        (mins,) = _run_shards(shard, n_samples, seed + ti, threads)
        hits = (mins < rho).astype(np.float64)
        est = McEstimate.from_samples(hits, seed)
        label = f"t={t:g}"
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
        slack = _noise_slack(a.stderr, b.stderr)
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


def _fluctuation_problems(d, K_list, boundary_box, n_samples, seed, threads) -> list[str]:
    problems = []
    if not 0.0 < d <= 1.0:
        problems.append(f"d must lie in (0, 1], got {d}")
    if not K_list or not all(K >= 0 and math.isfinite(K) for K in K_list):
        problems.append(f"K_list entries must be finite and nonnegative, got {list(K_list)}")
    elif not any(K > 0 for K in K_list):
        problems.append("K_list needs a positive entry")  # the decay constant C is fitted on K > 0
    if not 0 < boundary_box < math.inf:
        problems.append(f"boundary_box must be positive and finite, got {boundary_box}")
    if not isinstance(n_samples, int) or not 2 <= n_samples <= DESK_MAX_SAMPLES:
        problems.append(f"n_samples must be an integer in [2, {DESK_MAX_SAMPLES}], got {n_samples}")
    return problems + _seed_problems(seed) + _thread_problems(threads)


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
    [0, d]; per _run_shards piece, one estimate_Z call (192 ensembles a
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
    _raise_problems(_fluctuation_problems(d, K_list, boundary_box, n_samples, seed, threads))

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
        x = np.sort(rng.uniform(-boundary_box, boundary_box, (m, 3)), axis=1)[:, ::-1]
        y = np.sort(rng.uniform(-boundary_box, boundary_box, (m, 3)), axis=1)[:, ::-1]
        bd = BoundaryData(x_vec=x, y_vec=y, upper=PLUS_INF, lower=MINUS_INF)
        spec = ConditionalSpec(1, 3, (-1.0, 1.0), bd, h)
        z = estimate_Z(spec, grid, n=192, seed=int(rng.integers(2**62))).mean
        curves, _ = sample_conditional_batch(spec, grid, rng, m)
        top = curves[:, 0, win]
        maxabs = np.maximum(np.abs(x).max(axis=1), np.abs(y).max(axis=1))
        return top.max(axis=1) - top.min(axis=1), z, maxabs

    ranges, zs, maxabs = _run_shards(shard, n_samples, seed, threads)

    estimates = [("fitted_decay_constant", _const_estimate(c_fit, 20000, seed))]
    checks = []
    fit_pts = []  # (K, mixture tail) with the tail inside (0, 1), K increasing
    for K in sorted(float(K) for K in set(K_list)):
        label = f"K={K:g}"
        decay = math.exp(-K * K / (2.0 * c_fit))
        bf = (ranges >= K * rt_d).astype(np.float64)
        gb_bad = ~((maxabs <= K) & (zs >= decay))
        p_bf = McEstimate.from_samples(bf, seed)
        p_bad = McEstimate.from_samples(gb_bad, seed)
        if K > 0 and 0.0 < bf.mean() < 1.0:
            fit_pts.append((K, bf.mean()))
        slack = _noise_slack(p_bf.stderr, p_bad.stderr)
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

    free_ok = all(p_full[K].mean <= c_fit * math.exp(-K * K / c_fit) + 1e-12 for K in k_pos)
    checks.append(
        (
            "free_law_decay",
            bool(free_ok),
            f"sliding range tails under C exp(-K^2/C) with C = {c_fit:.4g} "
            f"(drift factor {factor:.3g})",
        )
    )

    if fit_pts:
        c_bf = fit_decay_constant([K for K, _ in fit_pts], [p for _, p in fit_pts])
        estimates.append(("fitted_mixture_decay", _const_estimate(c_bf, len(ranges), seed)))

    return ExperimentReport(name="fluctuation", estimates=estimates, checks=checks)


# ---------------------------------------------------------------------------
# high-excursion construction


def _excursion_problems(L, M, lam, interval, n_samples, seed) -> list[str]:
    """Problems of estimate_excursion_probability; the experiment runner adds its own."""
    problems = []
    if not L > 0:
        problems.append(f"L must be positive, got {L}")
    if not (M > 0 and math.isfinite(M)):
        problems.append(f"M must be positive and finite, got {M}")
    if not math.isfinite(lam):
        problems.append(f"lam must be finite, got {lam}")
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

    Validated here: L > 0, a finite M > 0, a finite lam, the interval
    geometry, n_samples, seed and threads. Degenerate regimes (a floor below
    the endpoints, a far-away ceiling) thus remain reachable for sanity
    checks; the experiment runner enforces the full preconditions.
    """
    _raise_problems(_excursion_problems(L, M, lam, interval, n_samples, seed) + _thread_problems(threads))
    vals, _ = _run_shards(
        lambda m, rng: _excursion_anchor_shard(L, M, lam, x, y, interval, m, rng),
        n_samples,
        seed,
        threads,
    )
    return McEstimate.from_samples(vals, seed)


def _excursion_experiment_problems(L, M, lam, x, y, interval, n_samples, seed, threads) -> list[str]:
    problems = _excursion_problems(L, M, lam, interval, n_samples, seed)
    if math.isfinite(lam) and not lam >= 4.0:
        problems.append(f"lam must be at least 4, got {lam}")
    if M > 0 and not (abs(x) <= M and abs(y) <= M):
        problems.append(f"|x| and |y| must be at most M = {M}, got x={x}, y={y}")
    if L > 0 and M > 0 and not M >= math.sqrt(L):
        problems.append(f"M must be >= sqrt(L) = {math.sqrt(L):.6g}, got {M}")
    return problems + _thread_problems(threads)


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
    _raise_problems(_excursion_experiment_problems(L, M, lam, x, y, interval, n_samples, seed, threads))

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
    slack = _noise_slack(est_j.stderr, product_se)
    prod_ok = est_j.mean >= product - slack - 1e-12

    d_fit = -L * math.log(est_j.mean) / (M * M)

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
    ]
    return ExperimentReport(name="excursion", estimates=estimates, checks=checks)
