"""Closed-form Brownian bridge barrier laws and their Monte Carlo cross-checks.

The closed forms are for a diffusion-parameter-1 bridge B on [a, b] from x to y:

    P(inf B <= beta) = exp(-2 (x - m)(y - m) / (b - a)),   m = min(beta, x, y)
    P(sup B >= beta) = exp(-2 (M - x)(M - y) / (b - a)),   M = max(beta, x, y)

The segment laws take the segment's variance delta: its length times the
diffusion parameter (2 for the gap of two independent curves).

The MC oracle samples bridges on a coarse grid and, instead of checking the
grid minimum, accumulates the exact conditional crossing probability of each
segment given its endpoint values. That removes the O(sqrt(grid spacing)) bias
of naive grid-minimum checks, so the estimator is unbiased for the continuum
probability at any resolution.
"""

from __future__ import annotations

import math

import numpy as np

from .core import McEstimate
from .bridge_sampler import bridge_batch
from .errors import InvalidInterval, NonPositiveArgument, ZeroHits

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
BARRIER_MC_BATCH = 20000  # bridges sampled at once by barrier_tail_mc
OSCILLATION_BATCH = 5000  # bridges sampled at once by _sliding_range_sup


def _check_interval(a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)) or not b > a:
        raise InvalidInterval(f"need finite b > a, got a={a}, b={b}")


def bridge_min_tail(a: float, b: float, x: float, y: float, beta: float) -> float:
    """P(inf over [a,b] of the bridge <= beta). Equals 1 when beta >= min(x, y)."""
    _check_interval(a, b)
    m = min(beta, x, y)
    return math.exp(-2.0 * (x - m) * (y - m) / (b - a))

def bridge_max_tail(a: float, b: float, x: float, y: float, beta: float) -> float:
    """P(sup over [a,b] of the bridge >= beta). Equals 1 when beta <= max(x, y)."""
    _check_interval(a, b)
    big = max(beta, x, y)
    return math.exp(-2.0 * (big - x) * (big - y) / (b - a))


def gaussian_tail_bound(a: float) -> float:
    """The standard upper bound (2 pi)^(-1/2) a^(-1) exp(-a^2/2) for P(N > a), a > 0."""
    if not a > 0:
        raise NonPositiveArgument(f"tail bound needs a > 0, got {a}")
    return INV_SQRT_2PI * math.exp(-0.5 * a * a) / a


def segment_log_crossing(d0: np.ndarray, d1: np.ndarray, delta) -> np.ndarray:
    """Log probability that a bridge segment dips to 0, given endpoint gaps d0, d1 > 0.

    d0 and d1 are the endpoint distances above the barrier; delta is the
    segment's variance (a scalar or an array broadcasting against the gaps).
    """
    return -2.0 * d0 * d1 / delta


def segment_log_survival(d0: np.ndarray, d1: np.ndarray, delta) -> np.ndarray:
    """Log of 1 - crossing probability for a segment of variance delta; -inf
    wherever an endpoint gap is <= 0."""
    d0 = np.asarray(d0, dtype=np.float64)
    d1 = np.asarray(d1, dtype=np.float64)
    both_above = (d0 > 0) & (d1 > 0)
    logc = segment_log_crossing(np.where(both_above, d0, 1.0), np.where(both_above, d1, 1.0), delta)
    with np.errstate(divide="ignore"):
        out = np.where(both_above, np.log1p(-np.exp(logc)), -np.inf)
    return out


def corridor_survival(
    v0: np.ndarray,
    v1: np.ndarray,
    lo: float,
    hi: float,
    length: float,
    images: int = 4,
) -> np.ndarray:
    """P(bridge from v0 to v1 over `length` stays inside (lo, hi)), reflection series.

    The absorbing-barrier transition density is the image sum
    sum_n [phi(u1 - u0 + 2nw) - phi(u1 + u0 + 2nw)] with u = v - lo, w = hi - lo;
    dividing by the unconstrained phi(u1 - u0) gives the bridge survival.
    Truncation error after |n| <= images is below exp(-2 images^2 w^2 / length),
    negligible whenever the corridor is wider than a couple of diffusion lengths.
    Endpoints on or outside the corridor get probability 0.
    """
    if not hi > lo:
        raise InvalidInterval(f"need hi > lo, got lo={lo}, hi={hi}")
    if not length > 0:
        raise NonPositiveArgument(f"need length > 0, got {length}")
    u0 = np.asarray(v0, dtype=np.float64) - lo
    u1 = np.asarray(v1, dtype=np.float64) - lo
    w = hi - lo
    inside = (u0 > 0) & (u0 < w) & (u1 > 0) & (u1 < w)
    u0 = np.where(inside, u0, 0.5 * w)
    u1 = np.where(inside, u1, 0.5 * w)
    base = (u1 - u0) ** 2
    total = np.zeros(np.broadcast(u0, u1).shape)
    for n in range(-images, images + 1):
        shift = 2.0 * n * w
        total += np.exp(-((u1 - u0 + shift) ** 2 - base) / (2.0 * length))
        total -= np.exp(-((u1 + u0 + shift) ** 2 - base) / (2.0 * length))
    return np.where(inside, np.clip(total, 0.0, 1.0), 0.0)


def barrier_tail_mc(
    a: float,
    b: float,
    x: float,
    y: float,
    beta: float,
    n: int,
    seed: int,
    side: str = "min",
    grid_n: int = 65,
) -> McEstimate:
    """MC estimate of P(inf <= beta) (side="min") or P(sup >= beta) (side="max"),
    unbiased at any grid_n: each sample is a crossing probability given grid values."""
    _check_interval(a, b)
    if side == "max":
        # reflection: sup of B >= beta iff inf of -B <= -beta
        x, y, beta = -x, -y, -beta
    elif side != "min":
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    pts = np.linspace(a, b, grid_n)
    delta = (b - a) / (grid_n - 1)
    rng = np.random.default_rng(seed)
    chunks = []
    done = 0
    while done < n:
        m = min(BARRIER_MC_BATCH, n - done)
        gaps = bridge_batch(pts, x, y, rng, m) - beta
        log_surv = segment_log_survival(gaps[:, :-1], gaps[:, 1:], delta).sum(axis=1)
        chunks.append(-np.expm1(log_surv))
        done += m
    return McEstimate.from_samples(np.concatenate(chunks), seed)


def sample_bridge_minima(
    values: np.ndarray,
    delta: float,
    rng: np.random.Generator,
    barrier: float | None = None,
) -> np.ndarray:
    """Exact continuum minima of bridges observed at uniformly spaced grid values.

    values has shape (batch, n); delta is each segment's variance. Per segment,
    conditionally on its endpoint values, the segment minimum has the
    closed-form law above; inverting it gives an exact draw. With `barrier`
    set, the draw is additionally conditioned on the whole path staying above
    the barrier (every grid value must then exceed it). The path minimum is
    the minimum over segments.
    """
    vals = np.asarray(values, dtype=np.float64)
    v0 = vals[:, :-1]
    v1 = vals[:, 1:]
    u = rng.random(v0.shape)
    if barrier is None:
        q = u
    else:
        if not (vals > barrier).all():
            raise ValueError("conditioning barrier must lie below every grid value")
        log_f_beta = segment_log_crossing(v0 - barrier, v1 - barrier, delta)
        f_beta = np.exp(log_f_beta)
        q = f_beta + u * (1.0 - f_beta)
    q = np.clip(q, 1e-300, 1.0)
    # Invert F(m) = exp(-2 (v0-m)(v1-m) / delta) at q: a quadratic in m.
    c = -0.5 * delta * np.log(q)
    disc = np.sqrt((v0 - v1) ** 2 + 4.0 * c)
    seg_min = 0.5 * (v0 + v1 - disc)
    return seg_min.min(axis=1)


def _sliding_range_sup(d, n, seed, grid_n, x, y, interval) -> np.ndarray:
    """Grid-level sup of |B(u) - B(v)| over |u - v| <= d for each of n bridges
    drawn with default_rng(seed); shape (n,)."""
    from scipy.ndimage import maximum_filter1d, minimum_filter1d

    a, b = interval
    _check_interval(a, b)
    if not 0 < d <= b - a:
        raise InvalidInterval(f"window d={d} outside (0, {b - a}]")
    pts = np.linspace(a, b, grid_n)
    w = max(1, int(round(d / (pts[1] - pts[0]))))
    size = w + 1
    origin = size // 2  # shifts the centered filter window to [j, j + w]
    rng = np.random.default_rng(seed)
    stats = []
    done = 0
    while done < n:
        m = min(OSCILLATION_BATCH, n - done)
        vals = bridge_batch(pts, x, y, rng, m)
        roll_max = maximum_filter1d(vals, size=size, axis=1, mode="nearest", origin=origin)
        roll_min = minimum_filter1d(vals, size=size, axis=1, mode="nearest", origin=origin)
        stats.append((roll_max - roll_min).max(axis=1))
        done += m
    return np.concatenate(stats)


def oscillation_tail_estimate(
    d: float,
    big_k: float,
    n: int,
    seed: int,
    grid_n: int = 513,
    x: float = 0.0,
    y: float = 0.0,
    interval: tuple[float, float] = (0.0, 1.0),
) -> McEstimate:
    """MC estimate of P(sup |B(u) - B(v)| >= K sqrt(d) over pairs with |u - v| <= d).

    Grid-level statistic (no between-point correction), which can only
    under-count the continuum supremum; callers treat the result as an
    estimate of a quantity that the continuum bound must dominate.
    """
    sup = _sliding_range_sup(d, n, seed, grid_n, x, y, interval)
    return McEstimate.from_samples((sup >= big_k * math.sqrt(d)).astype(np.float64), seed)


def fit_decay_constant(big_ks, probs) -> float:
    """Smallest C with prob_K <= exp(-K^2 / C) across the given estimates.

    Entries with prob 0 impose no constraint; all-zero input cannot be fitted.
    """
    cs = []
    for big_k, p in zip(big_ks, probs):
        if p <= 0.0:
            continue
        if p >= 1.0:
            raise ValueError(f"cannot fit a decay constant through prob {p} at K={big_k}")
        cs.append(big_k * big_k / (-math.log(p)))
    if not cs:
        raise ZeroHits("all oscillation estimates are zero; decay constant unconstrained")
    return max(cs)
