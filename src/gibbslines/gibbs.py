"""Conditional resampling engine for Boltzmann-reweighted bridge ensembles.

A block of curves on a sub-interval, given entrance/exit values and the
curves (or infinite sentinels) directly above and below, is distributed as
independent Brownian bridges reweighted by

    W = exp( - sum_pairs integral over the interval of H(lower - upper) du )

where the pair sum runs over (upper boundary, curve 1), all adjacent curve
pairs, and (curve k, lower boundary); infinite sentinels drop their term.
W lies in (0, 1] and Z = E_free[W] normalizes the conditional law.

The off-window variant integrates only over [a, a'] union [b', b]; it is used
by estimators that leave the middle window unweighted.

H is evaluated only on the pairs and columns that carry weight: a sentinel
pair (its gap is -inf, and H(-inf) = 0) is never formed, and the unweighted
window columns of an off-window weight are never evaluated.

The hard wall stands for continuum non-crossing: its one weight is the exact
probability that bridges through the grid values never cross, free of the grid
indicator's O(sqrt(spacing)) bias. The heat bath's hard-wall site law, a Gaussian
truncated to the neighbours, keeps the grid skeleton's law instead.
estimate_Z and the exact samplers take one entrance/exit row per draw from a
(B, k) spec: B rows cost one Python call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .bridge_analytics import segment_log_survival
from .bridge_sampler import free_ensemble_batch
from .core import (
    BoundaryData,
    Curve,
    Grid,
    Hamiltonian,
    LineEnsemble,
    McEstimate,
    OrderedHamiltonian,
    boundary_values,
)
from .errors import (
    GridMismatch,
    InvalidInterval,
    LengthMismatch,
    OrderViolationInput,
    RejectionBudgetExhausted,
)

Z_BATCH = 1024  # candidate curves estimate_Z weighs at once; larger chunks measured slower
CANDIDATE_BATCH = 32  # free candidates per round of sample_conditional_batch


@dataclass(frozen=True)
class ConditionalSpec:
    """Everything defining one conditional block: curve range, interval,
    boundary data, Hamiltonian, and an optional unweighted middle window."""

    k1: int
    k2: int
    interval: tuple[float, float]
    boundary: BoundaryData
    hamiltonian: Hamiltonian
    window: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < self.k1:
            raise LengthMismatch(f"bad curve range {self.k1}..{self.k2}")
        if self.boundary.k != self.k2 - self.k1 + 1:
            raise LengthMismatch(
                f"boundary holds {self.boundary.k} curves, block needs {self.k2 - self.k1 + 1}"
            )
        a, b = self.interval
        if not b > a:
            raise InvalidInterval(f"interval must satisfy a < b, got {self.interval}")
        if self.window is not None:
            ap, bp = self.window
            if not (a < ap < bp < b):
                raise InvalidInterval(
                    f"window {self.window} must sit strictly inside {self.interval}"
                )

    @property
    def n_curves(self) -> int:
        return self.k2 - self.k1 + 1


@dataclass(frozen=True)
class StoppingDomain:
    """A resampling interval located by first-hitting scans, with hit flags."""

    left: float
    right: float
    hit_left: bool
    hit_right: bool


def _slice_indices(grid: Grid, spec: ConditionalSpec) -> tuple[int, int]:
    a, b = spec.interval
    return grid.index_of(a), grid.index_of(b)


def _integration_columns(pts: np.ndarray, grid: Grid, spec: ConditionalSpec, ia: int):
    """Column index ranges (into the interval slice) that carry weight."""
    if spec.window is None:
        return [(0, pts.shape[0] - 1)]
    ap, bp = spec.window
    ja = grid.index_of(ap) - ia
    jb = grid.index_of(bp) - ia
    return [(0, ja), (jb, pts.shape[0] - 1)]


def _weighted_pairs(batch: np.ndarray, upper_vals: np.ndarray, lower_vals: np.ndarray) -> list:
    """The (above, below, sigma2) row pairs that carry weight, top to bottom.

    Block rows have shape (size, m), boundary rows (m,). A sentinel boundary
    (+inf above, -inf below) drops its pair: its gap is -inf and H(-inf) = 0.
    sigma2 is the diffusion parameter of the pair's gap process: 2 for two
    random curves, 1 for a curve against a deterministic boundary curve.
    """
    k = batch.shape[1]
    pairs = [(batch[:, i - 1, :], batch[:, i, :], 2.0) for i in range(1, k)]
    if not np.isposinf(upper_vals).all():
        pairs.insert(0, (upper_vals, batch[:, 0, :], 1.0))
    if not np.isneginf(lower_vals).all():
        pairs.append((batch[:, k - 1, :], lower_vals, 1.0))
    return pairs


def _log_weight_batch(
    batch: np.ndarray,
    pts: np.ndarray,
    upper_vals: np.ndarray,
    lower_vals: np.ndarray,
    h: Hamiltonian,
    columns,
) -> np.ndarray:
    """Log Boltzmann weight of each ensemble in the batch, shape (size,).

    The hard wall takes its non-crossing log probability. Any other H is
    evaluated only on the weighted pairs and on the columns that carry weight;
    the pair rows are summed in order and each column range gets its own
    trapezoid, so the result is bitwise that of the full-stack formula.
    """
    size = batch.shape[0]
    pairs = _weighted_pairs(batch, upper_vals, lower_vals)
    if isinstance(h, OrderedHamiltonian):
        return _log_ordered_survival_batch(pairs, pts, columns, size)
    total = np.zeros(size)
    if not pairs:
        return -total
    # column range r sits at [starts[r], starts[r + 1]) of the packed arrays
    starts = np.cumsum([0] + [j1 + 1 - j0 for j0, j1 in columns])
    spans = list(zip(columns, starts, starts[1:]))
    # gap convention: lower row minus upper row; ordered configurations are negative
    gaps = np.empty((size, len(pairs), starts[-1]))
    for p, (above, below, _) in enumerate(pairs):
        for (j0, j1), s0, s1 in spans:
            np.subtract(below[..., j0 : j1 + 1], above[..., j0 : j1 + 1], out=gaps[:, p, s0:s1])
    integrand = h.integrand(gaps).sum(axis=1)
    for (j0, j1), s0, s1 in spans:
        total += np.trapezoid(integrand[:, s0:s1], x=pts[j0 : j1 + 1], axis=1)
    return -total


def _log_ordered_survival_batch(pairs, pts, columns, size: int) -> np.ndarray:
    """Sum of exact per-segment non-crossing log probabilities for every
    weighted pair; a segment's variance is its length times the pair's sigma2."""
    dt = np.diff(pts)
    out = np.zeros(size)
    for above, below, sigma2 in pairs:
        for j0, j1 in columns:
            d = above[..., j0 : j1 + 1] - below[..., j0 : j1 + 1]  # positive where ordered
            seg = segment_log_survival(d[:, :-1], d[:, 1:], sigma2 * dt[j0:j1])
            out += seg.sum(axis=1)
    return out


def log_boltzmann_weight(ens: LineEnsemble, spec: ConditionalSpec) -> float:
    """Log weight of one ensemble; 0 means weight 1, -inf means forbidden.

    It is the one weight that estimate_Z averages. The ensemble must hold
    exactly the block curves on `spec.interval` (its grid spans that
    interval, boundary curves live on the same grid).
    """
    if ens.k != spec.n_curves:
        raise LengthMismatch(f"ensemble has {ens.k} curves, spec wants {spec.n_curves}")
    ia, ib, pts, upper, lower, columns = _prepared_slice(spec, ens.grid)
    block = ens.curves[None, :, ia : ib + 1]
    lw = _log_weight_batch(block, pts, upper, lower, spec.hamiltonian, columns)
    return float(lw[0])


def _prepared_slice(spec: ConditionalSpec, grid: Grid):
    ia, ib = _slice_indices(grid, spec)
    if ib - ia < 1:
        raise InvalidInterval("interval spans fewer than two grid points")
    pts = grid.points[ia : ib + 1]
    upper = boundary_values(spec.boundary.upper, grid, ia, ib)
    lower = boundary_values(spec.boundary.lower, grid, ia, ib)
    columns = _integration_columns(pts, grid, spec, ia)
    return ia, ib, pts, upper, lower, columns


def estimate_Z(spec: ConditionalSpec, grid: Grid, n: int, seed: int) -> McEstimate:
    """MC estimate of the conditional normalizer Z = E_free[W] in (0, 1].

    A (B, k) spec gives (B,) mean and stderr: row b averages n free ensembles,
    rows taking theirs in turn from one default_rng(seed) stream, built and
    weighed at most Z_BATCH curves at a time (chunks do not move the stream).
    """
    ia, ib, pts, upper, lower, columns = _prepared_slice(spec, grid)
    x, y = spec.boundary.x_vec, spec.boundary.y_vec
    lw = np.empty(x.shape[:-1] + (n,))
    flat = lw.reshape(-1)
    chunk = max(1, Z_BATCH // spec.n_curves)
    rng = np.random.default_rng(seed)
    for e0 in range(0, flat.size, chunk):
        m = min(chunk, flat.size - e0)
        rows = np.arange(e0, e0 + m) // n  # entrance/exit row of each candidate
        cand = free_ensemble_batch(pts, *((x, y) if x.ndim == 1 else (x[rows], y[rows])), rng, m)
        flat[e0 : e0 + m] = _log_weight_batch(cand, pts, upper, lower, spec.hamiltonian, columns)
    return McEstimate.from_samples(np.exp(lw), seed)


def sample_conditional_batch(
    spec: ConditionalSpec,
    grid: Grid,
    rng: np.random.Generator,
    n: int,
    budget: int = 10**6,
) -> tuple[np.ndarray, np.ndarray]:
    """n independent exact conditional draws; returns (curves, attempts).

    curves has shape (n, k, m) on the interval's m grid points; draw i follows
    row i of a (n, k) spec. Each round draws ceil(CANDIDATE_BATCH / p) free
    candidates for each of the p pending draws, in draw order; a candidate with
    log weight lw is accepted when log U <= lw, and a draw takes its first
    accepted one. attempts[i] counts the candidates drawn for draw i, i.i.d.
    geometric with mean 1/Z_i. All pending draws have spent the same count; at
    `budget` the call raises instead of looping forever.
    """
    ia, ib, pts, upper, lower, columns = _prepared_slice(spec, grid)
    x, y = spec.boundary.x_vec, spec.boundary.y_vec
    if x.shape[:-1] not in ((), (n,)):
        raise LengthMismatch(f"entrance/exit rows {x.shape} for {n} draws")
    curves = np.empty((n, spec.n_curves, pts.shape[0]))
    attempts = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    spent = 0  # candidates drawn by each pending draw
    while pending.size:
        if spent >= budget:
            raise RejectionBudgetExhausted(budget, f"block {spec.k1}..{spec.k2} on {spec.interval}")
        p = pending.size
        c = min(-(-CANDIDATE_BATCH // p), budget - spent)
        rows = np.repeat(pending, c)  # entrance/exit row of each candidate
        cand = free_ensemble_batch(pts, *((x, y) if x.ndim == 1 else (x[rows], y[rows])), rng, p * c)
        lw = _log_weight_batch(cand, pts, upper, lower, spec.hamiltonian, columns)
        accepted = (np.log(rng.random(p * c)) <= lw).reshape(p, c)
        hit = accepted.any(axis=1)
        first = accepted[hit].argmax(axis=1)
        curves[pending[hit]] = cand.reshape(p, c, *cand.shape[1:])[hit, first]
        attempts[pending[hit]] = spent + first + 1
        pending = pending[~hit]
        spent += c
    return curves, attempts


def sample_conditional(
    spec: ConditionalSpec,
    grid: Grid,
    rng: np.random.Generator,
    budget: int = 10**6,
) -> tuple[LineEnsemble, int]:
    """One exact conditional draw; returns (block, attempts).

    The n = 1 case of sample_conditional_batch: the attempt count is geometric
    with mean 1/Z, so tiny normalizers exhaust the budget and raise.
    """
    curves, attempts = sample_conditional_batch(spec, grid, rng, 1, budget=budget)
    ia, ib = _slice_indices(grid, spec)
    sub_grid = Grid(float(grid.points[ia]), float(grid.points[ib]), ib - ia + 1)
    return LineEnsemble(sub_grid, curves[0]), int(attempts[0])


def mcmc_sweep(
    state: LineEnsemble,
    outer: BoundaryData,
    h: Hamiltonian,
    rng: np.random.Generator,
    block: tuple[int, int, float, float],
) -> LineEnsemble:
    """Replace one block (curve range, sub-interval) by an exact conditional draw.

    Boundary data for the block is read from the current state: entrance and
    exit values at the sub-interval ends, and the neighbor curves (or the
    outer boundary) above and below. A systematic scan over a covering list
    of blocks makes one full sweep.
    """
    i1, i2, a, b = block
    if not (1 <= i1 <= i2 <= state.k):
        raise LengthMismatch(f"block curves {i1}..{i2} outside 1..{state.k}")
    grid = state.grid
    ia, ib = grid.index_of(a), grid.index_of(b)
    if outer.k != state.k:
        raise LengthMismatch("outer boundary data must describe every curve of the state")
    upper = Curve(grid, state.curves[i1 - 2]) if i1 >= 2 else outer.upper
    lower = Curve(grid, state.curves[i2]) if i2 <= state.k - 1 else outer.lower
    sub_boundary = BoundaryData(
        x_vec=state.curves[i1 - 1 : i2, ia],
        y_vec=state.curves[i1 - 1 : i2, ib],
        upper=upper,
        lower=lower,
    )
    sub_spec = ConditionalSpec(
        k1=i1, k2=i2, interval=(a, b), boundary=sub_boundary, hamiltonian=h
    )
    draw, _ = sample_conditional(sub_spec, grid, rng)
    new_curves = state.curves.copy()
    new_curves[i1 - 1 : i2, ia : ib + 1] = draw.curves
    return LineEnsemble(grid, new_curves)


def first_hitting_domain(
    curve: Curve,
    level: float,
    left_search: tuple[float, float],
    right_search: tuple[float, float],
) -> StoppingDomain:
    """Scan for the level from the outside in; values >= level count as hits.

    Left scan: the returned point is the last grid point strictly below the
    level before the first hit inside [l0, l1]; right scan mirrors this on
    [r0, r1]. When the level is hit immediately (at l0 or r1) the sentinel is
    that endpoint with the hit flag true; when it is never hit inside a search
    window, the sentinel is the outer endpoint with the hit flag false.
    """
    grid = curve.grid
    l0, l1 = left_search
    r0, r1 = right_search
    il0, il1 = grid.index_of(l0), grid.index_of(l1)
    ir0, ir1 = grid.index_of(r0), grid.index_of(r1)
    if not (il0 < il1 <= ir0 < ir1):
        raise InvalidInterval(
            f"search windows must be ordered: {left_search} then {right_search}"
        )
    vals = curve.values
    pts = grid.points

    left_hits = np.flatnonzero(vals[il0 : il1 + 1] >= level)
    if left_hits.size == 0:
        left, hit_left = float(pts[il0]), False
    else:
        j = il0 + int(left_hits[0])
        left, hit_left = float(pts[max(j - 1, il0)]), True

    right_hits = np.flatnonzero(vals[ir0 : ir1 + 1] >= level)
    if right_hits.size == 0:
        right, hit_right = float(pts[ir1]), False
    else:
        j = ir0 + int(right_hits[-1])
        right, hit_right = float(pts[min(j + 1, ir1)]), True

    return StoppingDomain(left=left, right=right, hit_left=hit_left, hit_right=hit_right)


# ---------------------------------------------------------------------------
# Single-site heat bath and the monotone coupling built on shared uniforms.
# ---------------------------------------------------------------------------

# Soft penalties: each site law is inverted on a short per-row lattice shared
# by all S states. A COARSE_POINTS pass spans the states' free means plus
# LATTICE_HALF_WIDTH free standard deviations (widened per row, at most
# MAX_WIDEN times, until each outermost cell holds under TAIL_MASS of the
# mass) and keeps the nodes above KEEP_DENSITY times each state's peak, plus
# one on each side. LATTICE_POINTS fine points cover the union of the kept
# intervals, the density is interpolated log-linearly between them, and each
# cell's mass and in-cell inverse are closed form.
# Error bound, tests/test_gibbs.py::TestSiteLawError: site-law KS distance
# (sigma^2 = 1/128, trap = 1/64, t in {1, 8, 100, 1000}, with and without
# neighbours, and coupled pairs) at most 2e-5. Measured: at most 9e-7, and
# 1.1e-5 for t = 1000 with a neighbour above squeezing the site 0.3 below its
# mean; the 1024-point trapezoid lattice this replaced measured 1.2e-5 to
# 2.0e-5. The hard wall's site law is a truncated Gaussian, drawn exactly:
# KS against scipy.stats.truncnorm at most 1e-10, measured at most 3e-13
# (old lattice: 1.3e-3 near the mean, 0.29 for a window 30 sigma off).
# The path weights themselves carry the trapezoid rule's grid error, bound in
# tests/test_gibbs.py::TestLogWeight::test_trapezoid_grid_error_of_soft_weights:
# one curve on [0, 1] over a floor at -0.3, spacing 1/32 against 1/64, moves
# the normalizer by at most 1 % at t = 1000 and 0.2 % at t = 100 (measured
# 0.5 % and 0.08 %). The separation runner's free reference weight in its
# default geometry (one curve pinned at 1 on [-2, 2] over clip(-u^2/2, -1, 1),
# off the window (-1, 1)), same spacings, moves by at most 0.1 % at t = 100
# and at t = 1000 (measured -0.005 % and -0.001 %, SE 0.005 % and 0.013 %),
# bound in ...::test_trapezoid_grid_error_of_separation_free_weights.
LATTICE_POINTS = 320
COARSE_POINTS = 64
KEEP_DENSITY = math.exp(-36.0)  # ~2e-16 of the peak: lower nodes carry no mass
LOG_FLOOR = -1000.0  # exp underflows to 0 long before; keeps log slopes finite
LOG_LINEAR_MIN = 1e-5  # cells with a flatter log slope fall back to trapezoid
TAIL_MASS = 1e-12
LATTICE_HALF_WIDTH = 8.0  # in units of the free conditional standard deviation
MAX_WIDEN = 40  # lattice widenings per site before giving up
END_OFFSET = 1e-6  # truncated-Gaussian draws this close to an end (in sigma) are placed from it


def _site_gaussian(pts: np.ndarray, j: int):
    dt0 = pts[j] - pts[j - 1]
    dt1 = pts[j + 1] - pts[j]
    w1 = dt0 / (dt0 + dt1)
    sigma = math.sqrt(dt0 * dt1 / (dt0 + dt1))
    trap = 0.5 * (dt0 + dt1)  # quadrature mass carried by this site
    return w1, sigma, trap


# The site kernels below work in place on (B, m) lattice arrays, in the same
# operation order as the plain formulas, so results are bit-for-bit the same:
# fresh temporaries of this size cost more in page faults than the arithmetic.


def _site_log_density(vs, mu, sigma, above, below, trap, h: Hamiltonian):
    # vs (B, m); mu/above/below (B, 1); -0.5 ((vs - mu) / sigma)^2 - trap * pen
    logd = vs - mu
    logd /= sigma
    np.square(logd, out=logd)
    logd *= -0.5
    # a sentinel neighbour (+inf above, -inf below) adds H(-inf) = 0: skip it
    pen = None
    if not np.isposinf(above).all():
        pen = h.integrand(vs - above)
    if not np.isneginf(below).all():
        lower = h.integrand(below - vs)
        pen = lower if pen is None else pen + lower
    if pen is not None:
        logd -= trap * pen
    return logd


def _log_linear_cells(logd):
    """Cell masses of exp(logd) interpolated log-linearly between lattice points.

    Works in place on logd (B, m), which must sit on a uniform lattice per row,
    and leaves it holding density / peak. Returns (cells, slopes), both
    (B, m-1): each cell's mass over its width, (d1 - d0) / (l1 - l0), or
    (d0 + d1) / 2 where the log step l1 - l0 is flatter than LOG_LINEAR_MIN,
    and the log steps themselves. None when some row has no finite log density.
    """
    peak = logd.max(axis=1, keepdims=True)
    if not np.isfinite(peak).all():
        return None
    logd -= peak
    np.maximum(logd, LOG_FLOOR, out=logd)
    slopes = logd[:, 1:] - logd[:, :-1]
    d = np.exp(logd, out=logd)
    cells = d[:, 1:] - d[:, :-1]
    steep = slopes >= LOG_LINEAR_MIN
    steep |= slopes <= -LOG_LINEAR_MIN
    np.divide(cells, slopes, out=cells, where=steep)
    if not steep.all():
        flat = ~steep
        cells[flat] = 0.5 * (d[:, 1:][flat] + d[:, :-1][flat])
    return cells, slopes


def _invert_log_linear(vs, cells, slopes, u):
    """Exact inverse at u (B,) of the CDF of _log_linear_cells; nondecreasing in u."""
    cdf = np.zeros(vs.shape)
    np.cumsum(cells, axis=1, out=cdf[:, 1:])
    target = u * cdf[:, -1]
    idx = (cdf < target[:, None]).sum(axis=1)
    idx = np.clip(idx, 1, cdf.shape[1] - 1)
    rows = np.arange(cdf.shape[0])
    c0 = cdf[rows, idx - 1]
    c1 = cdf[rows, idx]
    v0 = vs[rows, idx - 1]
    x = slopes[rows, idx - 1]
    q = np.where(c1 > c0, (target - c0) / np.maximum(c1 - c0, 1e-300), 0.0)
    q = np.clip(q, 0.0, 1.0)
    # the cell fraction s below the draw solves q = expm1(s x) / expm1(x); for
    # x > 0 solve the reflected cell so expm1 never overflows
    up = x > 0
    x = np.where(up, -x, x)
    q = np.where(up, 1.0 - q, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log1p(q * np.expm1(x)) / x
    s = np.where(x < 0, s, q)  # a flat cell is linear in q
    s = np.where(up, 1.0 - s, s)
    return v0 + np.clip(s, 0.0, 1.0) * (vs[rows, idx] - v0)


def _lattice(lo, hi, base):
    vs = (hi - lo)[:, None] * base[None, :]
    vs += lo[:, None]
    return vs


def _lattice_draws(mu_list, sigma, above_list, below_list, trap, h, u):
    """Inverse-CDF draws of soft-penalty site laws on one shared lattice."""
    lo = np.minimum.reduce(mu_list) - LATTICE_HALF_WIDTH * sigma
    hi = np.maximum.reduce(mu_list) + LATTICE_HALF_WIDTH * sigma
    # a steep penalty pushes the density off the free mean: cover the neighbours
    for above in above_list:
        fin = np.isfinite(above)
        lo = np.where(fin, np.minimum(lo, np.where(fin, above, lo) - 2 * sigma), lo)
    for below in below_list:
        fin = np.isfinite(below)
        hi = np.where(fin, np.maximum(hi, np.where(fin, below, hi) + 2 * sigma), hi)
    states = list(zip(mu_list, above_list, below_list))

    def log_densities(vs):
        return [
            _site_log_density(vs, mu[:, None], sigma, ab[:, None], be[:, None], trap, h)
            for mu, ab, be in states
        ]

    coarse = np.linspace(0.0, 1.0, COARSE_POINTS)
    for _ in range(MAX_WIDEN):
        log_dens = log_densities(_lattice(lo, hi, coarse))
        fits = [_log_linear_cells(logd) for logd in log_dens]
        if any(f is None for f in fits):
            width = hi - lo
            lo = lo - 0.5 * width
            hi = hi + 0.5 * width
            continue
        bad = np.zeros(lo.shape[0], dtype=bool)
        for cells, _ in fits:
            tail = TAIL_MASS * cells.sum(axis=1)
            bad |= cells[:, 0] > tail
            bad |= cells[:, -1] > tail
        if not bad.any():
            break
        span = hi - lo
        lo = np.where(bad, lo - 0.5 * span, lo)
        hi = np.where(bad, hi + 0.5 * span, hi)
    else:
        raise OrderViolationInput("site density never fit on the value lattice")
    # log_dens now hold density / peak; log-concavity makes each kept node
    # set an interval, so its first and last node bound it
    first = COARSE_POINTS - 1
    last = 0
    for dens in log_dens:
        keep = dens >= KEEP_DENSITY
        first = np.minimum(first, keep.argmax(axis=1) - 1)
        last = np.maximum(last, COARSE_POINTS - keep[:, ::-1].argmax(axis=1))
    first = np.maximum(first, 0)
    last = np.minimum(last, COARSE_POINTS - 1)
    span = hi - lo
    vs = _lattice(span * coarse[first] + lo, span * coarse[last] + lo,
                  np.linspace(0.0, 1.0, LATTICE_POINTS))
    fits = [_log_linear_cells(logd) for logd in log_densities(vs)]
    if any(f is None for f in fits):
        raise OrderViolationInput("site density vanished on the value lattice")
    return [_invert_log_linear(vs, cells, slopes, u) for cells, slopes in fits]


def _end_offset(share, e, step, log_mass, width):
    """z-distance s inward (direction step) from window end e below which the
    window holds `share` of its mass, for the end's log-linear density
    phi(e) exp(-c s), c = step e: accurate to s^2 for s <= END_OFFSET, +inf
    where e is not finite. A window narrower than END_OFFSET takes its mass
    from its z-width, since its ends may sit ulps of mu apart."""
    c, cw = step * e, step * e * width
    q = share * np.where(  # share of the window mass over phi(e)
        width <= END_OFFSET, width * np.where(cw == 0.0, 1.0, -np.expm1(-cw) / cw),
        np.exp(log_mass + 0.5 * e * e) * math.sqrt(2 * math.pi))
    s = q * np.where(c * q == 0.0, 1.0, -np.log1p(-c * q) / (c * q))  # (1 - exp(-c s)) / c = q
    return np.where(np.isnan(s), np.inf, s)


def _truncated_gaussian(mu, sigma, lo, hi, u):
    """Inverse-CDF draw of N(mu, sigma^2) restricted to [lo, hi], exact (to
    END_OFFSET^2 relative within END_OFFSET sigma of an end, see _end_offset).

    Returns (values, log_mass) with log_mass the log Gaussian mass of the
    window. Values are nondecreasing in mu, lo, hi and u. A window above the
    mean is reflected into the lower tail, where log_ndtr and ndtri_exp keep
    windows far out in the tail finite; log_mass is not finite only for a
    window whose mass is not representable (zero width, or beyond log_ndtr's
    range).
    """
    if np.any(lo > hi):
        raise OrderViolationInput("hard-wall neighbours cross at a site")
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    flip = a > -b
    lo_z = np.where(flip, -b, a)
    hi_z = np.where(flip, -a, b)
    p = np.where(flip, 1.0 - u, u)
    log_hi = log_ndtr(hi_z)
    ratio = np.exp(log_ndtr(lo_z) - log_hi)  # Phi(lo_z) / Phi(hi_z), in [0, 1]
    # p = 0 against an open side would give -inf: floor at the least normal double
    mass = np.maximum(p + (1.0 - p) * ratio, np.finfo(float).tiny)
    z = ndtri_exp(log_hi + np.log(mass))
    v = mu + sigma * np.where(flip, -z, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_mass = log_hi + np.log1p(-ratio)
        # a draw within END_OFFSET of an end is placed from that end: the round
        # trip above and mu + sigma z would land it ulps off, unordered in mu
        width = (hi - lo) / sigma
        off_lo = _end_offset(p, lo_z, 1.0, log_mass, width)
        off_hi = _end_offset(np.where(flip, u, 1.0 - u), hi_z, -1.0, log_mass, width)
        inward = sigma * np.where(flip, -1.0, 1.0)
        near = np.where(off_hi < off_lo, np.where(flip, lo, hi) - inward * off_hi,
                        np.where(flip, hi, lo) + inward * off_lo)
    v = np.where(np.minimum(off_lo, off_hi) <= END_OFFSET, near, v)
    # rounding can land an ulp outside the window: project back (clip is
    # monotone in all three arguments, so coupling order survives)
    return np.clip(v, lo, hi), log_mass


def _site_draw(mu_list, sigma, above_list, below_list, trap, h, u):
    """Inverse-CDF site draws for one or two states from one shared uniform.

    mu_list/above_list/below_list hold (B,) arrays, one per state. The hard
    wall draws each state's truncated Gaussian exactly and builds no lattice;
    any other Hamiltonian is inverted on the short log-linear lattice described
    above LATTICE_POINTS. Each draw is nondecreasing in its mean, its
    neighbours and u, and on the shared lattice the states' densities keep
    their likelihood-ratio order, so a pair ordered in its inputs stays
    ordered; the final max only absorbs ulp-level rounding.
    """
    if isinstance(h, OrderedHamiltonian):
        draws = [
            _truncated_gaussian(mu, sigma, be, ab, u)[0]
            for mu, ab, be in zip(mu_list, above_list, below_list)
        ]
    else:
        draws = _lattice_draws(mu_list, sigma, above_list, below_list, trap, h, u)
    if len(draws) == 2:
        draws[1] = np.maximum(draws[1], draws[0])
    return draws


def _boundary_row(boundary, grid: Grid) -> np.ndarray:
    return boundary_values(boundary, grid, 0, grid.n - 1)


def _scan(states, outers, grid: Grid, h: Hamiltonian, u: np.ndarray) -> tuple:
    """One systematic single-site scan of S stacked (B, k, n) states.

    Each state has its own outer boundary data, and all of them are driven by
    the same uniforms u of shape (B, k, n-2), so S = 1 is the plain chain and
    S = 2 the monotone coupling. Site order: curves top to bottom, interior
    grid points left to right. Endpoint values stay pinned. Returns new arrays.
    """
    k, n = states[0].shape[1:]
    pts = grid.points
    # row 0 holds the upper boundary and row k + 1 the lower one
    stacks = []
    for s, o in zip(states, outers):
        up, low = (np.broadcast_to(_boundary_row(b, grid), (s.shape[0], 1, n)) for b in (o.upper, o.lower))
        stacks.append(np.concatenate([up, s, low], axis=1))
    for i in range(1, k + 1):
        for j in range(1, n - 1):
            w1, sigma, trap = _site_gaussian(pts, j)
            mus = [(1.0 - w1) * st[:, i, j - 1] + w1 * st[:, i, j + 1] for st in stacks]
            above = [st[:, i - 1, j] for st in stacks]
            below = [st[:, i + 1, j] for st in stacks]
            draws = _site_draw(mus, sigma, above, below, trap, h, u[:, i - 1, j - 1])
            for st, v in zip(stacks, draws):
                st[:, i, j] = v
    return tuple(st[:, 1:-1].copy() for st in stacks)


def heat_bath_scan_batch(
    curves: np.ndarray,
    grid: Grid,
    outer: BoundaryData,
    h: Hamiltonian,
    u: np.ndarray,
) -> np.ndarray:
    """One systematic single-site scan of a (B, k, n) batch; u has shape (B, k, n-2).

    Site order: curves top to bottom, interior grid points left to right.
    Endpoint values stay pinned. Returns a new array. Under the hard wall the
    scan keeps the grid skeleton's law, not the exact samplers' continuum law.
    """
    return _scan([curves], [outer], grid, h, u)[0]


def heat_bath_sweep(
    state: LineEnsemble, outer: BoundaryData, h: Hamiltonian, rng: np.random.Generator
) -> LineEnsemble:
    """One single-site heat-bath sweep of a full ensemble."""
    u = rng.random((1, state.k, state.grid.n - 2))
    new = heat_bath_scan_batch(state.curves[None], state.grid, outer, h, u)
    return LineEnsemble(state.grid, new[0])


def coupled_scan_batch(
    lo_curves: np.ndarray,
    hi_curves: np.ndarray,
    grid: Grid,
    outer_lo: BoundaryData,
    outer_hi: BoundaryData,
    h: Hamiltonian,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One coupled scan: both states updated site by site from shared uniforms.

    For convex nondecreasing interactions the site conditionals are ordered by
    likelihood ratio in every conditioning value, so sharing the uniform
    through the inverse CDF preserves lo <= hi pointwise, exactly. Under the
    hard wall both states target the grid skeleton's law.
    """
    return _scan([lo_curves, hi_curves], [outer_lo, outer_hi], grid, h, u)


def monotone_coupled_sweep(
    lo: LineEnsemble,
    hi: LineEnsemble,
    outer_lo: BoundaryData,
    outer_hi: BoundaryData,
    h: Hamiltonian,
    shared_rng: np.random.Generator,
) -> tuple[LineEnsemble, LineEnsemble]:
    """One coupled heat-bath sweep of an ordered pair of states.

    Preconditions: lo <= hi pointwise (including boundary data) and the
    Hamiltonian convex nondecreasing; the hard ordering wall is allowed when
    both states are strictly ordered, where its site conditionals are
    truncated Gaussians, drawn exactly by inverse CDF; they target the grid
    skeleton's law, not the exact samplers' continuum law. Marginally each
    state evolves by the plain heat-bath kernel; jointly the order is
    preserved at every site.
    """
    if lo.grid != hi.grid:
        raise GridMismatch("coupled states must share a grid")
    # a +inf or -inf sentinel row compares correctly against any value
    for what, a, b in (
        ("initial states", lo.curves, hi.curves),
        ("upper boundaries", _boundary_row(outer_lo.upper, lo.grid), _boundary_row(outer_hi.upper, lo.grid)),
        ("lower boundaries", _boundary_row(outer_lo.lower, lo.grid), _boundary_row(outer_hi.lower, lo.grid)),
        ("entrance values", outer_lo.x_vec, outer_hi.x_vec),
        ("exit values", outer_lo.y_vec, outer_hi.y_vec),
    ):
        if np.any(a > b):
            raise OrderViolationInput(f"{what} are not ordered")
    u = shared_rng.random((1, lo.k, lo.grid.n - 2))
    new_lo, new_hi = coupled_scan_batch(
        lo.curves[None], hi.curves[None], lo.grid, outer_lo, outer_hi, h, u
    )
    return LineEnsemble(lo.grid, new_lo[0]), LineEnsemble(hi.grid, new_hi[0])
