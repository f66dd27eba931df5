"""Conditional resampling engine for Boltzmann-reweighted bridge ensembles.

A block of curves on a sub-interval, given entrance/exit values and the
curves (or infinite sentinels) directly above and below, is distributed as
independent Brownian bridges reweighted by

    W = exp( - sum_pairs integral over the interval of H(lower - upper) du )

where the pair sum runs over (upper boundary, curve 1), all adjacent curve
pairs, and (curve k, lower boundary); infinite sentinels drop their term.
W lies in (0, 1] and Z = E_free[W] normalizes the conditional law.

Every weight goes through one prepared block, _block(spec, grid), built once
per (spec, grid): the interval's grid indices and points, the boundary rows
with sentinels filled in, and H. A block always weighs its whole interval.
Its log_weights is the only weight evaluator; log_boltzmann_weight,
estimate_Z, the exact samplers and the separation runners all call it (a
weight over several intervals is the sum of their blocks' weights). It
evaluates H only on the pairs that carry weight: a sentinel pair (its gap is
-inf, and H(-inf) = 0) is never formed.

The hard wall stands for continuum non-crossing: its one weight is the exact
probability that bridges through the grid values never cross, free of the grid
indicator's O(sqrt(spacing)) bias. The heat bath's hard-wall site law, a Gaussian
truncated to the neighbours, keeps the grid skeleton's law instead.
estimate_Z and the exact samplers take one entrance/exit row per draw from a
(B, k) spec: B rows cost one Python call.

scipy.special is imported at the first truncated-Gaussian draw (the hard-wall
heat bath and the band draws of the separation runners), not with this module,
so ordering runs, soft heat-bath chains, estimate_Z and the exact samplers
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
REJECTION_BUDGET = 10**6  # candidates per draw before the exact samplers give up


@dataclass(frozen=True)
class ConditionalSpec:
    """Everything defining one conditional block: curve range, interval,
    boundary data and Hamiltonian."""

    k1: int
    k2: int
    interval: tuple[float, float]
    boundary: BoundaryData
    hamiltonian: Hamiltonian

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


class _Block(NamedTuple):
    """One conditional block prepared on one grid; the only weight evaluator.

    span holds the interval's grid indices and pts its m grid points; upper
    and lower are the boundary rows on pts, sentinels filled in. The weight
    covers the whole interval.
    """

    span: slice
    pts: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    h: Hamiltonian

    def log_weights(self, batch: np.ndarray) -> np.ndarray:
        """Log Boltzmann weight of each ensemble of a (size, k, m) batch.

        The hard wall takes the exact per-segment non-crossing log
        probabilities of every weighted pair, a segment's variance being its
        length times the pair's sigma2. Any other H is evaluated only on the
        weighted pairs: their H rows are summed in order and get one
        trapezoid, so the result is bitwise that of the full-stack formula.
        """
        pairs = _weighted_pairs(batch, self.upper, self.lower)
        total = np.zeros(batch.shape[0])
        if isinstance(self.h, OrderedHamiltonian):
            dt = np.diff(self.pts)
            for above, below, sigma2 in pairs:
                d = above - below  # positive where ordered
                total += segment_log_survival(d[:, :-1], d[:, 1:], sigma2 * dt).sum(axis=1)
            return total
        if not pairs:
            return -total
        # gap convention: lower row minus upper row; ordered configurations are negative
        gaps = np.empty((batch.shape[0], len(pairs), self.pts.shape[0]))
        for p, (above, below, _) in enumerate(pairs):
            np.subtract(below, above, out=gaps[:, p])
        integrand = self.h.integrand(gaps).sum(axis=1)
        return -np.trapezoid(integrand, x=self.pts, axis=1)


def _block(spec: ConditionalSpec, grid: Grid) -> _Block:
    ia, ib = (grid.index_of(v) for v in spec.interval)
    if ib - ia < 1:
        raise InvalidInterval("interval spans fewer than two grid points")
    upper = boundary_values(spec.boundary.upper, grid, ia, ib)
    lower = boundary_values(spec.boundary.lower, grid, ia, ib)
    return _Block(slice(ia, ib + 1), grid.points[ia : ib + 1], upper, lower, spec.hamiltonian)


def _free_candidates(pts: np.ndarray, boundary: BoundaryData, rows: np.ndarray, rng) -> np.ndarray:
    """Free ensembles on pts, candidate i pinned by entrance/exit row rows[i]
    of a (B, k) boundary, or by the one row of a (k,) boundary."""
    x, y = boundary.x_vec, boundary.y_vec
    if x.ndim == 2:
        x, y = x[rows], y[rows]
    return free_ensemble_batch(pts, x, y, rng, rows.size)


def log_boltzmann_weight(ens: LineEnsemble, spec: ConditionalSpec) -> float:
    """Log weight of one ensemble; 0 means weight 1, -inf means forbidden.

    It is the one weight that estimate_Z averages. The ensemble must hold
    exactly the block curves, on a grid with the ends of `spec.interval` as
    grid points (boundary curves live on the same grid); the weight reads
    the interval's columns only.
    """
    if ens.k != spec.n_curves:
        raise LengthMismatch(f"ensemble has {ens.k} curves, spec wants {spec.n_curves}")
    blk = _block(spec, ens.grid)
    return float(blk.log_weights(ens.curves[None, :, blk.span])[0])


def estimate_Z(spec: ConditionalSpec, grid: Grid, n: int, seed: int) -> McEstimate:
    """MC estimate of the conditional normalizer Z = E_free[W] in (0, 1].

    A (B, k) spec gives (B,) mean and stderr: row b averages n free ensembles,
    rows taking theirs in turn from one default_rng(seed) stream, built and
    weighed at most Z_BATCH curves at a time (chunks do not move the stream).
    """
    blk = _block(spec, grid)
    lw = np.empty(spec.boundary.x_vec.shape[:-1] + (n,))
    flat = lw.reshape(-1)
    chunk = max(1, Z_BATCH // spec.n_curves)
    rng = np.random.default_rng(seed)
    for e0 in range(0, flat.size, chunk):
        m = min(chunk, flat.size - e0)
        rows = np.arange(e0, e0 + m) // n  # entrance/exit row of each candidate
        flat[e0 : e0 + m] = blk.log_weights(_free_candidates(blk.pts, spec.boundary, rows, rng))
    return McEstimate.from_samples(np.exp(lw), seed)


def sample_conditional_batch(
    spec: ConditionalSpec,
    grid: Grid,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """n independent exact conditional draws; returns (curves, attempts).

    curves has shape (n, k, m) on the interval's m grid points; draw i follows
    row i of a (n, k) spec. Each round draws ceil(CANDIDATE_BATCH / p) free
    candidates for each of the p pending draws, in draw order; a candidate with
    log weight lw is accepted when log U <= lw, and a draw takes its first
    accepted one. attempts[i] counts the candidates drawn for draw i, i.i.d.
    geometric with mean 1/Z_i. All pending draws have spent the same count; at
    REJECTION_BUDGET the call raises instead of looping forever.
    """
    blk = _block(spec, grid)
    rows_shape = spec.boundary.x_vec.shape
    if rows_shape[:-1] not in ((), (n,)):
        raise LengthMismatch(f"entrance/exit rows {rows_shape} for {n} draws")
    curves = np.empty((n, spec.n_curves, blk.pts.shape[0]))
    attempts = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    spent = 0  # candidates drawn by each pending draw
    while pending.size:
        if spent >= REJECTION_BUDGET:
            raise RejectionBudgetExhausted(REJECTION_BUDGET, f"block {spec.k1}..{spec.k2} on {spec.interval}")
        p = pending.size
        c = min(-(-CANDIDATE_BATCH // p), REJECTION_BUDGET - spent)
        rows = np.repeat(pending, c)  # entrance/exit row of each candidate
        cand = _free_candidates(blk.pts, spec.boundary, rows, rng)
        accepted = (np.log(rng.random(p * c)) <= blk.log_weights(cand)).reshape(p, c)
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
) -> tuple[LineEnsemble, int]:
    """One exact conditional draw; returns (block, attempts).

    The n = 1 case of sample_conditional_batch: the attempt count is geometric
    with mean 1/Z, so tiny normalizers exhaust REJECTION_BUDGET and raise.
    """
    curves, attempts = sample_conditional_batch(spec, grid, rng, 1)
    a, b = spec.interval
    return LineEnsemble(Grid(float(a), float(b), curves.shape[2]), curves[0]), int(attempts[0])


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
# by all S states. LATTICE_POINTS points span the states' free means plus
# LATTICE_HALF_WIDTH free standard deviations, about 0.1 of them apart,
# widened per row (at most MAX_WIDEN times) until each outermost cell holds
# under TAIL_MASS of the mass: a free state's edge cell holds about 6e-10, and
# at most about 2e-9 is left outside, four orders below the KS bound. The
# density is interpolated log-linearly between the points; each cell's mass
# and in-cell inverse are closed form, and the masses are corrected for the
# curvature of the log density (_correct_curvature), which takes their error
# from O(dx^2) to O(dx^4). Only where the nodes above KEEP_DENSITY times some
# state's peak, plus one on each side, leave out an end of some row does a
# second pass span them.
# Error bound, tests/test_gibbs.py::TestSiteLawError: site-law KS distance
# (sigma^2 = 1/128, trap = 1/64, t in {1, 8, 100, 1000}, with and without
# neighbours, and coupled pairs: 24 (t, case) pairs) at most 2e-5. Measured
# by scripts/site_law_table.py, worst and median over the 24 pairs:
#   120 points over 6 sigma, one pass (these constants)  8.6e-6 (t = 1000 pair)     3.3e-6
#   160 points over 8 sigma, coarse pass first           6.9e-6 (t = 1000 pair)     3.3e-6
#   128 points over 8 sigma, coarse pass first           1.4e-5 (t = 1000 pair)     6.4e-6
#   320 points, log-linear only                          1.1e-5 (t = 1000 squeeze)  4.6e-7
#   240 points, log-linear only                          2.0e-5 (t = 1000 squeeze)  1.0e-6
#   160 points, log-linear only                          4.5e-5 (t = 1000 squeeze)  3.4e-6
# The squeeze is a neighbour above pressing the site 0.3 below its mean, where
# the penalty bends the log density most. On a uniform lattice the Gaussian
# part's constant curvature scales every cell by one factor, which the
# normalization cancels: hence the low log-linear medians. The 1024-point
# trapezoid lattice of earlier versions measured 1.2e-5 to 2.0e-5.
# The hard wall's site law is a truncated Gaussian, drawn exactly: KS against
# scipy.stats.truncnorm at most 1e-10, measured at most 3e-13 (old lattice:
# 1.3e-3 near the mean, 0.29 for a window 30 sigma off).
# The path weights themselves carry the trapezoid rule's grid error, bound in
# tests/test_gibbs.py::TestLogWeight::test_trapezoid_grid_error_of_soft_weights:
# one curve on [0, 1] over a floor at -0.3, spacing 1/32 against 1/64, moves
# the normalizer by at most 1 % at t = 1000 and 0.2 % at t = 100 (measured
# 0.5 % and 0.08 %). The separation runner's free reference weight in its
# default geometry (one curve pinned at 1 on [-2, 2] over clip(-u^2/2, -1, 1),
# off the window (-1, 1)), same spacings, moves by at most 0.1 % at t = 100
# and at t = 1000 (measured -0.005 % and -0.001 %, SE 0.005 % and 0.013 %),
# bound in ...::test_trapezoid_grid_error_of_separation_free_weights.
LATTICE_POINTS = 120
KEEP_DENSITY = math.exp(-36.0)  # ~2e-16 of the peak: lower nodes carry no mass
LOG_FLOOR = -1000.0  # exp underflows to 0 long before; keeps log slopes finite
TAIL_MASS = 1e-8
LATTICE_HALF_WIDTH = 6.0  # in units of the free conditional standard deviation
MAX_WIDEN = 40  # lattice widenings per site before giving up
END_OFFSET = 1e-6  # truncated-Gaussian draws this close to an end (in sigma) are placed from it


def _site_gaussian(pts: np.ndarray, j: int):
    dt0 = pts[j] - pts[j - 1]
    dt1 = pts[j + 1] - pts[j]
    w1 = dt0 / (dt0 + dt1)
    sigma = math.sqrt(dt0 * dt1 / (dt0 + dt1))
    trap = 0.5 * (dt0 + dt1)  # quadrature mass carried by this site
    return w1, sigma, trap


# The soft site kernels run once per site for all S states: mu, above and
# below are (S, B, 1) against one (B, LATTICE_POINTS) lattice per row, shared
# by the states. They write into one _SiteLattice that _scan allocates once per
# scan, and keep the plain formulas' operation order, so every draw is
# bit-for-bit that of one call per state on fresh arrays (tests/test_gibbs.py::
# TestStackedScanMatchesPerStateReference). Fresh arrays of this size pass
# glibc's mmap threshold and fault their pages in on every call: a coupled scan
# of 250 chains on 17 points took about 44,000 minor faults that way, and
# about 130 on these buffers. Arrays whose lifetimes do not overlap share
# storage: the two penalty scratches with the cells and slopes, and the
# curvature factors and CDF with the log density.
_BASE = np.linspace(0.0, 1.0, LATTICE_POINTS)


class _SiteLattice(NamedTuple):
    """Work arrays of the soft site kernels: m = LATTICE_POINTS, S states, B rows."""

    vs: np.ndarray  # (B, m) lattice values
    logd: np.ndarray  # (S, B, m) log density, then density / peak, then curvature factors, then the CDF
    gap_up: np.ndarray  # (S, B, m) penalty scratch; shares storage with cells
    gap_low: np.ndarray  # (S, B, m) penalty scratch; shares storage with slopes
    cells: np.ndarray  # (S, B, m-1)
    slopes: np.ndarray  # (S, B, m-1)
    ends: np.ndarray  # (S, B, m-1) -|slope|, then the density at each cell's higher end
    mask: np.ndarray  # (S, B, m) bool: kept nodes, then CDF below target


def _site_buffers(states: int, rows: int) -> _SiteLattice:
    """The soft kernels' _SiteLattice for S states and B rows."""
    m = LATTICE_POINTS
    full, cut = (states, rows, m), (states, rows, m - 1)
    size, n_cut = states * rows * m, states * rows * (m - 1)
    real = np.empty((4, size))
    return _SiteLattice(
        vs=np.empty((rows, m)),
        logd=real[0].reshape(full),
        gap_up=real[1].reshape(full),
        gap_low=real[2].reshape(full),
        cells=real[1, :n_cut].reshape(cut),
        slopes=real[2, :n_cut].reshape(cut),
        ends=real[3, :n_cut].reshape(cut),
        mask=np.empty(full, dtype=bool),
    )


def _site_log_density(mu, sigma, above, below, trap, h: Hamiltonian, w: _SiteLattice):
    """-0.5 ((vs - mu) / sigma)^2 - trap * pen into w.logd (S, B, m), from w.vs."""
    logd = np.subtract(w.vs, mu, out=w.logd)
    logd /= sigma
    np.square(logd, out=logd)
    logd *= -0.5
    # a sentinel neighbour (+inf above, -inf below) adds trap * H(-inf) = +0.0,
    # which leaves logd as it is: skip the side when every state's row is one
    pen = None
    if not np.isposinf(above).all():
        pen = h.integrand(np.subtract(w.vs, above, out=w.gap_up))
    if not np.isneginf(below).all():
        lower = h.integrand(np.subtract(below, w.vs, out=w.gap_low))
        pen = lower if pen is None else np.add(pen, lower, out=w.gap_up)
    if pen is not None:
        logd -= np.multiply(trap, pen, out=w.gap_up)
    return logd


def _log_linear_cells(w: _SiteLattice):
    """Cell masses of exp(logd) interpolated log-linearly between lattice points.

    Works in place on w.logd (S, B, m), which must sit on a uniform lattice per
    row, and leaves it holding density / peak. Fills and returns (w.cells,
    w.slopes), both (S, B, m-1): each cell's exact mass over its width,
    d0 expm1(s) / s for the log step s = l1 - l0 (d0 where s = 0), taken from
    the cell's higher end as d_hi expm1(-|s|) / -|s| so that it cannot
    overflow, and the log steps themselves. None when some row has no finite
    log density.
    """
    logd = w.logd
    peak = logd.max(axis=2, keepdims=True)
    if not np.isfinite(peak).all():
        return None
    logd -= peak
    np.maximum(logd, LOG_FLOOR, out=logd)
    slopes = np.subtract(logd[..., 1:], logd[..., :-1], out=w.slopes)
    d = np.exp(logd, out=logd)
    # -|s|, kept below 0 so that a flat cell reads expm1(-tiny) / -tiny = 1
    neg = np.copysign(slopes, -1.0, out=w.ends)
    np.minimum(neg, -1e-300, out=neg)
    cells = np.expm1(neg, out=w.cells)
    cells /= neg
    cells *= np.maximum(d[..., 1:], d[..., :-1], out=w.ends)
    return cells, slopes


def _correct_curvature(w: _SiteLattice):
    """Scale each of w.cells by max(0, 1 - k / 12), in place.

    k is the mean of the log density's second differences (steps of w.slopes)
    at the cell's two end nodes, or the one at its interior node for the two
    end cells. Over a cell of width dx where the log density has curvature
    c, its integral is the log-linear chord's mass times 1 - c dx^2 / 12, up
    to O(dx^4) relative, and k is about c dx^2: so the corrected masses are
    off by O(dx^4) where the uncorrected ones are off by O(dx^2). Uses w.logd
    as scratch, so call it after the density there is spent.
    """
    s = w.slopes
    c = w.logd[..., :-1]  # 2 k per cell: the sum of its end nodes' second differences
    np.subtract(s[..., 2:], s[..., :-2], out=c[..., 1:-1])
    c[..., 0] = 2.0 * (s[..., 1] - s[..., 0])
    c[..., -1] = 2.0 * (s[..., -1] - s[..., -2])
    c /= 24.0
    np.subtract(1.0, c, out=c)
    np.maximum(c, 0.0, out=c)
    np.multiply(w.cells, c, out=w.cells)


def _invert_log_linear(w: _SiteLattice, u):
    """Exact inverse at u (B, 1) of each state's CDF of w.cells, log-linear
    within each cell, as (S, B, 1); nondecreasing in u. The CDF overwrites
    w.logd."""
    cdf = w.logd
    cdf[..., 0] = 0.0
    np.cumsum(w.cells, axis=2, out=cdf[..., 1:])
    target = u * cdf[..., -1:]
    idx = np.less(cdf, target, out=w.mask).sum(axis=2, keepdims=True)
    idx = np.clip(idx, 1, cdf.shape[2] - 1)
    c0 = np.take_along_axis(cdf, idx - 1, axis=2)
    c1 = np.take_along_axis(cdf, idx, axis=2)
    v0 = np.take_along_axis(w.vs[None], idx - 1, axis=2)
    v1 = np.take_along_axis(w.vs[None], idx, axis=2)
    x = np.take_along_axis(w.slopes, idx - 1, axis=2)
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
    return v0 + np.clip(s, 0.0, 1.0) * (v1 - v0)


def _lattice(lo, hi, out):
    """lo + (hi - lo) * _BASE into out (B, m), for lo and hi (B, 1)."""
    np.multiply(hi - lo, _BASE, out=out)
    out += lo
    return out


def _lattice_draws(mu, sigma, above, below, trap, h, u, w: _SiteLattice):
    """Inverse-CDF draws (S, B, 1) of soft-penalty site laws on one shared lattice."""
    lo = mu.min(axis=0) - LATTICE_HALF_WIDTH * sigma
    hi = mu.max(axis=0) + LATTICE_HALF_WIDTH * sigma
    # a steep penalty pushes the density off the free mean: cover the neighbours
    lo = np.minimum(lo, np.where(np.isfinite(above), above - 2 * sigma, np.inf).min(axis=0))
    hi = np.maximum(hi, np.where(np.isfinite(below), below + 2 * sigma, -np.inf).max(axis=0))
    for _ in range(MAX_WIDEN):
        _lattice(lo, hi, w.vs)
        _site_log_density(mu, sigma, above, below, trap, h, w)
        fit = _log_linear_cells(w)
        bad = True  # a row with no finite density widens every row
        if fit is not None:
            tail = TAIL_MASS * fit[0].sum(axis=2, keepdims=True)
            bad = ((fit[0][..., :1] > tail) | (fit[0][..., -1:] > tail)).any(axis=0)
            if not bad.any():
                break
        span = hi - lo
        lo = np.where(bad, lo - 0.5 * span, lo)
        hi = np.where(bad, hi + 0.5 * span, hi)
    else:
        raise OrderViolationInput("site density never fit on the value lattice")
    # w.logd now holds density / peak. A row trims at an end where no state
    # keeps either of that end's two nodes; log-concavity makes each state's
    # kept nodes an interval, so its first and last node bound it
    d = w.logd
    m = LATTICE_POINTS
    if (d[..., :2] < KEEP_DENSITY).all(axis=(0, 2)).any() or (d[..., -2:] < KEEP_DENSITY).all(axis=(0, 2)).any():
        keep = np.greater_equal(d, KEEP_DENSITY, out=w.mask)
        first = np.maximum(keep.argmax(axis=2, keepdims=True).min(axis=0) - 1, 0)
        last = np.minimum((m - keep[..., ::-1].argmax(axis=2, keepdims=True)).max(axis=0), m - 1)
        span = hi - lo
        _lattice(span * _BASE[first] + lo, span * _BASE[last] + lo, w.vs)
        _site_log_density(mu, sigma, above, below, trap, h, w)
        if _log_linear_cells(w) is None:
            raise OrderViolationInput("site density vanished on the value lattice")
    _correct_curvature(w)
    return _invert_log_linear(w, u)


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


def _gaussian_window(mu, sigma, lo, hi):
    """[lo, hi] under N(mu, sigma^2) in z units, reflected into the lower tail
    where it lies above the mean so that log_ndtr keeps far windows finite:
    (flip, lo_z, hi_z, log Phi(hi_z), Phi(lo_z) / Phi(hi_z), log mass). The
    log mass is not finite only for a window whose mass is not representable
    (zero width, or beyond log_ndtr's range)."""
    # deferred: importing scipy.special costs a fresh process about 0.15 s
    from scipy.special import log_ndtr

    if np.any(lo > hi):
        raise OrderViolationInput("hard-wall neighbours cross at a site")
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    flip = a > -b
    lo_z = np.where(flip, -b, a)
    hi_z = np.where(flip, -a, b)
    log_hi = log_ndtr(hi_z)
    ratio = np.exp(log_ndtr(lo_z) - log_hi)  # Phi(lo_z) / Phi(hi_z), in [0, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_mass = log_hi + np.log1p(-ratio)
    return flip, lo_z, hi_z, log_hi, ratio, log_mass


def _truncated_gaussian(mu, sigma, lo, hi, u):
    """Inverse-CDF draw of N(mu, sigma^2) restricted to [lo, hi], exact (to
    END_OFFSET^2 relative within END_OFFSET sigma of an end, see _end_offset).

    Returns (values, log_mass), log_mass that of _gaussian_window. Values are
    nondecreasing in mu, lo, hi and u.
    """
    return _window_inverse(mu, sigma, lo, hi, u, _gaussian_window(mu, sigma, lo, hi))


def _window_inverse(mu, sigma, lo, hi, u, window):
    """_truncated_gaussian from the window's _gaussian_window tuple; ndtri_exp
    keeps draws far out in the tail finite."""
    from scipy.special import ndtri_exp  # deferred, as in _gaussian_window

    flip, lo_z, hi_z, log_hi, ratio, log_mass = window
    p = np.where(flip, 1.0 - u, u)
    # p = 0 against an open side would give -inf: floor at the least normal double
    mass = np.maximum(p + (1.0 - p) * ratio, np.finfo(float).tiny)
    z = ndtri_exp(log_hi + np.log(mass))
    v = mu + sigma * np.where(flip, -z, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _site_draw(mu, sigma, above, below, trap, h, u, work):
    """Inverse-CDF site draws (S, B, 1) of S states from one shared uniform.

    mu, above and below are (S, B, 1) and u is (B, 1); work is
    _site_buffers(S, B), the soft kernels' work arrays. The hard wall draws
    every state's truncated Gaussian exactly in one call and builds no lattice;
    any other Hamiltonian is inverted on the short log-linear lattice described
    above LATTICE_POINTS, one call for all states. Each draw is nondecreasing
    in u, and the final max absorbs what crossing is left. The hard wall's
    draws are nondecreasing in the mean, the neighbours and u, so they cross
    by a few ulps of the value at most.
    On the shared soft lattice the states' densities keep their
    likelihood-ratio order, and so do their exact log-linear cell masses. The
    curvature factors max(0, 1 - k/12) are each state's own, so that order
    no longer holds by construction: the factors' ratio between two states is
    1 + O(dx^2) and changes little from cell to cell, so it can undo the
    density ratio's rise only where that rise is as small. In measurements
    what crosses is rounding. Each cell mass is exact to a few ulps, and a
    CDF off by c eps in probability (eps the machine epsilon) moves a draw v
    by c eps / f(v), f the state's site density: two soft states may cross
    by a few eps (1/f_lo + 1/f_hi), no ulp-level amount near v = 0 or in the
    tails. Over 20,000 random ordered pairs (scripts/site_law_table.py
    --pairs 20000) they cross by at most 2.02 of these; TestSiteCoupling
    allows 8. Cells taken as (d1 - d0) / s crossed by up to 307, since the
    quotient loses eps / |s| to cancellation in the flat cells.
    """
    if isinstance(h, OrderedHamiltonian):
        draws = _truncated_gaussian(mu, sigma, below, above, u)[0]
    else:
        draws = _lattice_draws(mu, sigma, above, below, trap, h, u, work)
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
    grid points left to right; each site is one _site_draw call for all S
    states, on work arrays allocated once here. Endpoint values stay pinned.
    Returns new arrays.
    """
    b, k, n = states[0].shape
    if any(s.shape != (b, k, n) for s in states) or u.shape != (b, k, n - 2):
        shapes = ", ".join(str(s.shape) for s in states)
        raise LengthMismatch(f"scan needs states of one (B, k, n) shape and u of shape (B, k, n-2); got {shapes} and u {u.shape}")
    pts = grid.points
    # (S, B, k + 2, n): row 0 holds the upper boundary and row k + 1 the lower one
    st = np.empty((len(states), b, k + 2, n))
    for s, state, o in zip(st, states, outers):
        s[:, 0] = _boundary_row(o.upper, grid)
        s[:, 1:-1] = state
        s[:, -1] = _boundary_row(o.lower, grid)
    work = _site_buffers(len(states), b)
    for i in range(1, k + 1):
        for j in range(1, n - 1):
            w1, sigma, trap = _site_gaussian(pts, j)
            mu = (1.0 - w1) * st[:, :, i, j - 1, None] + w1 * st[:, :, i, j + 1, None]
            above = st[:, :, i - 1, j, None]
            below = st[:, :, i + 1, j, None]
            st[:, :, i, j, None] = _site_draw(mu, sigma, above, below, trap, h, u[:, i - 1, j - 1, None], work)
    return tuple(s[:, 1:-1].copy() for s in st)


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
    """One single-site heat-bath sweep of a full ensemble.

    Where the penalty is inactive a soft site draw is mu + sigma Phi^-1(u),
    so two chains on shared uniforms differ by a Gauss-Seidel sweep of the
    Dirichlet Laplacian: their gap contracts by cos^2(pi / (n - 1)) per sweep
    on n grid points, about (n - 1)^2 / pi^2 sweeps per e-fold (26 at 17
    points, 415 at 65). mcmc_sweep's exact block draws mix in one sweep.
    """
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
    preserved at every site. Where the penalty is inactive the gap hi - lo
    contracts by cos^2(pi / (n - 1)) per sweep on n grid points, about
    (n - 1)^2 / pi^2 sweeps per e-fold (see heat_bath_sweep).
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
