"""Exact sampling of Brownian bridges and independent-bridge ensembles.

All bridges use diffusion parameter 1. Sampling walks the grid left to right:
conditionally on the value v at u_j and the pinned endpoint y at b, the value
at u_{j+1} is Gaussian with mean v + (y - v) (u_{j+1} - u_j) / (b - u_j) and
variance (u_{j+1} - u_j)(b - u_{j+1}) / (b - u_j). This is exact at the grid
points for any (possibly nonuniform) strictly increasing point array.

With r_j = b - u_j the step reads (v_{j+1} - y) / r_{j+1} = (v_j - y) / r_j
+ z_j sqrt((u_{j+1} - u_j) / (r_j r_{j+1})), so the whole walk is one
cumulative sum of scaled normals. On tall batches that sum is a sweep over the
columns, each step one vectorised add across the rows: the same additions in
the same order as a row-wise cumsum, so the same bits.
"""

from __future__ import annotations

import numpy as np

from .core import Curve, Grid, LineEnsemble
from .errors import LengthMismatch

# From this many rows on, bridge_batch sums column by column. numpy's
# cumsum(axis=1) adds sequentially along each row and does not vectorise
# across rows (about 2.4 ns per element); the column sweep pays a fixed cost
# per column instead. Measured on a 2-core VM (numpy 2.4), the sweep wins from
# 256-384 rows on for 17-513 grid points: 4000 x 127 takes 1232-1307 us by
# cumsum against 327-447 us by sweep, 32 x 65 takes 7 us against 45 us.
SWEEP_ROWS = 512


def bridge_batch(
    points: np.ndarray, x, y, rng: np.random.Generator, size: int, out: np.ndarray | None = None
) -> np.ndarray:
    """size independent bridges over `points`; returns array (size, len(points)).

    x and y may be scalars or length-size arrays (one endpoint pair per row).
    With `out`, a (size, len(points)) float64 array or strided view, the
    bridges are written there and `out` is returned; otherwise into a fresh
    array. Either way the draws are the same, bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise LengthMismatch("need at least two points to bridge")
    if out is None:
        out = np.empty((size, n))
    elif out.shape != (size, n):
        raise LengthMismatch(f"out has shape {out.shape}, bridges need {(size, n)}")
    out[:, 0] = x
    out[:, -1] = y
    if n > 2:
        # the normals become the interior values in place: no further (size, n) temporaries
        z = rng.standard_normal((size, n - 2))
        rem = pts[-1] - pts
        z *= np.sqrt(np.diff(pts)[:-1] / (rem[:-2] * rem[1:-1]))
        if size >= SWEEP_ROWS:
            for j in range(1, n - 2):
                np.add(z[:, j - 1], z[:, j], out=z[:, j])
        else:
            np.cumsum(z, axis=1, out=z)
        z += ((out[:, 0] - out[:, -1]) / rem[0])[:, None]
        z *= rem[1:-1]
        z += out[:, -1:]
        out[:, 1:-1] = z
    return out


def sample_bridge(grid: Grid, x: float, y: float, rng: np.random.Generator) -> Curve:
    """One Brownian bridge from (a, x) to (b, y) on the grid."""
    vals = bridge_batch(grid.points, x, y, rng, 1)[0]
    return Curve(grid, vals)


def free_ensemble_batch(
    points: np.ndarray,
    x_vec: np.ndarray,
    y_vec: np.ndarray,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """size independent k-curve free ensembles, shape (size, k, n); the
    entrance/exit data are (k,), shared, or (size, k), one row per ensemble."""
    x_vec = np.asarray(x_vec, dtype=np.float64)
    y_vec = np.asarray(y_vec, dtype=np.float64)
    if x_vec.shape != y_vec.shape or x_vec.ndim == 0 or x_vec.shape[:-1] not in ((), (size,)):
        raise LengthMismatch("entrance and exit data must share one (k,) or (size, k) shape")
    k = x_vec.shape[-1]
    x, y = (np.broadcast_to(v, (size, k)).ravel() for v in (x_vec, y_vec))
    flat = bridge_batch(points, x, y, rng, size * k)
    return flat.reshape(size, k, points.shape[0])


def sample_free_ensemble(
    grid: Grid, x_vec: np.ndarray, y_vec: np.ndarray, rng: np.random.Generator
) -> LineEnsemble:
    """k independent bridges with per-curve endpoint pins; no interaction."""
    curves = free_ensemble_batch(grid.points, x_vec, y_vec, rng, 1)[0]
    return LineEnsemble(grid, curves)
