import math

import numpy as np
import pytest
from scipy import stats

from gibbslines.bridge_sampler import (
    SWEEP_ROWS,
    bridge_batch,
    free_ensemble_batch,
    sample_bridge,
    sample_free_ensemble,
)
from gibbslines.core import Grid
from gibbslines.errors import LengthMismatch


def test_endpoints_pinned_exactly():
    rng = np.random.default_rng(0)
    pts = np.linspace(0, 3, 41)
    vals = bridge_batch(pts, 1.25, -0.5, rng, 100)
    assert np.all(vals[:, 0] == 1.25)
    assert np.all(vals[:, -1] == -0.5)


def test_midpoint_moments():
    rng = np.random.default_rng(1)
    pts = np.linspace(0, 1, 5)
    vals = bridge_batch(pts, 0.0, 0.0, rng, 200000)
    mid = vals[:, 2]
    assert abs(mid.mean()) < 0.005
    assert mid.var() == pytest.approx(0.25, rel=0.02)
    # Cov(B(s), B(t)) = s (1 - t) for s <= t
    cov = np.mean(vals[:, 1] * vals[:, 3])
    assert cov == pytest.approx(0.0625, abs=0.003)


def test_midpoint_marginal_law():
    rng = np.random.default_rng(2)
    pts = np.linspace(0, 1, 9)
    vals = bridge_batch(pts, 0.0, 0.0, rng, 5000)
    res = stats.kstest(vals[:, 4], "norm", args=(0.0, 0.5))
    assert res.pvalue > 1e-3


def test_interior_marginal_with_drift():
    # bridge from x to y: value at u ~ N(x + (u-a)(y-x)/(b-a), (u-a)(b-u)/(b-a))
    rng = np.random.default_rng(3)
    pts = np.array([2.0, 2.5, 3.2, 4.0])
    x, y = 1.0, -2.0
    vals = bridge_batch(pts, x, y, rng, 5000)
    u = pts[2]
    mean = x + (u - 2.0) * (y - x) / 2.0
    sd = np.sqrt((u - 2.0) * (4.0 - u) / 2.0)
    res = stats.kstest(vals[:, 2], "norm", args=(mean, sd))
    assert res.pvalue > 1e-3


def test_brownian_rescaling():
    # B_T(T u) / sqrt(T) is a bridge on [0, 1]
    big_t = 9.0
    rng = np.random.default_rng(4)
    pts_unit = np.linspace(0, 1, 17)
    a = bridge_batch(pts_unit, 0.0, 0.0, rng, 4000)[:, 8]
    b = bridge_batch(big_t * pts_unit, 0.0, 0.0, rng, 4000)[:, 8] / np.sqrt(big_t)
    res = stats.ks_2samp(a, b)
    assert res.pvalue > 1e-3


def test_vector_endpoints_broadcast():
    rng = np.random.default_rng(5)
    pts = np.linspace(0, 1, 3)
    xs = np.arange(4.0)
    ys = -np.arange(4.0)
    vals = bridge_batch(pts, xs, ys, rng, 4)
    assert np.array_equal(vals[:, 0], xs)
    assert np.array_equal(vals[:, -1], ys)


def test_determinism():
    pts = np.linspace(0, 1, 33)
    a = bridge_batch(pts, 0.0, 1.0, np.random.default_rng(42), 8)
    b = bridge_batch(pts, 0.0, 1.0, np.random.default_rng(42), 8)
    assert np.array_equal(a, b)


def _column_recurrence(points, x, y, rng, size):
    """Reference: the left-to-right Gaussian step of the module docstring,
    one grid column at a time."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    out = np.empty((size, n))
    out[:, 0] = x
    yv = np.broadcast_to(np.asarray(y, dtype=np.float64), (size,))
    z = rng.standard_normal((size, n - 2))
    b = pts[-1]
    for j in range(n - 2):
        dt = pts[j + 1] - pts[j]
        rem = b - pts[j]
        mean = out[:, j] + (dt / rem) * (yv - out[:, j])
        sd = math.sqrt(dt * (b - pts[j + 1]) / rem)
        out[:, j + 1] = mean + sd * z[:, j]
    out[:, -1] = yv
    return out


@pytest.mark.parametrize(
    "pts, x, y, size",
    [
        (np.linspace(0.0, 1.0, 65), 0.3, -0.2, 32),
        (np.linspace(-2.0, 2.0, 129), 1.0, 1.0, 96),
        (np.cumsum(np.random.default_rng(1).uniform(0.01, 0.2, 50)), 0.0, 2.0, 100),
        (np.array([0.0, 0.25, 1.0]), -1.0, 0.5, 10),
        (np.linspace(0.0, 1.0, 17), np.arange(5.0), -np.arange(5.0), 5),
        (np.linspace(0.0, 1.0, 65), 0.3, -0.2, SWEEP_ROWS),
        (np.cumsum(np.random.default_rng(2).uniform(0.01, 0.2, 40)), 1.0, -1.0, SWEEP_ROWS + 37),
        (np.linspace(0.0, 1.0, 9), np.linspace(-1, 1, 600), np.linspace(2, 0, 600), 600),
        (np.array([0.0, 0.25, 1.0]), -1.0, 0.5, SWEEP_ROWS),
    ],
    ids=[
        "uniform", "uniform-129", "nonuniform", "three-point", "per-row",
        "uniform-sweep", "nonuniform-sweep", "per-row-sweep", "three-point-sweep",
    ],
)
def test_matches_column_recurrence(pts, x, y, size):
    rng, rng_ref = np.random.default_rng(17), np.random.default_rng(17)
    vals = bridge_batch(pts, x, y, rng, size)
    ref = _column_recurrence(pts, x, y, rng_ref, size)
    assert np.abs(vals - ref).max() <= 1e-12
    assert np.array_equal(vals[:, 0], np.broadcast_to(x, (size,)))
    assert np.array_equal(vals[:, -1], np.broadcast_to(y, (size,)))
    # both consumed the same normals: the generators are in the same state
    assert rng.random() == rng_ref.random()


def _cumsum_formula(points, x, y, rng, size):
    """Reference: the walk as one row-wise np.cumsum of the scaled normals."""
    pts = np.asarray(points, dtype=np.float64)
    out = np.empty((size, pts.shape[0]))
    out[:, 0] = x
    out[:, -1] = y
    rem = pts[-1] - pts
    z = rng.standard_normal((size, pts.shape[0] - 2))
    z *= np.sqrt(np.diff(pts)[:-1] / (rem[:-2] * rem[1:-1]))
    z = np.cumsum(z, axis=1)
    z += ((out[:, 0] - out[:, -1]) / rem[0])[:, None]
    z *= rem[1:-1]
    z += out[:, -1:]
    out[:, 1:-1] = z
    return out


@pytest.mark.parametrize("into", ["fresh", "out"])
@pytest.mark.parametrize("size", [SWEEP_ROWS - 1, SWEEP_ROWS])
@pytest.mark.parametrize("n", [4, 33, 129])
def test_column_sweep_is_bitwise_the_cumsum(size, n, into):
    # both sides of the threshold: the sweep makes the cumsum's additions in its order
    pts = np.cumsum(np.random.default_rng(n).uniform(0.01, 0.2, n))
    x, y = np.linspace(-1.0, 1.0, size), 0.5
    rng, ref_rng = np.random.default_rng(size), np.random.default_rng(size)
    expected = _cumsum_formula(pts, x, y, ref_rng, size)
    if into == "fresh":
        got = bridge_batch(pts, x, y, rng, size)
    else:
        # curve 1 of a (size, 3, n + 4) batch, two columns in from each side
        batch = np.random.default_rng(0).standard_normal((size, 3, n + 4))
        before = batch.copy()
        view = batch[:, 1, 2 : n + 2]
        assert bridge_batch(pts, x, y, rng, size, out=view) is view
        got = view.copy()
        batch[:, 1, 2 : n + 2] = before[:, 1, 2 : n + 2]
        assert np.array_equal(batch, before)
        with pytest.raises(LengthMismatch):
            bridge_batch(pts, x, y, np.random.default_rng(0), size, out=batch[:, 1, 1 : n + 2])
    assert np.array_equal(got, expected)
    assert rng.random() == ref_rng.random()


def test_too_few_points_rejected():
    with pytest.raises(LengthMismatch):
        bridge_batch(np.array([0.0]), 0.0, 0.0, np.random.default_rng(0), 1)


def test_sample_bridge_returns_curve():
    grid = Grid(0.0, 1.0, 17)
    c = sample_bridge(grid, 0.5, -0.5, np.random.default_rng(7))
    assert c.values[0] == 0.5 and c.values[-1] == -0.5
    assert c.grid is grid


class TestFreeEnsemble:
    def test_shape_and_pins(self):
        rng = np.random.default_rng(8)
        pts = np.linspace(0, 1, 9)
        x = np.array([2.0, 0.0, -2.0])
        y = np.array([1.0, 0.0, -1.0])
        batch = free_ensemble_batch(pts, x, y, rng, 7)
        assert batch.shape == (7, 3, 9)
        assert np.all(batch[:, :, 0] == x)
        assert np.all(batch[:, :, -1] == y)

    def test_curves_independent(self):
        rng = np.random.default_rng(9)
        pts = np.linspace(0, 1, 5)
        batch = free_ensemble_batch(pts, np.zeros(2), np.zeros(2), rng, 50000)
        r = np.corrcoef(batch[:, 0, 2], batch[:, 1, 2])[0, 1]
        assert abs(r) < 0.02

    def test_mismatched_vectors_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(LengthMismatch):
            free_ensemble_batch(np.linspace(0, 1, 5), np.zeros(2), np.zeros(3), rng, 1)
        with pytest.raises(LengthMismatch):  # one row per ensemble, or one shared row
            free_ensemble_batch(np.linspace(0, 1, 5), np.zeros((3, 2)), np.zeros((3, 2)), rng, 4)

    def test_per_ensemble_rows(self):
        pts = np.linspace(0, 1, 9)
        x = np.array([2.0, 0.0, -2.0])
        y = np.array([1.0, 0.0, -1.0])
        shared = free_ensemble_batch(pts, x, y, np.random.default_rng(12), 5)
        rows = free_ensemble_batch(pts, np.tile(x, (5, 1)), np.tile(y, (5, 1)), np.random.default_rng(12), 5)
        assert np.array_equal(shared, rows)
        xs = np.arange(15.0).reshape(5, 3)
        batch = free_ensemble_batch(pts, xs, -xs, np.random.default_rng(13), 5)
        assert np.array_equal(batch[:, :, 0], xs) and np.array_equal(batch[:, :, -1], -xs)

    def test_ensemble_wrapper(self):
        grid = Grid(-1.0, 1.0, 9)
        ens = sample_free_ensemble(grid, np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.random.default_rng(11))
        assert ens.k == 2
        assert ens.curve(1).values[0] == 1.0
        assert ens.curve(2).values[0] == -1.0
