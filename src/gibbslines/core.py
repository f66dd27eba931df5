"""Core model types: grids, curves, line ensembles, interaction Hamiltonians.

Conventions used throughout the package:

* curves are indexed from the top, so curve ``i`` is expected to lie above
  curve ``i+1`` when an ordering penalty is active;
* an interaction Hamiltonian is applied to the gap ``lower_curve - upper_curve``,
  which is negative for correctly ordered configurations;
* boundary curves may be the sentinels ``+inf`` (above everything, drops the
  corresponding interaction term) or ``-inf`` (below everything, same).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    GridMismatch,
    InvalidGrid,
    LengthMismatch,
    NonPositiveArgument,
)

# Exponent at which exp() saturates to +inf instead of overflowing.
EXP_SATURATION = 700.0


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n points on [a, b]; endpoints are exact."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidGrid("grid endpoints must be finite")
        if not self.b > self.a:
            raise InvalidGrid(f"need b > a, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise InvalidGrid(f"need at least 2 points, got n={self.n}")
        pts = np.linspace(self.a, self.b, self.n)
        pts.setflags(write=False)
        object.__setattr__(self, "_points", pts)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def index_of(self, x: float) -> int:
        """Index of the grid point equal to x; GridMismatch if x is off-grid."""
        j = int(round((x - self.a) / self.spacing))
        if j < 0 or j >= self.n or abs(self._points[j] - x) > 1e-9 * (self.b - self.a):
            raise GridMismatch(f"{x!r} is not a point of {self}")
        return j

    def __repr__(self):
        return f"Grid(a={self.a}, b={self.b}, n={self.n})"


@dataclass(frozen=True)
class Curve:
    """A real-valued function sampled on a grid. All values must be finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n:
            raise LengthMismatch(
                f"curve has {vals.shape} values for a {self.grid.n}-point grid"
            )
        if not np.isfinite(vals).all():
            raise ValueError("curve values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, x: float) -> float:
        return float(self.values[self.grid.index_of(x)])


def constant_curve(grid: Grid, level: float) -> Curve:
    return Curve(grid, np.full(grid.n, float(level)))


# A boundary curve is either an actual Curve or one of the infinite sentinels.
PLUS_INF = math.inf
MINUS_INF = -math.inf
BoundaryCurve = Union[Curve, float]


def boundary_values(boundary: BoundaryCurve, grid: Grid, i0: int, i1: int) -> np.ndarray:
    """Values of a boundary curve on grid indices [i0, i1], sentinels filled in."""
    if isinstance(boundary, Curve):
        if boundary.grid != grid:
            raise GridMismatch("boundary curve lives on a different grid")
        return boundary.values[i0 : i1 + 1]
    if boundary == math.inf or boundary == -math.inf:
        return np.full(i1 - i0 + 1, boundary)
    raise ValueError(f"boundary must be a Curve or +/-inf, got {boundary!r}")


@dataclass(frozen=True)
class LineEnsemble:
    """k ordered-by-index curves sharing one grid; row 0 is the top curve."""

    grid: Grid
    curves: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.curves, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.grid.n:
            raise LengthMismatch(
                f"ensemble array shape {arr.shape} does not match grid n={self.grid.n}"
            )
        if arr.shape[0] < 1:
            raise LengthMismatch("ensemble needs at least one curve")
        if not np.isfinite(arr).all():
            raise ValueError("ensemble values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "curves", arr)

    @property
    def k(self) -> int:
        return self.curves.shape[0]

    def curve(self, i: int) -> Curve:
        """Curve number i, counted 1-based from the top."""
        if not 1 <= i <= self.k:
            raise IndexError(f"curve index {i} outside 1..{self.k}")
        return Curve(self.grid, self.curves[i - 1])


@dataclass(frozen=True)
class BoundaryData:
    """Entrance/exit values, (k,) or one row per draw (B, k), plus the curves
    (or sentinels) above and below, shared by every row."""

    x_vec: np.ndarray
    y_vec: np.ndarray
    upper: BoundaryCurve
    lower: BoundaryCurve

    def __post_init__(self):
        x = np.asarray(self.x_vec, dtype=np.float64)
        y = np.asarray(self.y_vec, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape != y.shape:
            raise LengthMismatch(
                f"entrance/exit data must share a (k,) or (B, k) shape, got {x.shape} and {y.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("entrance/exit data must be finite")
        if not (isinstance(self.upper, Curve) or self.upper == math.inf):
            raise ValueError("upper boundary must be a Curve or +inf")
        if not (isinstance(self.lower, Curve) or self.lower == -math.inf):
            raise ValueError("lower boundary must be a Curve or -inf")
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x_vec", x)
        object.__setattr__(self, "y_vec", y)

    @property
    def k(self) -> int:
        return self.x_vec.shape[-1]


def _capped_exp(arg: np.ndarray, cap: float) -> np.ndarray:
    """exp(arg), +inf past the cap, computed in place in arg: fresh temporaries
    of (batch, lattice) size cost more in page faults than the arithmetic."""
    over = arg > cap
    np.minimum(arg, cap, out=arg)
    np.exp(arg, out=arg)
    arg[over] = np.inf
    return arg


class Hamiltonian:
    """Interaction applied to the gap (lower curve minus upper curve)."""

    def integrand(self, gaps: np.ndarray) -> np.ndarray:
        """H applied elementwise; must accept +/-inf entries."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScaledExpHamiltonian(Hamiltonian):
    """Penalty exp(t^(1/3) x); hardens toward a strict ordering wall as t grows."""

    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise NonPositiveArgument(f"scale parameter must be positive, got t={self.t}")

    @property
    def rate(self) -> float:
        return self.t ** (1.0 / 3.0)

    def integrand(self, gaps):
        # -inf * 0 never occurs: rate > 0 and gaps of -inf give arg -inf, exp 0.
        # The outer asarray: a 0-d product comes back as a numpy scalar.
        arg = np.asarray(self.rate * np.asarray(gaps, dtype=np.float64))
        return _capped_exp(arg, EXP_SATURATION)


@dataclass(frozen=True)
class ExpHamiltonian(ScaledExpHamiltonian):
    """Soft ordering penalty exp(x): the t = 1 case, whose rate is exactly 1.
    t is pinned, so the type has no settable field."""

    t: float = field(default=1.0, init=False, repr=False)


@dataclass(frozen=True)
class OrderedHamiltonian(Hamiltonian):
    """Hard ordering wall: 0 for gap <= 0, +inf for gap > 0. Nothing in the package
    calls `integrand` (see gibbs): it defines H and is a perfbench trace target."""

    def integrand(self, gaps):
        gaps = np.asarray(gaps, dtype=np.float64)
        return np.where(gaps <= 0, 0.0, np.inf)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error and provenance."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    @classmethod
    def from_samples(cls, samples: np.ndarray, seed: int) -> "McEstimate":
        """Mean and standard error over the last axis: (B,) arrays for (B, n) samples."""
        samples = np.asarray(samples, dtype=np.float64)
        n = samples.shape[-1]
        if n < 1:
            raise LengthMismatch("cannot estimate from zero samples")
        mean = samples.mean(axis=-1)
        stderr = samples.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else 0.0 * mean
        if samples.ndim == 1:
            mean, stderr = float(mean), float(stderr)
        return cls(mean=mean, stderr=stderr, n_samples=n, seed=seed)
