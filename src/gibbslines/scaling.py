"""The 3:2:1 change of frame between unscaled and KPZ-scaled coordinates.

A curve observed at spatial position u with value v in the unscaled frame
maps, at scale parameter t and curve index n (1-based from the top), to

    x = u / t^(2/3)
    w = (v + t/24) / t^(1/3) + (n - 1) t^(-1/3) log t^(2/3)

The per-index shift keeps consecutive curves a constant log t^(2/3) / t^(1/3)
apart, which is exactly what turns the plain exp(x) interaction in the
unscaled frame into the exp(t^(1/3) x) interaction in the scaled frame.
Brownian bridges with diffusion parameter 1 map to Brownian bridges with
diffusion parameter 1 in either direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Curve, Grid
from .errors import NonPositiveArgument


@dataclass(frozen=True)
class ScalingParams:
    """Scale parameter t > 0 and 1-based curve index n."""

    t: float
    n: int = 1

    def __post_init__(self):
        if not self.t > 0:
            raise NonPositiveArgument(f"scale parameter must be positive, got t={self.t}")
        if self.n < 1:
            raise NonPositiveArgument(f"curve index must be >= 1, got n={self.n}")

    @property
    def spatial(self) -> float:
        return self.t ** (2.0 / 3.0)

    @property
    def height(self) -> float:
        return self.t ** (1.0 / 3.0)

    @property
    def index_shift(self) -> float:
        """Vertical offset given to curve n in the scaled frame."""
        return (self.n - 1) * math.log(self.spatial) / self.height


def scale_to_kpz_frame(path: Curve, p: ScalingParams) -> Curve:
    """Map a curve from the unscaled frame into the scaled frame."""
    g = path.grid
    new_grid = Grid(g.a / p.spatial, g.b / p.spatial, g.n)
    return Curve(new_grid, scale_boundary_value(path.values, p))


def unscale_from_kpz_frame(path: Curve, p: ScalingParams) -> Curve:
    """Exact inverse of scale_to_kpz_frame."""
    g = path.grid
    new_grid = Grid(g.a * p.spatial, g.b * p.spatial, g.n)
    vals = (path.values - p.index_shift) * p.height - p.t / 24.0
    return Curve(new_grid, vals)


def scale_boundary_value(v, p: ScalingParams):
    """Scaled-frame height of an unscaled boundary value (same map as curves)."""
    return (np.asarray(v, dtype=np.float64) + p.t / 24.0) / p.height + p.index_shift


def parabola_shift(path: Curve, sign: int) -> Curve:
    """Add sign * u^2 / 2 to the curve; sign must be +1 or -1."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    u = path.grid.points
    return Curve(path.grid, path.values + sign * 0.5 * u * u)
