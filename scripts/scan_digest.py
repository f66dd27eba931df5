#!/usr/bin/env python3
"""Print one sha256 line per heat-bath scan shape, for bitwise comparisons.

Each shape runs `heat_bath_scan_batch` or `coupled_scan_batch` from a fixed
start with uniforms from a fixed seed, chains a few scans, and hashes the
bytes of every returned array. The shapes are criterion 4's and criterion 5's
(tests/test_acceptance.py), the six scan shapes of the `heatbath` benchmark
workload, and a coupled pair where only one state has a finite floor.

To check that two source trees give the same scan outputs, run

    PYTHONPATH=src python3 scripts/scan_digest.py > digest.txt

in each tree and compare the two files with `diff`.
"""

import argparse
import hashlib

import numpy as np

from gibbslines.core import (
    MINUS_INF, PLUS_INF, BoundaryData, Grid, OrderedHamiltonian, ScaledExpHamiltonian,
    constant_curve,
)
from gibbslines.gibbs import coupled_scan_batch, heat_bath_scan_batch

G65 = Grid(0.0, 1.0, 65)
G17 = Grid(0.0, 1.0, 17)
G17_WIDE = Grid(-1.0, 1.0, 17)
LO, HI = (0.5, -0.5), (1.0, 0.0)
CRIT5 = (1.5, -1.5)

# label: (grid, Hamiltonian, lower state's levels, upper state's levels or
# None for a plain scan, chains, scans, upper state's floor or None)
SHAPES = {
    "crit4_coupled_t1": (G65, ScaledExpHamiltonian(1.0), LO, HI, 50, 3, None),
    "crit4_coupled_t100": (G65, ScaledExpHamiltonian(100.0), LO, HI, 50, 3, None),
    "crit4_wide_coupled_t1": (G65, ScaledExpHamiltonian(1.0), LO, HI, 1000, 1, None),
    "crit4_wide_plain_t1": (G65, ScaledExpHamiltonian(1.0), LO, None, 1000, 1, None),
    "crit5_plain_t8": (G17_WIDE, ScaledExpHamiltonian(8.0), CRIT5, None, 10_000, 1, None),
    "bench_narrow_coupled_t1": (G65, ScaledExpHamiltonian(1.0), LO, HI, 50, 1, None),
    "bench_narrow_coupled_t100": (G65, ScaledExpHamiltonian(100.0), LO, HI, 50, 1, None),
    "bench_narrow_coupled_hard": (G65, OrderedHamiltonian(), LO, HI, 50, 1, None),
    "bench_wide_coupled_t1": (G17, ScaledExpHamiltonian(1.0), LO, HI, 250, 1, None),
    "bench_wide_plain_t1": (G17, ScaledExpHamiltonian(1.0), LO, None, 250, 1, None),
    "bench_wide_plain_t8": (G17_WIDE, ScaledExpHamiltonian(8.0), CRIT5, None, 250, 1, None),
    "one_floor_coupled_t8": (G17, ScaledExpHamiltonian(8.0), LO, HI, 50, 2, -0.7),
}


def _flat(levels, chains: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.array(levels)[None, :, None], (chains, len(levels), n)).copy()


def _outer(levels, grid: Grid, floor) -> BoundaryData:
    lv = np.array(levels)
    return BoundaryData(lv, lv, PLUS_INF, MINUS_INF if floor is None else constant_curve(grid, floor))


def digest(label: str, seed: int) -> str:
    grid, h, lo_levels, hi_levels, chains, scans, floor = SHAPES[label]
    rng = np.random.default_rng([seed, list(SHAPES).index(label)])
    states = [_flat(lo_levels, chains, grid.n)]
    outers = [_outer(lo_levels, grid, None)]
    if hi_levels is not None:
        states.append(_flat(hi_levels, chains, grid.n))
        outers.append(_outer(hi_levels, grid, floor))
    for _ in range(scans):
        u = rng.random((chains, len(lo_levels), grid.n - 2))
        if len(states) == 1:
            states = [heat_bath_scan_batch(states[0], grid, outers[0], h, u)]
        else:
            states = list(coupled_scan_batch(*states, grid, *outers, h, u))
    sha = hashlib.sha256()
    for state in states:
        sha.update(np.ascontiguousarray(state).tobytes())
    return sha.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of every shape's uniforms")
    args = ap.parse_args(argv)
    for label in SHAPES:
        print(f"{label} {digest(label, args.seed)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
