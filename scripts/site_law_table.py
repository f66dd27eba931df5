#!/usr/bin/env python3
"""Print the KS distance of each soft heat-bath site law the tests bound.

For each penalty scale t in T_VALUES and each case of SOFT_SITE_CASES (one
state, or two states drawn together on one shared lattice), it draws the site
at SITE_U's 8000 midpoint uniforms with `gibbs._site_draw` at the package's
current lattice constants, and prints, per state,

    KS = sup_u |F_ref(draw(u)) - u|,

F_ref the site law's CDF by trapezoid on a 2^18-point lattice. The site scale
is that of a 1/64-spaced grid. tests/test_gibbs.py::TestSiteLawError asserts
these same numbers against its bound. Run it with

    PYTHONPATH=src python3 scripts/site_law_table.py
"""

import argparse
import math

import numpy as np

from gibbslines.core import ScaledExpHamiltonian
from gibbslines.gibbs import LATTICE_POINTS, _site_buffers, _site_draw

SITE_SIGMA = math.sqrt(1.0 / 128.0)
SITE_TRAP = 1.0 / 64.0
SITE_U = (np.arange(8000) + 0.5) / 8000
T_VALUES = (1.0, 8.0, 100.0, 1000.0)

# (mean, above, below) per state
SOFT_SITE_CASES = {
    "free": [(0.0, math.inf, -math.inf)],
    "near": [(0.0, math.inf, -0.15)],
    "squeeze": [(0.0, -0.3, -math.inf)],
    "both": [(0.0, 0.15, -0.15)],
    "pair": [(0.0, 0.2, -0.2), (0.4, 0.6, 0.2)],
    "free_pair": [(0.0, math.inf, -math.inf), (0.3, math.inf, -math.inf)],
}


def site_columns(states, rows):
    """(mu, above, below), each (S, rows, 1): state s's values in every row."""
    return [np.repeat(np.array(col, dtype=float)[:, None, None], rows, axis=1) for col in zip(*states)]


def site_draws(h, states, u=SITE_U):
    """(S, rows) site draws of S states, one row per uniform."""
    mu, above, below = site_columns(states, u.shape[0])
    work = _site_buffers(len(states), u.shape[0])
    return _site_draw(mu, SITE_SIGMA, above, below, SITE_TRAP, h, u[:, None], work)[..., 0]


def reference_law(h, mu, above, below, points=2**18):
    """(CDF, density) of the plain site density by trapezoid on a fine lattice
    wide enough for every case (the CDF at most 1e-9 off the exact one here)."""
    lo = min(mu, above) - 14 * SITE_SIGMA
    hi = max(mu, below) + 14 * SITE_SIGMA
    v = np.linspace(lo, hi, points + 1)
    logd = -0.5 * ((v - mu) / SITE_SIGMA) ** 2 - SITE_TRAP * (
        h.integrand(v - above) + h.integrand(below - v)
    )
    d = np.exp(logd - logd.max())
    c = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]))])
    pdf = d / (c[-1] * (v[1] - v[0]))
    return (lambda x: np.interp(x, v, c / c[-1])), (lambda x: np.interp(x, v, pdf))


def soft_ks(t, case):
    """KS distance of each state of SOFT_SITE_CASES[case] at penalty scale t."""
    h = ScaledExpHamiltonian(t)
    states = SOFT_SITE_CASES[case]
    return [float(np.max(np.abs(reference_law(h, *state)[0](draw) - SITE_U)))
            for state, draw in zip(states, site_draws(h, states))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    print(f"LATTICE_POINTS = {LATTICE_POINTS}")
    print(f"{'t':>6}  {'case':<10} {'state':>5}  {'KS':>9}")
    table = {(t, case): soft_ks(t, case) for t in T_VALUES for case in sorted(SOFT_SITE_CASES)}
    for (t, case), ks in table.items():
        for state, value in enumerate(ks):
            print(f"{t:6g}  {case:<10} {state:5d}  {value:9.3g}")
    worst = {key: max(ks) for key, ks in table.items()}
    t, case = max(worst, key=worst.get)
    print(f"worst {worst[t, case]:.3g} (t = {t:g} {case}); median over the {len(worst)} "
          f"(t, case) pairs of their worst state {np.median(list(worst.values())):.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
