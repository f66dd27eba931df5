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

With --pairs N it prints instead the worst crossing of two coupled soft states
over N random ordered pairs (a fixed seed, TestSiteCoupling's ranges), drawn
at COUPLING_U with `gibbs._lattice_draws`, before _site_draw's final max:

    max_u (lo(u) - hi(u)) / (eps (1 / f_lo(lo(u)) + 1 / f_hi(hi(u)))),

eps the machine epsilon and f each state's reference density, the units of
tests/test_gibbs.py::TestSiteCoupling::test_soft_draws_keep_the_order's slack.
"""

import argparse
import math

import numpy as np

from gibbslines.core import ScaledExpHamiltonian
from gibbslines.gibbs import LATTICE_POINTS, _lattice_draws, _site_buffers, _site_draw

SITE_SIGMA = math.sqrt(1.0 / 128.0)
SITE_TRAP = 1.0 / 64.0
SITE_U = (np.arange(8000) + 0.5) / 8000
T_VALUES = (1.0, 8.0, 100.0, 1000.0)
# the coupling tests' shared uniforms: [0, 1), ends included
COUPLING_U = np.concatenate([[0.0], (np.arange(255) + 0.5) / 256, [1.0 - 2.0**-53]])
PAIR_SEED = 1

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


def lattice_pair_draws(h, states, u=COUPLING_U):
    """(lo, hi) lattice draws of an ordered pair at u, without the final max."""
    mu, above, below = site_columns(states, u.shape[0])
    work = _site_buffers(2, u.shape[0])
    return _lattice_draws(mu, SITE_SIGMA, above, below, SITE_TRAP, h, u[:, None], work)[..., 0]


def crossing(h, states, draws):
    """Worst lo - hi of the pair's draws in eps (1 / f_lo + 1 / f_hi); at most 0
    when the draws keep their order."""
    lo, hi = draws
    worst = float(np.max(lo - hi))
    if worst <= 0.0:
        return worst
    pdf_lo, pdf_hi = (reference_law(h, *state)[1] for state in states)
    with np.errstate(divide="ignore"):
        scale = np.finfo(float).eps * (1.0 / pdf_lo(lo) + 1.0 / pdf_hi(hi))
        return float(np.max((lo - hi) / scale))


def random_pair(rng):
    """(t, [lo, hi]) with each state (mean, above, below): the ranges of
    TestSiteCoupling::test_soft_draws_keep_the_order. The higher state's mean
    and neighbours are each shifted up by 0 (one time in four) or a
    log-uniform amount from 1e-14 to 0.5; a neighbour is a sentinel one time in
    four, else its offset from the lower mean is uniform on [-0.6, 0.6]."""
    t = float(rng.choice([1.0, 100.0, 1000.0]))
    mu = rng.uniform(-1.0, 1.0)
    shift = [0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-14.0, math.log10(0.5)) for _ in range(3)]
    above = math.inf if rng.random() < 0.25 else mu + rng.uniform(-0.6, 0.6)
    below = -math.inf if rng.random() < 0.25 else mu + rng.uniform(-0.6, 0.6)
    lo = (mu, above, below)
    return t, [lo, tuple(v + d for v, d in zip(lo, shift))]


def worst_crossing(pairs: int, seed: int = PAIR_SEED):
    """(worst crossing, its t, its states, pairs that cross at all) over
    `pairs` random ordered pairs."""
    rng = np.random.default_rng(seed)
    worst, where, crossed = -math.inf, None, 0
    for _ in range(pairs):
        t, states = random_pair(rng)
        h = ScaledExpHamiltonian(t)
        c = crossing(h, states, lattice_pair_draws(h, states))
        crossed += c > 0.0
        if c > worst:
            worst, where = c, (t, states)
    return worst, *where, crossed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=0,
                    help="print the worst coupled crossing over this many random pairs instead")
    args = ap.parse_args(argv)
    print(f"LATTICE_POINTS = {LATTICE_POINTS}")
    if args.pairs > 0:
        worst, t, states, crossed = worst_crossing(args.pairs)
        print(f"worst crossing {worst:.3g} eps (1/f_lo + 1/f_hi) over {args.pairs} pairs (seed "
              f"{PAIR_SEED}); {crossed} pairs cross at all")
        print(f"at t = {t:g}, (mean, above, below): lo = {states[0]!r}, hi = {states[1]!r}")
        return 0
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
