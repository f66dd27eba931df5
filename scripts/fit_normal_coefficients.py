#!/usr/bin/env python3
"""Fit the piecewise polynomial behind gibbslines._normal.log_ndtr.

For a = |x| the lower tail is written

    log Phi(-a) = G(q) - log1p(a / K) - a^2 / 2,    q = P a / (a + K),

which maps a in [0, inf) onto q in [0, P). G is smooth on [0, P]: the Mills
ratio Phi(-a) / phi(a) is about 1 / a, so G tends to -log(K sqrt(2 pi)) as a
grows, and G(0) = log(1/2). Each unit piece [i, i + 1] of q gets one
polynomial of degree DEGREE in the local variable u = q - i, fitted by
mpmath.chebyfit at 40 digits. The script prints, per piece, chebyfit's error
estimate and the largest error of the float64 polynomial against mpmath on
PROBES points of the piece (both absolute in G, so relative in Phi(-a)), then
the table as Python source for _normal._LOG_MILLS, one row per piece, highest
power first. Run it with

    PYTHONPATH=src python3 scripts/fit_normal_coefficients.py [--check]

With --check it exits 1 unless the table equals the one in gibbslines._normal.
The inverse, _normal.ndtri_exp, fits nothing: it uses Wichura's AS241, whose
coefficients the Python standard library carries in
statistics._normal_dist_inv_cdf.
"""

import argparse
import sys

import mpmath as mp
import numpy as np

PIECES = 32  # P
SCALE = 4.0  # K
DEGREE = 7
PROBES = 201
mp.mp.dps = 40


def target(q):
    """G(q) = log Phi(-a) + a^2 / 2 + log1p(a / K) at a = K q / (P - q)."""
    if q >= PIECES:
        return -mp.log(SCALE * mp.sqrt(2 * mp.pi))
    a = SCALE * q / (PIECES - q)
    return mp.log(mp.erfc(a / mp.sqrt(2)) / 2) + a * a / 2 + mp.log1p(a / SCALE)


def fit_piece(i):
    coeffs, estimate = mp.chebyfit(lambda u: target(i + u), [0, 1], DEGREE + 1, error=True)
    row = [float(c) for c in coeffs]
    worst = 0.0
    for u in np.linspace(0.0, 1.0, PROBES):
        got = 0.0
        for c in row:  # the float64 Horner of _normal._log_mills
            got = got * u + c
        worst = max(worst, abs(float(mp.mpf(got) - target(i + mp.mpf(u)))))
    return row, float(estimate), worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with gibbslines._normal")
    args = parser.parse_args(argv)
    rows = []
    print(f"# P = {PIECES}, K = {SCALE}, degree {DEGREE}; errors absolute in G")
    print("# piece  q range     a range            chebyfit   float64")
    for i in range(PIECES):
        row, estimate, worst = fit_piece(i)
        rows.append(row)
        a0 = SCALE * i / (PIECES - i)
        a1 = SCALE * (i + 1) / (PIECES - i - 1) if i + 1 < PIECES else float("inf")
        print(f"# {i:5d}  [{i:2d}, {i + 1:2d}]  [{a0:7.3f}, {a1:7.3f}]  {estimate:9.2e}  {worst:9.2e}")
    print("_LOG_MILLS = np.array([")
    for row in rows:
        print("    [" + ", ".join(repr(c) for c in row) + "],")
    print("])")
    if args.check:
        from gibbslines._normal import _LOG_MILLS

        same = np.array_equal(np.asarray(rows), _LOG_MILLS.T)
        print("# matches gibbslines._normal" if same else "# DIFFERS from gibbslines._normal")
        return 0 if same else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
