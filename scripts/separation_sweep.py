#!/usr/bin/env python3
"""Sweep the endpoint-spread parameter M of the separation experiment and fit
the quadratic-shape decay bound log p >= -D (M^2/L + L).

Reproduces the shape study behind results/separation_shape.txt. Heavier
budgets sharpen the importance-sampling estimates; n=100000 takes roughly
20 seconds per M on one core.

    python3 scripts/separation_sweep.py --m-values 1 1.5 2 --n 100000 --out results/separation_shape.txt
"""

import argparse
import math
from pathlib import Path

from gibbslines.experiments import SeparationConfig, run_separation_experiment


def shape_table(rows, k: int, length: float, t: float, n: int, seed: int) -> tuple[float, str]:
    """(D, table) for rows of (M, p): the fitted constant D of the bound
    log p >= -D (M^2/L + L), and the results/separation_shape.txt table of
    each row against its bound."""
    shape = lambda m: m * m / length + length
    d_fit = max(-math.log(p) / shape(m) for m, p in rows)
    lines = [
        f"separation probability vs endpoint spread (k={k}, L={length:g}, "
        f"t={t:g}, n={n}, seed={seed})",
        f"fitted decay constant D = {d_fit:.6g} in the bound log p >= -D (M^2 + 1)"
        if length == 1.0
        else f"fitted decay constant D = {d_fit:.6g} in the bound log p >= -D (M^2/L + L)",
    ]
    for m, p in rows:
        lines.append(
            f"M={m:g}  p={p:.17g}  log_p={math.log(p):.6f}  bound={-d_fit * shape(m):.6f}"
        )
    return d_fit, "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-values", type=float, nargs="+", default=[1.0, 1.5, 2.0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--L", type=float, default=1.0, dest="length")
    ap.add_argument("--t", type=float, default=100.0)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out", default=None, help="also write the table to this file")
    args = ap.parse_args(argv)

    rows = []
    for m in args.m_values:
        cfg = SeparationConfig(
            k=args.k, L=args.length, t=args.t, M=m, n_samples=args.n, seed=args.seed
        )
        rep = run_separation_experiment(cfg)
        p = rep.estimate("separated_endpoints_prob")
        ess = rep.estimate("ess_separated_endpoints").mean
        if not p.mean > 0:
            print(f"M={m:g}: estimate underflowed (ess {ess:.0f}); raise --n")
            return 1
        rows.append((m, p.mean))
        print(f"M={m:g}: p={p.mean:.6g} +- {p.stderr:.2g}  log_p={math.log(p.mean):.4f}  ess={ess:.0f}")

    d_fit, table = shape_table(rows, args.k, args.length, args.t, args.n, args.seed)
    print(f"fitted decay constant D = {d_fit:.6g} in log p >= -D (M^2/L + L)")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
