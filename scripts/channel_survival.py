#!/usr/bin/env python3
"""Print deterministic counts of the separation runner's channel proposals.

For the default separation config at each given seed, this runs
`run_separation_experiment` with counting wrappers around the channel
proposal's helpers and prints, per channel (banded, raised) and curve:

- the survivor fraction after each midpoint level: the share of the
  proposal samples still inside the channel once that level is drawn;
- window normals per sample: the bridge normals drawn at window-interior
  grid points, per proposal sample (a full-path walk draws every one);
- the mean number of rejection rounds per sine-tilted anchor height.

The counts depend on the seeds only, not on the machine:

    PYTHONPATH=src python3 scripts/channel_survival.py --seeds 1 2 3
"""

import argparse
from collections import defaultdict

import numpy as np

from gibbslines import experiments
from gibbslines.config import emit_default_config, parse_config, run_experiment


class _CountingRng:
    """Forwards `random` to a generator and counts the proposals it feeds:
    each rejection round draws one (3, pending) block of uniforms."""

    def __init__(self, rng, counts):
        self.rng, self.counts = rng, counts

    def random(self, size):
        self.counts["proposals"] += size[-1]
        return self.rng.random(size)


def count_run(seed: int, counts: dict):
    """One default separation run at `seed`, its counts added to `counts`;
    returns the run's separation frame."""
    text = "\n".join(
        f"seed = {seed}" if line.split("=", 1)[0].strip() == "seed" else line
        for line in emit_default_config("separation").splitlines()
    )
    cfg = parse_config(text)
    state = {}
    channel_log_weights = experiments._channel_log_weights
    fill_midpoints = experiments._fill_midpoints
    draw_level = experiments._draw_level
    sine_tilted_height = experiments._sine_tilted_height

    def channel_wrap(frame, batch, rng, lo_vec, hi_vec):
        state["channel"] = "banded" if np.all(np.isfinite(hi_vec)) else "raised"
        state["frame"] = frame
        counts[state["channel"], "samples"] += batch.shape[0]
        return channel_log_weights(frame, batch, rng, lo_vec, hi_vec)

    def fill_wrap(frame, batch, j, rows, lo, hi, rng):
        state["level"] = 0
        kept = fill_midpoints(frame, batch, j, rows, lo, hi, rng)
        if frame.levels[j]:
            counts[state["channel"], j, len(frame.levels[j])] += kept.size
        return kept

    def level_wrap(batch, j, rows, level, rng):
        # rows entering level n survived level n - 1
        frame, channel = state["frame"], state["channel"]
        if state["level"]:
            counts[channel, j, state["level"]] += rows.size
        state["level"] += 1
        in_window = np.count_nonzero((level.idx > frame.iwl) & (level.idx < frame.iwr))
        counts[channel, "window_normals"] += rows.size * in_window
        return draw_level(batch, j, rows, level, rng)

    def sine_wrap(width, g, rng):
        counts["heights"] += g.size
        return sine_tilted_height(width, g, _CountingRng(rng, counts))

    wrappers = {
        "_channel_log_weights": channel_wrap,
        "_fill_midpoints": fill_wrap,
        "_draw_level": level_wrap,
        "_sine_tilted_height": sine_wrap,
    }
    originals = {name: getattr(experiments, name) for name in wrappers}
    try:
        for name, fn in wrappers.items():
            setattr(experiments, name, fn)
        run_experiment(cfg)
    finally:
        for name, fn in originals.items():
            setattr(experiments, name, fn)
    return state["frame"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 9)))
    args = ap.parse_args(argv)
    counts = defaultdict(int)
    for seed in args.seeds:
        frame = count_run(seed, counts)
    cfg = frame.cfg
    print(
        f"separation, default config (k = {cfg.k}, L = {cfg.L:g}, t = {cfg.t:g}, M = {cfg.M:g}, "
        f"n_samples = {cfg.n_samples}), seeds {' '.join(map(str, args.seeds))}"
    )
    for channel in ("banded", "raised"):
        samples = counts[channel, "samples"]
        print(f"{channel}: {samples} proposal samples")
        for j in range(cfg.k):
            for n, level in enumerate(frame.levels[j], start=1):
                share = counts[channel, j, n] / samples
                print(f"  curve {j} level {n} ({level.idx.size} points): survivors {share:.4f}")
        per_sample = counts[channel, "window_normals"] / samples
        print(f"  window normals per sample: {per_sample:.2f} (full path: {frame.iwr - frame.iwl - 1})")
    rounds = counts["proposals"] / counts["heights"]
    print(f"sine-tilted heights: {counts['heights']}, rejection rounds per height: {rounds:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
