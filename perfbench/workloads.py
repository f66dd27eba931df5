"""The benchmark's workloads: inputs built from a seed, unit ops, output checks.

Building a workload object is the set-up that `setup_s` times. `round_ops()`
returns the ops of one round; every round repeats the same inputs, so round
wall times compare like with like and each CLI report can be compared byte
for byte with its first rendering from the same seed. The program is called
through module attributes at call time, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from gibbslines import cli, config, core, experiments, gibbs
from gibbslines.core import BoundaryData, Grid, MINUS_INF, PLUS_INF
from gibbslines.gibbs import ConditionalSpec


@dataclass
class Op:
    """One timed call. `check` runs untimed on the result and returns an
    error message or None; `stats` pulls numbers to report from the result."""

    call: Callable[[], object]
    work: int
    check: Callable[[object], Optional[str]]
    stats: Optional[Callable[[object], dict]] = None


def op_seed(seed: int, stream: int, index: int) -> int:
    """Per-op seed derived from the benchmark seed, one stream per input kind."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def _config_text(experiment: str, seed: int, overrides: dict) -> str:
    lines = []
    for line in config.emit_default_config(experiment).splitlines():
        key = line.split("=", 1)[0].strip()
        if key == "seed":
            line = f"seed = {seed}"
        elif key in overrides:
            line = f"{key} = {overrides[key]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


class _CliRuns:
    """CLI-path runs (parse_config -> run_experiment -> report_rows ->
    render_json_lines) whose report bytes must repeat for a repeated seed."""

    def __init__(self):
        self._bytes: dict = {}

    def op(self, key, text: str, work: int, stats=None) -> Op:
        def call():
            cfg = config.parse_config(text)
            report = config.run_experiment(cfg)
            return report, cli.render_json_lines(cli.report_rows(report, cfg))

        def check(result):
            report, rendered = result
            failed = [label for label, ok, _ in report.checks if not ok]
            if failed:
                return f"{key}: report checks failed: {', '.join(failed)}"
            if self._bytes.setdefault(key, rendered) != rendered:
                return f"{key}: report bytes differ from an earlier run with the same seed"
            return None

        return Op(call, work, check, stats)


# ---------------------------------------------------------------------------
# separation: the CLI-default separation run, one run per op


def _separation_stats(result) -> dict:
    report, _ = result
    ess = {
        "ess_free": report.estimate("ess_free_reference").mean,
        "ess_separated": report.estimate("ess_separated_endpoints").mean,
        "ess_banded": report.estimate("ess_banded_curves").mean,
        "ess_raised": report.estimate("ess_raised_curves").mean,
    }
    ess["min_ess"] = min(ess.values())
    return ess


class Separation:
    work_unit = "proposal samples (n_samples per run)"

    def __init__(self, seed: int, tiny: bool = False):
        n_ops = 2 if tiny else 8
        self.runs = _CliRuns()
        self.texts = [
            _config_text("separation", op_seed(seed, 1, i), {}) for i in range(n_ops)
        ]
        self.n_samples = config.parse_config(self.texts[0]).parameters["n_samples"]

    def round_ops(self) -> list:
        return [
            self.runs.op(("separation", i), text, self.n_samples, _separation_stats)
            for i, text in enumerate(self.texts)
        ]

    def peak_alloc_mb(self) -> float:
        """Peak traced allocation of one run_separation_experiment call."""
        cfg = config.parse_config(self.texts[0])
        sep = experiments.SeparationConfig(seed=cfg.seed, **cfg.parameters)
        tracemalloc.start()
        try:
            experiments.run_separation_experiment(sep)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# conditional: default ordering and z_lowerbound runs plus the normalizer ladder

HARD_WALL_D = (0.16018891, 0.42227000, 1.39859000)
SOFT_FLOOR = (-0.3, -1.0)
LADDER_TOLERANCE_SE = 5.0


@dataclass(frozen=True)
class _LadderBlock:
    spec: ConditionalSpec
    z_exact: Optional[float]  # closed form, hard-wall blocks only
    floor: Optional[float]  # hard-wall level the draws must stay above


def _ladder_blocks(grid: Grid) -> list:
    """Criterion 3's five single-curve blocks, Z from ~0.05 to ~0.98."""
    blocks = []
    for d in HARD_WALL_D:
        bd = BoundaryData(np.array([d]), np.array([d]), PLUS_INF, core.constant_curve(grid, 0.0))
        spec = ConditionalSpec(1, 1, (grid.a, grid.b), bd, core.OrderedHamiltonian())
        blocks.append(_LadderBlock(spec, 1.0 - math.exp(-2.0 * d * d), 0.0))
    for off in SOFT_FLOOR:
        bd = BoundaryData(np.array([0.0]), np.array([0.0]), PLUS_INF, core.constant_curve(grid, off))
        spec = ConditionalSpec(1, 1, (grid.a, grid.b), bd, core.ScaledExpHamiltonian(8.0))
        blocks.append(_LadderBlock(spec, None, None))
    return blocks


def _ladder_agreement(block: _LadderBlock, z, attempts: list) -> Optional[str]:
    """Mean attempts per draw must agree with 1/Z, and a hard-wall Z with its
    closed form. The attempt SE is the geometric law's at p = Z, so a short
    series of single-attempt draws does not shrink the tolerance to zero."""
    p = z.mean
    n = len(attempts)
    abar = float(np.mean(attempts))
    se = math.hypot(math.sqrt((1.0 - p) / (p * p * n)), z.stderr / (p * p))
    if abs(abar - 1.0 / p) > LADDER_TOLERANCE_SE * se:
        return f"mean attempts {abar:.5g} vs 1/Z = {1.0 / p:.5g} (SE {se:.2g})"
    if block.z_exact is not None:
        if abs(p - block.z_exact) > LADDER_TOLERANCE_SE * z.stderr + 1e-12:
            return f"Z = {p:.5g} +- {z.stderr:.2g} vs exact {block.z_exact:.5g}"
    return None


class Conditional:
    work_unit = "accepted exact conditional draws"

    def __init__(self, seed: int, tiny: bool = False):
        self.runs = _CliRuns()
        ordering = {"n_samples": 40} if tiny else {}
        self.ordering_text = _config_text("ordering", op_seed(seed, 2, 0), ordering)
        params = config.parse_config(self.ordering_text).parameters
        self.ordering_draws = params["n_samples"] * len(params["t_list"])
        self.z_lowerbound_text = _config_text("z_lowerbound", op_seed(seed, 2, 1), {})
        self.grid = Grid(0.0, 1.0, 65)
        self.blocks = _ladder_blocks(self.grid)
        self.z_samples = 2000 if tiny else 20000
        self.draws_per_block = 10 if tiny else 200
        self.z_seeds = [op_seed(seed, 3, j) for j in range(len(self.blocks))]
        self.draw_seeds = [op_seed(seed, 4, j) for j in range(len(self.blocks))]

    def _block_ops(self, j: int) -> list:
        block, grid = self.blocks[j], self.grid
        rng = np.random.default_rng(self.draw_seeds[j])
        state = {"z": None, "attempts": []}

        def estimate():
            return gibbs.estimate_Z(block.spec, grid, n=self.z_samples, seed=self.z_seeds[j])

        def check_estimate(z):
            state["z"] = z
            if not 0.0 < z.mean <= 1.0:
                return f"ladder block {j}: Z = {z.mean} outside (0, 1]"
            return None

        def draw():
            return gibbs.sample_conditional(block.spec, grid, rng)

        def check_draw(result):
            ens, attempts = result
            state["attempts"].append(attempts)
            curve = ens.curves[0]
            if not np.isfinite(curve).all() or attempts < 1:
                return f"ladder block {j}: bad draw"
            if curve[0] != block.spec.boundary.x_vec[0] or curve[-1] != block.spec.boundary.y_vec[0]:
                return f"ladder block {j}: endpoints moved"
            if block.floor is not None and not (curve > block.floor).all():
                return f"ladder block {j}: hard-wall draw touches the wall"
            if len(state["attempts"]) == self.draws_per_block and state["z"] is not None:
                return _ladder_agreement(block, state["z"], state["attempts"])
            return None

        ops = [Op(estimate, 0, check_estimate)]
        ops += [Op(draw, 1, check_draw) for _ in range(self.draws_per_block)]
        return ops

    def round_ops(self) -> list:
        ops = [
            self.runs.op("ordering", self.ordering_text, self.ordering_draws),
            self.runs.op("z_lowerbound", self.z_lowerbound_text, 0),
        ]
        for j in range(len(self.blocks)):
            ops += self._block_ops(j)
        return ops


# ---------------------------------------------------------------------------
# heatbath: the coupled and plain scan shapes of criteria 4 and 5


@dataclass(frozen=True)
class _Scan:
    """One scan call on `chains` two-curve states started flat at their
    levels; a coupled scan adds a pointwise higher state sharing the uniforms."""

    label: str
    grid: Grid
    h: core.Hamiltonian
    lo_levels: tuple
    hi_levels: Optional[tuple]  # None for a plain scan
    chains: int


def _scans(tiny: bool) -> list:
    narrow = 8 if tiny else 50
    wide = 16 if tiny else 250
    g65 = Grid(0.0, 1.0, 65)
    g17 = Grid(0.0, 1.0, 17)
    lo, hi = (0.5, -0.5), (1.0, 0.0)
    soft = core.ScaledExpHamiltonian
    return [
        _Scan("narrow_coupled_t1", g65, soft(1.0), lo, hi, narrow),
        _Scan("narrow_coupled_t100", g65, soft(100.0), lo, hi, narrow),
        _Scan("narrow_coupled_hard", g65, core.OrderedHamiltonian(), lo, hi, narrow),
        _Scan("wide_coupled_t1", g17, soft(1.0), lo, hi, wide),
        _Scan("wide_plain_t1", g17, soft(1.0), lo, None, wide),
        _Scan("wide_plain_t8", Grid(-1.0, 1.0, 17), soft(8.0), (1.5, -1.5), None, wide),
    ]


def _outer(levels) -> BoundaryData:
    lv = np.array(levels)
    return BoundaryData(lv, lv, PLUS_INF, MINUS_INF)


def _flat_states(levels, chains: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.array(levels)[None, :, None], (chains, len(levels), n)).copy()


def _scan_problem(label: str, start: np.ndarray, out: np.ndarray) -> Optional[str]:
    if not np.isfinite(out).all():
        return f"{label}: non-finite values"
    if not (np.array_equal(out[..., 0], start[..., 0]) and np.array_equal(out[..., -1], start[..., -1])):
        return f"{label}: endpoints moved"
    return None


def _scan_op(scan: _Scan, u: np.ndarray) -> Op:
    grid, h = scan.grid, scan.h
    lo, outer_lo = _flat_states(scan.lo_levels, scan.chains, grid.n), _outer(scan.lo_levels)
    if scan.hi_levels is None:
        def call():
            return gibbs.heat_bath_scan_batch(lo, grid, outer_lo, h, u)

        return Op(call, u.size, lambda out: _scan_problem(scan.label, lo, out))

    hi, outer_hi = _flat_states(scan.hi_levels, scan.chains, grid.n), _outer(scan.hi_levels)

    def call():
        return gibbs.coupled_scan_batch(lo, hi, grid, outer_lo, outer_hi, h, u)

    def check(result):
        new_lo, new_hi = result
        problem = _scan_problem(scan.label, lo, new_lo) or _scan_problem(scan.label, hi, new_hi)
        if problem is None and (new_lo > new_hi).any():
            problem = f"{scan.label}: {int(np.count_nonzero(new_lo > new_hi))} sites with lo > hi"
        return problem

    return Op(call, 2 * u.size, check)


class Heatbath:
    work_unit = "chain-site updates (each state of a coupled pair counts)"

    def __init__(self, seed: int, tiny: bool = False):
        self.ops = []
        for s, scan in enumerate(_scans(tiny)):
            rng = np.random.default_rng(op_seed(seed, 5, s))
            u = rng.random((scan.chains, len(scan.lo_levels), scan.grid.n - 2))
            self.ops.append(_scan_op(scan, u))

    def round_ops(self) -> list:
        return list(self.ops)


WORKLOADS = {"separation": Separation, "conditional": Conditional, "heatbath": Heatbath}
