"""Outside-in benchmark of the gibbslines package.

Run from the repository root:

    python3 perfbench/run.py --workload separation --seed 1 --seconds 30 --trace 0

One process runs one workload (separation, conditional or heatbath, see
workloads.py) at threads = 1. The workload's fixed round of unit ops repeats
until --seconds have passed; every op's output is checked untimed. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs half the time
untraced, then half with the layer wrappers of spans.py installed, writes the
spans to .perfbench_out/ and reports the per-layer metrics, each per round.
The package is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import OP_SPAN, Tracer, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SHOWN_FAILURES = 5
# Python's per-process hash seed decides the order of early allocations, and
# with it where glibc trims the heap and re-faults the heat bath's large
# temporaries: round times differ by 10-20 % between hash seeds. Runs use one
# fixed seed so they compare like with like.
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import gibbslines from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gibbslines
    except ImportError as err:
        raise SystemExit(f"error: cannot import gibbslines from {src}: {err}")
    found = Path(gibbslines.__file__).resolve().parent
    if found != (src / "gibbslines").resolve():
        raise SystemExit(f"error: gibbslines imported from {found}, not from {src}")


class Run:
    """Op timings, work, failures and op stats gathered over rounds."""

    def __init__(self):
        self.round_walls: list = []
        self.op_times: list = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.stats: dict = {}
        self.stats_ops = 0

    def fail(self, message: str):
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            print(f"failed op: {message}", file=sys.stderr)

    def run_ops(self, ops, tracer=None, timed: bool = True) -> float:
        """Run ops in order and check each; returns the summed op time."""
        wall = 0.0
        for op in ops:
            op_id = self.attempted
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.call() if tracer is None else tracer.op(op_id, op.call)
            except Exception:
                wall += time.perf_counter() - start
                self.fail(traceback.format_exc())
                continue
            elapsed = time.perf_counter() - start
            wall += elapsed
            problem = op.check(result)
            if problem is not None:
                self.fail(problem)
                continue
            if not timed:
                continue
            self.op_times.append(elapsed)
            self.work += op.work
            if op.stats is not None:
                self.stats_ops += 1
                for key, value in op.stats(result).items():
                    self.stats[key] = self.stats.get(key, 0.0) + value
        return wall

    def measure(self, workload, seconds: float, tracer=None):
        """Whole rounds until the next one would end past `seconds`."""
        started = time.perf_counter()
        while True:
            self.round_walls.append(self.run_ops(workload.round_ops(), tracer))
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 1 / len(self.round_walls)) > seconds:
                return


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe exited with code {proc.returncode}")
    return elapsed


def end_to_end_metrics(run: Run, setup_times: list) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(run.round_walls),
        "work_per_s": run.work / sum(run.round_walls),
        "op_p90_s": float(np.percentile(run.op_times, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# per-layer metric name -> unit; values are per traced round
PER_LAYER = {
    "bridge_sampler.bridge_batch.calls": "count",
    "bridge_sampler.bridge_batch.points": "count",
    "bridge_sampler.bridge_batch.self_s": "s",
    "bridge_sampler.bridge_batch.ns_per_point": "ns",
    "bridge_sampler.free_ensemble_batch.rows": "count",
    "bridge_sampler.free_ensemble_batch.self_s": "s",
    "core.integrand.soft.calls": "count",
    "core.integrand.soft.elements": "count",
    "core.integrand.soft.self_s": "s",
    "core.integrand.soft.ns_per_element": "ns",
    "core.integrand.hard.calls": "count",
    "core.integrand.hard.elements": "count",
    "core.integrand.hard.self_s": "s",
    "core.integrand.hard.ns_per_element": "ns",
    "bridge_analytics.segment_log_survival.elements": "count",
    "bridge_analytics.segment_log_survival.self_s": "s",
    "gibbs.sample_conditional.calls": "count",
    "gibbs.sample_conditional.attempts": "count",
    "gibbs.sample_conditional.candidates": "count",
    "gibbs.sample_conditional.self_s": "s",
    "gibbs.sample_conditional.us_per_draw": "us",
    "gibbs.sample_conditional.useful_ratio": "ratio",
    "gibbs.estimate_Z.calls": "count",
    "gibbs.estimate_Z.samples": "count",
    "gibbs.estimate_Z.self_s": "s",
    "gibbs.estimate_Z.us_per_sample": "us",
    "gibbs.mcmc_sweep.calls": "count",
    "gibbs.mcmc_sweep.self_s": "s",
    "gibbs.heat_bath_scan_batch.chain_sites": "count",
    "gibbs.heat_bath_scan_batch.self_s": "s",
    "gibbs.heat_bath_scan_batch.us_per_chain_site": "us",
    "gibbs.coupled_scan_batch.chain_sites": "count",
    "gibbs.coupled_scan_batch.self_s": "s",
    "gibbs.coupled_scan_batch.us_per_chain_site": "us",
    "gibbs.coupled_scan_batch.order_violations": "count",
    "experiments.run_separation_experiment.self_s": "s",
    "experiments.run_separation_experiment.peak_alloc_mb": "MB",
    "experiments.separation.ess_free": "count",
    "experiments.separation.ess_separated": "count",
    "experiments.separation.ess_banded": "count",
    "experiments.separation.ess_raised": "count",
    "experiments.separation.min_ess_per_s": "1/s",
    "experiments.run_ordering_experiment.self_s": "s",
    "experiments.run_z_lowerbound_experiment.self_s": "s",
    "config.parse_config.self_s": "s",
    "cli.report_rows.self_s": "s",
    "cli.render_json_lines.self_s": "s",
    "cli.report_bytes": "count",
    "bench.op.self_s": "s",
    "bench.ops": "count",
    "bench.op_p50_s": "s",
    "bench.failed_op_frac": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# span name -> (counted key, metric suffix, scale) for inclusive time per unit
_UNIT_COSTS = {
    "bridge_sampler.bridge_batch": ("points", "ns_per_point", 1e9),
    "core.integrand.soft": ("elements", "ns_per_element", 1e9),
    "core.integrand.hard": ("elements", "ns_per_element", 1e9),
    "gibbs.sample_conditional": ("calls", "us_per_draw", 1e6),
    "gibbs.estimate_Z": ("samples", "us_per_sample", 1e6),
    "gibbs.heat_bath_scan_batch": ("chain_sites", "us_per_chain_site", 1e6),
    "gibbs.coupled_scan_batch": ("chain_sites", "us_per_chain_site", 1e6),
}


def per_layer_metrics(agg: dict, traced: Run, plain: Run, peak_alloc_mb: float) -> dict:
    """Every PER_LAYER metric; totals are divided by the traced round count,
    and layers a workload never calls read 0."""
    rounds = len(traced.round_walls)
    out = {}
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        if span in agg and key in agg[span]:
            out[name] = agg[span][key] / rounds
    for span, (key, suffix, scale) in _UNIT_COSTS.items():
        done = agg.get(span, {}).get(key, 0)
        out[f"{span}.{suffix}"] = agg[span]["total_s"] * scale / done if done else 0.0
    sc = agg.get("gibbs.sample_conditional", {})
    out["gibbs.sample_conditional.useful_ratio"] = (
        sc["calls"] / sc["candidates"] if sc.get("candidates") else 0.0
    )
    out["cli.report_bytes"] = agg.get("cli.render_json_lines", {}).get("report_bytes", 0) / rounds
    out["experiments.run_separation_experiment.peak_alloc_mb"] = peak_alloc_mb
    for key in ("free", "separated", "banded", "raised"):
        total = traced.stats.get(f"ess_{key}", 0.0)
        out[f"experiments.separation.ess_{key}"] = total / traced.stats_ops if traced.stats_ops else 0.0
    out["experiments.separation.min_ess_per_s"] = plain.stats.get("min_ess", 0.0) / sum(plain.round_walls)
    out["bench.ops"] = agg[OP_SPAN]["calls"] / rounds
    out["bench.op_p50_s"] = float(np.median(plain.op_times))
    attempted = plain.attempted + traced.attempted
    out["bench.failed_op_frac"] = (plain.failed + traced.failed) / attempted
    wall = sum(traced.round_walls) / rounds
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(a["self_s"] for a in agg.values()) / rounds
    out["trace.untraced_wall_s"] = statistics.median(plain.round_walls)
    out["trace.overhead_s"] = statistics.median(traced.round_walls) - out["trace.untraced_wall_s"]
    return {name: out.get(name, 0) for name in PER_LAYER}


def _report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict):
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("separation", "conditional", "heatbath"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_times = []
    if not args.trace:
        if not args.tiny:
            probe_setup(args)  # untimed: compiles bytecode, warms the file cache
        setup_times = [probe_setup(args) for _ in range(1 if args.tiny else SETUP_PROBES)]

    plain = Run()
    # one untimed round: heap growth and first-touch costs stay out of the
    # timings, and every timed CLI report is compared with this rendering
    plain.run_ops(workload.round_ops(), timed=False)
    if not args.trace:
        plain.measure(workload, args.seconds)
        metrics, units = end_to_end_metrics(plain, setup_times), END_TO_END
        attempted, failed = plain.attempted, plain.failed
    else:
        plain.measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = Run()
        try:
            traced.measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        peak_alloc = workload.peak_alloc_mb() if hasattr(workload, "peak_alloc_mb") else 0.0
        metrics = per_layer_metrics(aggregate(tracer.spans), traced, plain, peak_alloc)
        units = PER_LAYER
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed

    print(f"workload {args.workload}, seed {args.seed}, threads 1, work unit: {workload.work_unit}")
    walls = sorted(plain.round_walls)
    print(f"  {len(walls)} untraced rounds, {len(plain.op_times)} timed ops "
          f"(median {np.median(plain.op_times):.4g} s), {failed} of {attempted} ops failed; "
          f"round wall min {walls[0]:.4g} s, median {statistics.median(walls):.4g} s, "
          f"max {walls[-1]:.4g} s")
    _report(failed == 0, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
