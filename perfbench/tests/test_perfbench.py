"""Self-test of the benchmark at tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Every workload must print every end-to-end metric with its unit, the traced
run must print every per-layer metric, and every traced function must still
resolve in the package, so a rename fails here instead of silently dropping a
layer from the trace.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import spans  # noqa: E402

WORKLOADS = ("separation", "conditional", "heatbath")

# layers each workload must reach, so a broken call path cannot read as zero work
REACHED = {
    "separation": (
        "bridge_sampler.bridge_batch.calls",
        "core.integrand.soft.calls",
        "experiments.run_separation_experiment.self_s",
        "experiments.run_separation_experiment.peak_alloc_mb",
        "experiments.separation.min_ess_per_s",
        "config.parse_config.self_s",
        "cli.report_bytes",
    ),
    "conditional": (
        "bridge_sampler.free_ensemble_batch.rows",
        "bridge_analytics.segment_log_survival.elements",
        "gibbs.sample_conditional.candidates",
        "gibbs.sample_conditional.useful_ratio",
        "gibbs.estimate_Z.samples",
        "gibbs.mcmc_sweep.calls",
        "experiments.run_ordering_experiment.self_s",
        "experiments.run_z_lowerbound_experiment.self_s",
    ),
    "heatbath": (
        "gibbs.heat_bath_scan_batch.chain_sites",
        "gibbs.coupled_scan_batch.chain_sites",
        "core.integrand.hard.calls",
        "core.integrand.soft.calls",
    ),
}


def _bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


def test_every_traced_function_resolves_and_is_bound():
    tracer = spans.Tracer()
    try:
        sites = tracer.install()
    finally:
        tracer.uninstall()
    assert len(sites) == len(spans.TARGETS)
    assert all(count >= 1 for count in sites.values()), sites
    for target in spans.TARGETS:
        owner, leaf, original = target.resolve()
        assert getattr(owner, leaf) is original


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = _result(workload, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    value = {k: v["value"] for k, v in metrics.items()}
    for name in REACHED[workload]:
        assert value[name] > 0, name
    assert value["gibbs.coupled_scan_batch.order_violations"] == 0
    # the layers' self times cover the traced round wall time
    self_total = sum(v for k, v in value.items() if k.endswith(".self_s"))
    assert abs(value["trace.wall_s"] - self_total) <= 0.02 * value["trace.wall_s"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "separation", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
