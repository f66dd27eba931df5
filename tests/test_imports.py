"""A fresh process runs every experiment without loading scipy.

The normal-law functions come from gibbslines._normal and the sliding
extrema from numpy, so scipy is a test-only dependency; concurrent.futures
loads only for a threaded run. These tests start a clean interpreter, since
the test process has long since loaded both.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# one hard-wall scan, run both in the child and in the test process
SCAN = """
import numpy as np
from gibbslines import PLUS_INF, BoundaryData, Grid, OrderedHamiltonian, constant_curve
from gibbslines import heat_bath_scan_batch
grid = Grid(0.0, 1.0, 17)
outer = BoundaryData(np.zeros(1), np.zeros(1), PLUS_INF, constant_curve(grid, -0.2))
u = np.random.default_rng(5).random((8, 1, 15))
scan = heat_bath_scan_batch(np.zeros((8, 1, 17)), grid, outer, OrderedHamiltonian(), u)
"""

CHILD = f"""
import dataclasses, hashlib, json, sys

def deferred():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.startswith("concurrent.futures"))

stages = {{}}
import gibbslines, gibbslines.cli
stages["import"] = deferred()
from gibbslines.config import REGISTRY, emit_default_config, parse_config, run_experiment
stages["experiments"] = sorted(REGISTRY)
for name in REGISTRY:
    config = parse_config(emit_default_config(name))
    if name == "fluctuation":  # its free-law pass runs in full at any n_samples
        config = dataclasses.replace(config, parameters={{**config.parameters, "n_samples": 200}})
    assert run_experiment(config).passed, name
    stages[name] = deferred()
{SCAN}
stages["scan"] = deferred()
stages["scan_sha256"] = hashlib.sha256(scan.tobytes()).hexdigest()
print(json.dumps(stages))
"""


def _run_child():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_default_runs_and_a_hard_wall_scan_load_no_scipy():
    stages = _run_child()
    assert stages["import"] == []  # import gibbslines, gibbslines.cli
    assert stages["experiments"] == ["excursion", "fluctuation", "ordering", "separation", "z_lowerbound"]
    for name in stages["experiments"]:
        assert stages[name] == [], name  # a default run, threads = 1
    assert stages["scan"] == []  # a hard-wall scan draws truncated Gaussians
    here = {}
    exec(SCAN, here)
    assert stages["scan_sha256"] == hashlib.sha256(here["scan"].tobytes()).hexdigest()
