"""A fresh process loads scipy only when a call needs it.

Importing scipy.special costs a fresh process about 0.15 s, so the package
imports it at the first truncated-Gaussian draw or log-moment fold, and
concurrent.futures only for a threaded run. These tests start a clean
interpreter, since the test process has long since loaded both.
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
import hashlib, json, sys

def deferred():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.startswith("concurrent.futures"))

stages = {{}}
import gibbslines, gibbslines.cli
stages["import"] = deferred()
from gibbslines.config import emit_default_config, parse_config, run_experiment
run_experiment(parse_config(emit_default_config("ordering")))
stages["ordering"] = deferred()
{SCAN}
stages["scan_special"] = "scipy.special" in sys.modules
stages["scan_sha256"] = hashlib.sha256(scan.tobytes()).hexdigest()
print(json.dumps(stages))
"""


def _run_child():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_scipy_loads_only_at_first_use():
    stages = _run_child()
    assert stages["import"] == []  # import gibbslines, gibbslines.cli
    assert stages["ordering"] == []  # a default ordering run draws no truncated Gaussian
    assert stages["scan_special"]  # a hard-wall site draw does
    here = {}
    exec(SCAN, here)
    assert stages["scan_sha256"] == hashlib.sha256(here["scan"].tobytes()).hexdigest()
