"""Span tracing of the package's layers, installed from outside the package.

Each target below is a public function (or a penalty class's `integrand`
method). `Tracer.install` rebinds it at every module attribute of the package
that holds it, so calls made inside the package pass through the wrapper too.
A wrapper records one span per call: name, start, end, parent span, op id,
and the counts of work done at that boundary. Self time is a span's duration
minus the time its direct children cover; the children are nested calls on
the same thread, so they never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

PACKAGE = "gibbslines"
OP_SPAN = "bench.op"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_bridge(args, kwargs, result):
    return {"points": result.size}


def _count_rows(args, kwargs, result):
    return {"rows": result.shape[0]}


def _count_elements(args, kwargs, result):
    return {"elements": np.size(result)}


def _count_attempts(args, kwargs, result):
    return {"attempts": result[1]}


def _count_samples(args, kwargs, result):
    return {"samples": _arg(args, kwargs, 2, "n")}


def _count_plain_sites(args, kwargs, result):
    b, k, n = result.shape
    return {"chain_sites": b * k * (n - 2)}


def _count_coupled_sites(args, kwargs, result):
    lo, hi = result
    b, k, n = lo.shape
    return {
        "chain_sites": 2 * b * k * (n - 2),
        "order_violations": int(np.count_nonzero(lo > hi)),
    }


def _count_bytes(args, kwargs, result):
    return {"report_bytes": len(result.encode("utf-8"))}


@dataclass(frozen=True)
class Target:
    """One traced layer function: its span name, where it is defined, and
    how to count the work of one call from its arguments and result."""

    name: str
    module: str
    attr: str  # "function" or "Class.method"
    count: Optional[Callable] = None

    def resolve(self):
        """(owner, attribute, original object); raises if the target is gone."""
        owner = importlib.import_module(f"{PACKAGE}.{self.module}")
        *path, leaf = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf, getattr(owner, leaf)


TARGETS = (
    Target("bridge_sampler.bridge_batch", "bridge_sampler", "bridge_batch", _count_bridge),
    Target("bridge_sampler.free_ensemble_batch", "bridge_sampler", "free_ensemble_batch", _count_rows),
    Target("core.integrand.soft", "core", "ScaledExpHamiltonian.integrand", _count_elements),
    Target("core.integrand.soft", "core", "ExpHamiltonian.integrand", _count_elements),
    Target("core.integrand.hard", "core", "OrderedHamiltonian.integrand", _count_elements),
    Target("bridge_analytics.segment_log_survival", "bridge_analytics", "segment_log_survival", _count_elements),
    Target("gibbs.sample_conditional", "gibbs", "sample_conditional", _count_attempts),
    Target("gibbs.estimate_Z", "gibbs", "estimate_Z", _count_samples),
    Target("gibbs.mcmc_sweep", "gibbs", "mcmc_sweep"),
    Target("gibbs.heat_bath_scan_batch", "gibbs", "heat_bath_scan_batch", _count_plain_sites),
    Target("gibbs.coupled_scan_batch", "gibbs", "coupled_scan_batch", _count_coupled_sites),
    Target("experiments.run_separation_experiment", "experiments", "run_separation_experiment"),
    Target("experiments.run_ordering_experiment", "experiments", "run_ordering_experiment"),
    Target("experiments.run_z_lowerbound_experiment", "experiments", "run_z_lowerbound_experiment"),
    Target("config.parse_config", "config", "parse_config"),
    Target("cli.report_rows", "cli", "report_rows"),
    Target("cli.render_json_lines", "cli", "render_json_lines", _count_bytes),
)


class Tracer:
    """In-memory span recorder; `install` wraps every target, `uninstall`
    puts the originals back."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id, counts]
        self.op_id = -1
        self._stack: list = []
        self._saved: list = []

    def _record(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> dict:
        """Wrap every target at each of its binding sites; returns the
        number of sites per target attribute."""
        resolved = [(target, *target.resolve()) for target in TARGETS]
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        sites = {}
        for target, owner, leaf, original in resolved:
            wrapper = self._record(target.name, original, target.count)
            bound = [(owner, leaf)]
            if not isinstance(owner, type):
                bound = [
                    (mod, attr)
                    for mod in modules
                    for attr, value in list(vars(mod).items())
                    if value is original
                ]
            for where, attr in bound:
                self._saved.append((where, attr, original))
                setattr(where, attr, wrapper)
            sites[f"{target.module}.{target.attr}"] = len(bound)
        return sites

    def uninstall(self):
        for where, attr, original in reversed(self._saved):
            setattr(where, attr, original)
        self._saved.clear()

    def op(self, op_id: int, fn: Callable):
        """Run one unit op under a root span tagged with its op id."""
        self.op_id = op_id
        return self._record(OP_SPAN, fn, None)()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans: list) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts.

    Also adds `candidates` to gibbs.sample_conditional: the free-ensemble
    rows built by direct child calls.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - covered[i]
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
        if name == "bridge_sampler.free_ensemble_batch" and parent >= 0:
            if spans[parent][0] == "gibbs.sample_conditional":
                parent_agg = out.setdefault(
                    "gibbs.sample_conditional", {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                parent_agg["candidates"] = parent_agg.get("candidates", 0) + counts["rows"]
    return out
