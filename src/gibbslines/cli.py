"""Batch runner: parse a config, run one experiment, write a structured report.

Reports are deterministic for a given (config, seed) at threads = 1: reals are
fixed to 17 significant digits, row order follows the experiment, and nothing
time-dependent goes into the file. JSON has no number for a non-finite real,
so json-lines writes those as the strings "inf", "-inf" and "nan". Wall time,
the process's peak RSS and other diagnostics go to standard error instead.

Exit codes: 0 all checks passed, 1 the run finished but a check failed,
2 configuration or execution error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import resource
import sys
import time

from . import __version__
from .config import (
    REGISTRY, RunConfig, emit_default_config, format_value, kind_of, parse_config, run_experiment
)
from .errors import GibbsLinesError

OUTPUT_DIR_ENV = "GIBBSLINES_OUTPUT_DIR"
_FIELDS = ("kind", "label", "mean", "stderr", "n_samples", "seed", "passed", "detail")
_BARE_JSON = ("mean", "stderr", "n_samples", "seed", "passed")


def report_rows(report, config: RunConfig) -> list:
    """Flatten a report into ordered rows shared by both output formats."""
    defaults = REGISTRY[config.experiment].defaults
    rows = [
        {"kind": "meta", "label": "version", "detail": __version__},
        {"kind": "meta", "label": "experiment", "detail": config.experiment},
        {"kind": "meta", "label": "seed", "detail": str(config.seed)},
        {"kind": "meta", "label": "threads", "detail": str(config.threads)},
    ]
    for key, default in defaults.items():
        text = format_value(kind_of(default), config.parameters[key])
        rows.append({"kind": "meta", "label": f"config.{key}", "detail": text})
    for label, est in report.estimates:
        rows.append(
            {
                "kind": "estimate",
                "label": label,
                "mean": format_value("real", est.mean),
                "stderr": format_value("real", est.stderr),
                "n_samples": str(est.n_samples),
                "seed": str(est.seed),
            }
        )
    for label, ok, detail in report.checks:
        rows.append(
            {"kind": "check", "label": label, "passed": "true" if ok else "false", "detail": detail}
        )
    return rows


def render_json_lines(rows: list) -> str:
    out = []
    for row in rows:
        # numbers and true/false are already fixed-precision JSON text in the
        # rows, so they go in bare (json.dumps would re-render reals with
        # repr); a non-finite real has no JSON number and goes in quoted
        parts = []
        for key in _FIELDS:
            if key in row:
                bare = key in _BARE_JSON and row[key] not in ("inf", "-inf", "nan")
                parts.append(f'"{key}": {row[key] if bare else json.dumps(row[key])}')
        out.append("{" + ", ".join(parts) + "}")
    return "\n".join(out) + "\n"


def render_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_FIELDS, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render(rows: list, output_format: str) -> str:
    """Report text in one of config.OUTPUT_FORMATS."""
    return render_json_lines(rows) if output_format == "json-lines" else render_csv(rows)


def default_output_path(config: RunConfig) -> str:
    directory = os.environ.get(OUTPUT_DIR_ENV, ".")
    ext = "jsonl" if config.output_format == "json-lines" else "csv"
    return os.path.join(directory, f"{config.experiment}_seed{config.seed}.{ext}")


def _cmd_run(args) -> int:
    try:
        with open(args.config_file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        overrides = {"seed": args.seed, "threads": args.threads, "output_path": args.output}
        config = dataclasses.replace(
            config, **{key: v for key, v in overrides.items() if v is not None}
        )
        started = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - started
    except GibbsLinesError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    path = config.output_path or default_output_path(config)
    text_out = render(report_rows(report, config), config.output_format)
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text_out)
    except OSError as err:
        print(f"error: cannot write report: {err}", file=sys.stderr)
        return 2
    n_checks = len(report.checks)
    n_ok = sum(1 for _, ok, _ in report.checks if ok)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(
        f"{config.experiment}: {n_ok}/{n_checks} checks passed, "
        f"wall time {elapsed:.3f}s, peak RSS {peak_kib / 1024:.1f} MiB, report at {path}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _cmd_emit(args) -> int:
    try:
        sys.stdout.write(emit_default_config(args.experiment))
    except GibbsLinesError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def _cmd_list(_args) -> int:
    for name in sorted(REGISTRY):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslines",
        description="Monte Carlo experiments on ordered Brownian ensembles with soft exponential interaction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config_file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=None, help="override the thread count")
    p_run.add_argument("--output", default=None, help="override the report path")
    p_run.set_defaults(func=_cmd_run)
    p_emit = sub.add_parser(
        "emit-default-config", help="print a default config for one experiment"
    )
    p_emit.add_argument("experiment")
    p_emit.set_defaults(func=_cmd_emit)
    p_list = sub.add_parser("list-experiments", help="list registered experiment names")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
