#!/usr/bin/env python3
"""Run every registered experiment at its default budget and collect reports.

Writes one report file per experiment (json-lines by default) into the
output directory and prints a one-line check summary per run. A run that
raises a library error prints `[ERROR] name: message` and the remaining
experiments still run. Exit status is 0 only if every run finished and every
check passed.

    python3 scripts/run_all_experiments.py --seed 7 --output-dir reports

To check that two source trees write the same report bytes, run

    PYTHONPATH=src python3 scripts/run_all_experiments.py --seed S --threads T \
        --format F --output-dir DIR

in each tree and compare the two directories with `diff -r`.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from gibbslines.cli import default_output_path, render, report_rows
from gibbslines.config import (
    OUTPUT_FORMATS, REGISTRY, emit_default_config, parse_config, run_experiment
)
from gibbslines.errors import GibbsLinesError


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None, help="override every config's seed")
    ap.add_argument("--threads", type=int, default=None, help="override every config's threads")
    ap.add_argument("--output-dir", default="reports", help="where report files go")
    ap.add_argument("--format", choices=OUTPUT_FORMATS, default="json-lines")
    ap.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        help="run just this experiment (repeatable)",
    )
    args = ap.parse_args(argv)

    names = args.only if args.only else sorted(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        ap.error(f"unknown experiment(s): {', '.join(unknown)}; known: {', '.join(sorted(REGISTRY))}")

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_ok = True
    for name in names:
        config = parse_config(emit_default_config(name))
        overrides = {"seed": args.seed, "threads": args.threads}
        config = dataclasses.replace(
            config,
            output_format=args.format,
            output_path=None,
            **{key: v for key, v in overrides.items() if v is not None},
        )

        t0 = time.perf_counter()
        try:
            report = run_experiment(config)
        except GibbsLinesError as exc:
            print(f"[ERROR] {name}: {exc}")
            all_ok = False
            continue
        elapsed = time.perf_counter() - t0

        text = render(report_rows(report, config), args.format)
        path = out_dir / Path(default_output_path(config)).name
        path.write_text(text)

        n_ok = sum(1 for _, ok, _ in report.checks if ok)
        status = "ok" if report.passed else "FAIL"
        print(
            f"[{status}] {name}: {n_ok}/{len(report.checks)} checks, "
            f"{elapsed:.1f}s, report at {path}"
        )
        if not report.passed:
            all_ok = False
            for label, ok, detail in report.checks:
                if not ok:
                    print(f"    failed {label}: {detail}", file=sys.stderr)

    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
