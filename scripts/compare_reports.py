#!/usr/bin/env python3
"""Compare two directories of json-lines reports written by run_all_experiments.py.

For every report file present in both directories it prints the largest
relative change of the estimate means and of their standard errors, and the
largest |z| = |new - old| / hypot(se_old, se_new) over the estimates that
carry a standard error. It lists every check whose pass/fail flipped, and
every file or row present on one side only. Exit status is 1 if anything is listed, 0 otherwise.

    python3 scripts/run_all_experiments.py --seed 3 --output-dir old
    # ... change the code ...
    python3 scripts/run_all_experiments.py --seed 3 --output-dir new
    python3 scripts/compare_reports.py old new
"""

import argparse
import json
import math
from pathlib import Path


def read_report(path: Path) -> dict:
    """Rows of one json-lines report keyed by (kind, label)."""
    rows = {}
    for line in path.read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            # non-finite reals come as the strings "inf", "-inf" and "nan"
            for key in ("mean", "stderr"):
                if key in row:
                    row[key] = float(row[key])
            rows[(row["kind"], row["label"])] = row
    return rows


def _rel_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old != 0 else math.inf


def _z(old: dict, new: dict) -> float:
    # rows without a standard error (deterministic quantities) have no z;
    # their changes show in the relative mean change
    scale = math.hypot(old["stderr"], new["stderr"])
    if not scale > 0 or old["mean"] == new["mean"]:
        return 0.0
    return abs(new["mean"] - old["mean"]) / scale


def compare_file(old: dict, new: dict) -> tuple[dict, list]:
    """Largest changes over the shared estimates and the problems found."""
    stats = {"mean": 0.0, "stderr": 0.0, "z": 0.0}
    problems = [f"row {kind} {label!r} only in OLD" for kind, label in old.keys() - new.keys()]
    problems += [f"row {kind} {label!r} only in NEW" for kind, label in new.keys() - old.keys()]
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        if key[0] == "estimate":
            stats["mean"] = max(stats["mean"], _rel_change(a["mean"], b["mean"]))
            stats["stderr"] = max(stats["stderr"], _rel_change(a["stderr"], b["stderr"]))
            stats["z"] = max(stats["z"], _z(a, b))
        elif key[0] == "check" and a["passed"] != b["passed"]:
            problems.append(f"check {key[1]!r} flipped: {a['passed']} -> {b['passed']}")
    return stats, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_dir", type=Path)
    ap.add_argument("new_dir", type=Path)
    args = ap.parse_args(argv)

    old_files = {p.name for p in args.old_dir.glob("*.jsonl")}
    new_files = {p.name for p in args.new_dir.glob("*.jsonl")}
    n_problems = 0
    for name in sorted(old_files - new_files):
        print(f"{name}: only in OLD")
        n_problems += 1
    for name in sorted(new_files - old_files):
        print(f"{name}: only in NEW")
        n_problems += 1
    totals = {"mean": 0.0, "stderr": 0.0, "z": 0.0}
    for name in sorted(old_files & new_files):
        stats, problems = compare_file(
            read_report(args.old_dir / name), read_report(args.new_dir / name)
        )
        print(
            f"{name}: max rel mean {stats['mean']:.3g}, max rel stderr {stats['stderr']:.3g}, "
            f"max |z| {stats['z']:.3g}"
        )
        for problem in problems:
            print(f"    {problem}")
        n_problems += len(problems)
        totals = {key: max(totals[key], stats[key]) for key in totals}
    print(
        f"{len(old_files & new_files)} files compared: max rel mean {totals['mean']:.3g}, "
        f"max rel stderr {totals['stderr']:.3g}, max |z| {totals['z']:.3g}, "
        f"{n_problems} problems"
    )
    return 1 if n_problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
