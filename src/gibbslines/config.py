"""Flat key=value run configs and the experiment registry.

A config file is one `key = value` pair per line with `#` comments. No
nesting: list-valued parameters are comma-separated scalars. Every experiment
registers its parameter names and defaults here, once; a parameter's kind
(int, real or real_list) is read off its default's type. So a config can be
fully validated before any sampling starts, and `emit_default_config` output
round-trips through `parse_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError, ValidationError
from .experiments import (
    SeparationConfig,
    run_excursion_experiment,
    run_fluctuation_experiment,
    run_ordering_experiment,
    run_separation_experiment,
    run_z_lowerbound_experiment,
)

OUTPUT_FORMATS = ("json-lines", "csv")


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    parameters: dict
    seed: int
    output_path: str | None
    output_format: str
    threads: int


@dataclass(frozen=True)
class _ExperimentEntry:
    # parameter name -> default; order is the emit order, and each default's
    # type gives the parameter's kind (see kind_of)
    defaults: dict
    dispatch: Callable
    precheck: Callable | None = None


def _separation_precheck(p: dict, seed: int) -> list:
    try:
        SeparationConfig(seed=seed, **p)
    except ValidationError as err:
        return err.problems
    return []


# Each dispatch names its runner inside the lambda body, so the runner is
# looked up when the lambda runs and a rebound module attribute is honoured.
REGISTRY = {
    "separation": _ExperimentEntry(
        defaults={"k": 1, "L": 1.0, "t": 1000.0, "M": 1.0, "n_samples": 4000},
        dispatch=lambda p, seed, threads: run_separation_experiment(
            SeparationConfig(seed=seed, **p), threads=threads
        ),
        precheck=_separation_precheck,
    ),
    "z_lowerbound": _ExperimentEntry(
        defaults={"k": 2, "L": 1.0, "t": 100.0, "M": 1.0, "n_samples": 2000},
        dispatch=lambda p, seed, threads: run_z_lowerbound_experiment(
            SeparationConfig(seed=seed, **p), threads=threads
        ),
        precheck=_separation_precheck,
    ),
    "ordering": _ExperimentEntry(
        defaults={"k": 2, "t_list": [1.0, 8.0, 64.0], "gap": 1.0, "rho": 0.25, "n_samples": 600},
        dispatch=lambda p, seed, threads: run_ordering_experiment(**p, seed=seed, threads=threads),
    ),
    "fluctuation": _ExperimentEntry(
        defaults={"d": 0.25, "K_list": [1.0, 2.0, 3.0], "boundary_box": 2.0, "n_samples": 1200},
        dispatch=lambda p, seed, threads: run_fluctuation_experiment(
            **p, seed=seed, threads=threads
        ),
    ),
    "excursion": _ExperimentEntry(
        defaults={
            "L": 1.0,
            "M": 1.0,
            "lam": 4.0,
            "x": 0.0,
            "y": 0.0,
            "interval_left": 0.0,
            "interval_right": 4.0,
            "n_samples": 20000,
        },
        dispatch=lambda p, seed, threads: run_excursion_experiment(
            **{key: v for key, v in p.items() if not key.startswith("interval_")},
            interval=(p["interval_left"], p["interval_right"]),
            seed=seed,
            threads=threads,
        ),
    ),
}


def kind_of(default) -> str:
    """A parameter's kind, read off its default: int, real or real_list."""
    return {int: "int", float: "real", list: "real_list"}[type(default)]


def _coerce(key: str, kind: str, token: str, problems: list):
    token = token.strip()
    try:
        if kind == "int":
            return int(token, 10)
        parts = [token] if kind == "real" else [s for s in token.split(",") if s.strip()]
        if not parts:
            raise ValueError("empty list")
        values = [float(s) for s in parts]
    except ValueError:
        problems.append(f"{key}: cannot read {token!r} as {kind}")
        return None
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{key}: {token!r} is not finite")
        return None
    return values[0] if kind == "real" else values


def format_value(kind: str, value) -> str:
    """Config value as text: ints plain, reals (and list entries) at 17 significant digits."""
    if kind == "int":
        return str(int(value))
    if kind == "real":
        return f"{float(value):.17g}"
    return ", ".join(f"{float(v):.17g}" for v in value)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat config; collects every problem, not just the first."""
    pairs: dict = {}
    parse_problems: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parse_problems.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            parse_problems.append(f"line {lineno}: missing key before '='")
            continue
        if key in pairs:
            parse_problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        pairs[key] = value.strip()
    if parse_problems:
        raise ParseError("; ".join(parse_problems))

    problems: list = []
    experiment = pairs.pop("experiment", None)
    if experiment is None:
        raise ValidationError(["experiment required"])
    if experiment not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValidationError([f"unknown experiment {experiment!r}; known: {known}"])
    entry = REGISTRY[experiment]

    if "seed" not in pairs:
        problems.append("seed required")
        seed = 0
    else:
        seed = _coerce("seed", "int", pairs.pop("seed"), problems) or 0
    threads = 1
    if "threads" in pairs:
        threads = _coerce("threads", "int", pairs.pop("threads"), problems)
        threads = 1 if threads is None else threads
    output_format = pairs.pop("output_format", "json-lines")
    if output_format not in OUTPUT_FORMATS:
        problems.append(
            f"output_format: {output_format!r} is not one of {', '.join(OUTPUT_FORMATS)}"
        )
    output_path = pairs.pop("output_path", None)

    params = dict(entry.defaults)
    for key, token in pairs.items():
        if key not in entry.defaults:
            problems.append(f"{key}: not a parameter of experiment {experiment!r}")
            continue
        value = _coerce(key, kind_of(entry.defaults[key]), token, problems)
        if value is not None:
            params[key] = value
    if not problems and entry.precheck is not None:
        problems.extend(entry.precheck(params, seed))
    if problems:
        raise ValidationError(problems)
    return RunConfig(
        experiment=experiment,
        parameters=params,
        seed=seed,
        output_path=output_path,
        output_format=output_format,
        threads=threads,
    )


def emit_default_config(experiment: str) -> str:
    """Default config text for one experiment; round-trips through parse_config."""
    if experiment not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValidationError([f"unknown experiment {experiment!r}; known: {known}"])
    entry = REGISTRY[experiment]
    lines = [f"experiment = {experiment}", "seed = 0"]
    lines += [
        f"{key} = {format_value(kind_of(value), value)}" for key, value in entry.defaults.items()
    ]
    lines += ["threads = 1", "output_format = json-lines"]
    return "\n".join(lines) + "\n"


def run_experiment(config: RunConfig):
    """Dispatch a validated config to its experiment runner."""
    entry = REGISTRY[config.experiment]
    return entry.dispatch(config.parameters, config.seed, config.threads)
