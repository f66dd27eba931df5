import csv
import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

from gibbslines import __version__
from gibbslines.cli import main, render_json_lines, report_rows
from gibbslines.config import (
    REGISTRY,
    RunConfig,
    emit_default_config,
    kind_of,
    parse_config,
    run_experiment,
)
from gibbslines.core import McEstimate
from gibbslines.errors import MixingDiagnosticFailure, ParseError, ValidationError
from gibbslines.experiments import ExperimentReport

FAST_SEPARATION = """
experiment = separation
seed = 11
k = 1
L = 1.0
t = 100
M = 1.0
n_samples = 2000
"""

# emit_default_config output, pinned; each value is printed by format_value
# under the kind that its default's type gives
DEFAULT_CONFIG_TEXT = {
    "excursion": """\
experiment = excursion
seed = 0
L = 1
M = 1
lam = 4
x = 0
y = 0
interval_left = 0
interval_right = 4
n_samples = 20000
threads = 1
output_format = json-lines
""",
    "fluctuation": """\
experiment = fluctuation
seed = 0
d = 0.25
K_list = 1, 2, 3
boundary_box = 2
n_samples = 1200
threads = 1
output_format = json-lines
""",
    "ordering": """\
experiment = ordering
seed = 0
k = 2
t_list = 1, 8, 64
gap = 1
rho = 0.25
n_samples = 600
threads = 1
output_format = json-lines
""",
    "separation": """\
experiment = separation
seed = 0
k = 1
L = 1
t = 1000
M = 1
n_samples = 4000
threads = 1
output_format = json-lines
""",
    "z_lowerbound": """\
experiment = z_lowerbound
seed = 0
k = 2
L = 1
t = 100
M = 1
n_samples = 2000
threads = 1
output_format = json-lines
""",
}

# the kind of each parameter in emit order, as read off the defaults
PARAMETER_KINDS = {
    "excursion": "real real real real real real real int",
    "fluctuation": "real real_list real int",
    "ordering": "int real_list real real int",
    "separation": "int real real real int",
    "z_lowerbound": "int real real real int",
}

# every (experiment, parameter) pair of kind real or real_list
REAL_KEYS = [
    (name, key)
    for name, entry in sorted(REGISTRY.items())
    for key, default in entry.defaults.items()
    if kind_of(default) != "int"
]


class TestParseConfig:
    def test_default_configs_round_trip(self):
        for name, entry in REGISTRY.items():
            cfg = parse_config(emit_default_config(name))
            assert cfg.experiment == name
            assert cfg.parameters == entry.defaults
            assert cfg.seed == 0
            assert cfg.threads == 1
            assert cfg.output_format == "json-lines"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n\nexperiment = ordering\nseed = 3\n  # tail\n")
        assert cfg.experiment == "ordering"
        assert cfg.parameters["t_list"] == [1.0, 8.0, 64.0]

    def test_real_list_parsing(self):
        cfg = parse_config("experiment = ordering\nseed = 0\nt_list = 1, 2.5, 64\n")
        assert cfg.parameters["t_list"] == [1.0, 2.5, 64.0]

    def test_line_without_equals_is_parse_error_with_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("experiment = separation\nseed 4\n")
        assert "line 2" in str(err.value)

    def test_duplicate_key_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_config("seed = 1\nseed = 2\n")
        assert "duplicate" in str(err.value)

    def test_missing_seed_reported(self):
        with pytest.raises(ValidationError) as err:
            parse_config("experiment = separation\n")
        assert "seed required" in err.value.problems

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError) as err:
            parse_config("experiment = quantum\nseed = 0\n")
        assert "unknown experiment" in str(err.value)

    def test_all_problems_collected(self):
        text = "experiment = separation\nk = 2.5\nM = banana\nwhatever = 3\n"
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        joined = "; ".join(err.value.problems)
        assert "seed required" in joined
        assert "k:" in joined
        assert "M:" in joined
        assert "whatever:" in joined

    def test_barrier_constraint_checked_at_parse_time(self):
        text = "experiment = separation\nseed = 1\nM = 0.5\nL = 1.0\n"
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert "sqrt" in str(err.value)

    def test_bad_output_format(self):
        with pytest.raises(ValidationError) as err:
            parse_config("experiment = separation\nseed = 1\noutput_format = xml\n")
        assert "output_format" in str(err.value)

    def test_emit_unknown_experiment(self):
        with pytest.raises(ValidationError):
            emit_default_config("quantum")

    @pytest.mark.parametrize("name, key", REAL_KEYS)
    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_reals_rejected(self, name, key, token):
        with pytest.raises(ValidationError) as err:
            parse_config(f"experiment = {name}\nseed = 0\n{key} = {token}\n")
        assert err.value.problems == [f"{key}: {token!r} is not finite"]

    def test_non_finite_list_entry_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config("experiment = fluctuation\nseed = 0\nK_list = 1, inf, 3\n")
        assert err.value.problems == ["K_list: '1, inf, 3' is not finite"]


class TestEmittedText:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_default_config_text(self, name):
        assert emit_default_config(name) == DEFAULT_CONFIG_TEXT[name]

    def test_parameter_kinds(self):
        kinds = {
            name: " ".join(kind_of(v) for v in entry.defaults.values())
            for name, entry in REGISTRY.items()
        }
        assert kinds == PARAMETER_KINDS

    def test_meta_rows_of_default_config(self):
        cfg = parse_config(emit_default_config("ordering"))
        rows = report_rows(ExperimentReport(name="ordering"), cfg)
        assert render_json_lines(rows) == (
            f'{{"kind": "meta", "label": "version", "detail": "{__version__}"}}\n'
            '{"kind": "meta", "label": "experiment", "detail": "ordering"}\n'
            '{"kind": "meta", "label": "seed", "detail": "0"}\n'
            '{"kind": "meta", "label": "threads", "detail": "1"}\n'
            '{"kind": "meta", "label": "config.k", "detail": "2"}\n'
            '{"kind": "meta", "label": "config.t_list", "detail": "1, 8, 64"}\n'
            '{"kind": "meta", "label": "config.gap", "detail": "1"}\n'
            '{"kind": "meta", "label": "config.rho", "detail": "0.25"}\n'
            '{"kind": "meta", "label": "config.n_samples", "detail": "600"}\n'
        )


class TestDispatch:
    def test_run_experiment_routes_by_name(self):
        cfg = parse_config(FAST_SEPARATION)
        rep = run_experiment(cfg)
        assert rep.name == "separation"
        assert rep.passed


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCli:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(REGISTRY)

    def test_emit_default_config_round_trips(self, capsys):
        assert main(["emit-default-config", "fluctuation"]) == 0
        cfg = parse_config(capsys.readouterr().out)
        assert cfg.experiment == "fluctuation"

    def test_emit_unknown_is_exit_2(self, capsys):
        assert main(["emit-default-config", "quantum"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_json_lines_report(self, tmp_path):
        cfg = _write(tmp_path, FAST_SEPARATION)
        out = str(tmp_path / "rep.jsonl")
        assert main(["run", cfg, "--output", out]) == 0
        rows = [json.loads(line) for line in open(out, encoding="utf-8")]
        kinds = {r["kind"] for r in rows}
        assert kinds == {"meta", "estimate", "check"}
        meta = {r["label"]: r["detail"] for r in rows if r["kind"] == "meta"}
        assert meta["experiment"] == "separation"
        assert meta["seed"] == "11"
        assert meta["config.n_samples"] == "2000"
        est = {r["label"]: r for r in rows if r["kind"] == "estimate"}
        assert 0.0 < est["separated_endpoints_prob"]["mean"] < 1.0
        assert all(r["passed"] for r in rows if r["kind"] == "check")

    def test_reports_byte_identical_for_same_config_and_seed(self, tmp_path):
        cfg = _write(tmp_path, FAST_SEPARATION)
        out_a, out_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["run", cfg, "--output", out_a]) == 0
        assert main(["run", cfg, "--output", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_seed_override_changes_estimates(self, tmp_path):
        cfg = _write(tmp_path, FAST_SEPARATION)
        out_a, out_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["run", cfg, "--output", out_a]) == 0
        assert main(["run", cfg, "--seed", "12", "--output", out_b]) == 0
        mean = lambda path: [
            json.loads(line)["mean"]
            for line in open(path, encoding="utf-8")
            if json.loads(line)["kind"] == "estimate"
        ]
        assert mean(out_a) != mean(out_b)

    def test_csv_and_json_lines_encode_identical_tables(self, tmp_path):
        cfg_text = FAST_SEPARATION + "output_format = csv\n"
        cfg = _write(tmp_path, cfg_text, "c.cfg")
        out_csv = str(tmp_path / "rep.csv")
        assert main(["run", cfg, "--output", out_csv]) == 0
        cfg_j = _write(tmp_path, FAST_SEPARATION, "j.cfg")
        out_j = str(tmp_path / "rep.jsonl")
        assert main(["run", cfg_j, "--output", out_j]) == 0

        with open(out_csv, encoding="utf-8", newline="") as fh:
            csv_rows = [r for r in csv.DictReader(fh) if r["kind"] == "estimate"]
        json_rows = [
            json.loads(line)
            for line in open(out_j, encoding="utf-8")
            if json.loads(line)["kind"] == "estimate"
        ]
        assert len(csv_rows) == len(json_rows) > 0
        for c, j in zip(csv_rows, json_rows):
            assert c["label"] == j["label"]
            assert float(c["mean"]) == j["mean"]
            assert float(c["stderr"]) == j["stderr"]
            assert int(c["n_samples"]) == j["n_samples"]
            assert int(c["seed"]) == j["seed"]

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIBBSLINES_OUTPUT_DIR", str(tmp_path / "reports"))
        cfg = _write(tmp_path, FAST_SEPARATION)
        assert main(["run", cfg]) == 0
        expected = tmp_path / "reports" / "separation_seed11.jsonl"
        assert expected.exists()

    def test_output_path_in_config_respected(self, tmp_path):
        target = tmp_path / "custom.jsonl"
        cfg = _write(tmp_path, FAST_SEPARATION + f"output_path = {target}\n")
        assert main(["run", cfg]) == 0
        assert target.exists()

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_is_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "experiment = separation\nseed = 1\nM = 0.5\nL = 1\n")
        assert main(["run", cfg]) == 2
        assert "sqrt" in capsys.readouterr().err

    def test_non_finite_value_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "never.jsonl"
        cfg = _write(tmp_path, "experiment = separation\nseed = 0\nL = inf\nM = inf\n")
        assert main(["run", cfg, "--output", str(out)]) == 2
        assert "L: 'inf' is not finite; M: 'inf' is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_experiment_is_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "experiment = quantum\nseed = 1\n")
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_negative_seed_is_exit_2(self, tmp_path, capsys, name):
        # SeedSequence refuses negative seeds: a problem line, not a traceback
        out = tmp_path / "never.jsonl"
        text = emit_default_config(name).replace("seed = 0", "seed = -1")
        assert main(["run", _write(tmp_path, text, "neg.cfg"), "--output", str(out)]) == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        cfg = _write(tmp_path, emit_default_config(name))
        assert main(["run", cfg, "--seed", "-1", "--output", str(out)]) == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_execution_error_is_exit_2(self, tmp_path, capsys):
        # a two-curve budget this small degenerates the importance weights
        text = (
            "experiment = separation\nseed = 0\nk = 2\nL = 1.0\nt = 100\n"
            "M = 1.0\nn_samples = 1200\n"
        )
        cfg = _write(tmp_path, text)
        assert main(["run", cfg]) == 2
        assert "effective sample size" in capsys.readouterr().err

    def test_failed_check_is_exit_1(self, tmp_path, monkeypatch):
        import gibbslines.cli as cli_mod

        doctored = ExperimentReport(
            name="separation",
            estimates=[("p", McEstimate(0.5, 0.1, 10, 1))],
            checks=[("broken", False, "deliberate")],
        )
        monkeypatch.setattr(cli_mod, "run_experiment", lambda config: doctored)
        cfg = _write(tmp_path, FAST_SEPARATION)
        out = str(tmp_path / "fail.jsonl")
        assert main(["run", cfg, "--output", out]) == 1
        rows = [json.loads(line) for line in open(out, encoding="utf-8")]
        assert any(r["kind"] == "check" and r["passed"] is False for r in rows)

    def test_threads_flag_accepted(self, tmp_path):
        cfg = _write(tmp_path, FAST_SEPARATION)
        out = str(tmp_path / "t2.jsonl")
        assert main(["run", cfg, "--threads", "2", "--output", out]) == 0
        rows = [json.loads(line) for line in open(out, encoding="utf-8")]
        meta = {r["label"]: r["detail"] for r in rows if r["kind"] == "meta"}
        assert meta["threads"] == "2"

    def test_seventeen_digit_reals_in_both_formats(self, tmp_path):
        cfg = _write(tmp_path, FAST_SEPARATION)
        out = str(tmp_path / "prec.jsonl")
        assert main(["run", cfg, "--output", out]) == 0
        for line in open(out, encoding="utf-8"):
            row = json.loads(line)
            if row["kind"] == "estimate" and row["mean"] not in (0.0,):
                # a %.17g round-trip must reproduce the double exactly
                assert float(f"{row['mean']:.17g}") == row["mean"]


def _load_script(name):
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunAllScript:
    def test_reports_match_cli_run(self, tmp_path):
        module = _load_script("run_all_experiments")
        names = ["separation", "excursion"]
        for threads in ("1", "2"):
            out_dir = tmp_path / f"all{threads}"
            argv = ["--seed", "5", "--threads", threads, "--output-dir", str(out_dir)]
            for name in names:
                argv += ["--only", name]
            assert module.main(argv) == 0
            for name in names:
                cfg = _write(tmp_path, emit_default_config(name), f"{name}.cfg")
                out = tmp_path / f"{name}_t{threads}.jsonl"
                assert main(["run", cfg, "--seed", "5", "--threads", threads, "--output", str(out)]) == 0
                scripted = out_dir / f"{name}_seed5.jsonl"
                assert scripted.read_bytes() == out.read_bytes()
                assert f'"label": "threads", "detail": "{threads}"' in out.read_text()

    def test_raising_run_is_reported_and_the_rest_still_run(self, tmp_path, monkeypatch, capsys):
        def fail(p, seed, threads):
            raise MixingDiagnosticFailure("near_touch_prob[t=1]", 0.02, 0.01)

        monkeypatch.setitem(
            REGISTRY, "ordering", dataclasses.replace(REGISTRY["ordering"], dispatch=fail)
        )
        module = _load_script("run_all_experiments")
        out_dir = tmp_path / "all"
        argv = ["--seed", "3", "--output-dir", str(out_dir), "--only", "ordering", "--only", "excursion"]
        assert module.main(argv) == 1
        printed = capsys.readouterr().out
        assert "[ERROR] ordering: " in printed
        assert "[ok] excursion:" in printed
        assert not (out_dir / "ordering_seed3.jsonl").exists()
        assert (out_dir / "excursion_seed3.jsonl").exists()


class TestCompareReportsScript:
    @staticmethod
    def _write_report(path, estimates, checks):
        lines = ['{"kind": "meta", "label": "experiment", "detail": "demo"}']
        lines += [
            f'{{"kind": "estimate", "label": "{label}", "mean": {mean:.17g}, '
            f'"stderr": {se:.17g}, "n_samples": 100, "seed": 0}}'
            for label, mean, se in estimates
        ]
        lines += [
            f'{{"kind": "check", "label": "{label}", "passed": {str(ok).lower()}, "detail": ""}}'
            for label, ok in checks
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")

    def test_reports_changes_and_passes_without_problems(self, tmp_path, capsys):
        module = _load_script("compare_reports")
        self._write_report(tmp_path / "old" / "a.jsonl", [("p", 0.5, 0.01), ("q", 2.0, 0.0)], [("c", True)])
        self._write_report(tmp_path / "new" / "a.jsonl", [("p", 0.51, 0.02), ("q", 2.0, 0.0)], [("c", True)])
        assert module.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        # rel mean 0.01/0.5, rel stderr 0.01/0.01, |z| 0.01/hypot(0.01, 0.02)
        z = 0.01 / math.hypot(0.01, 0.02)
        assert line == f"a.jsonl: max rel mean 0.02, max rel stderr 1, max |z| {z:.3g}"

    def test_flags_flips_and_one_sided_rows_and_files(self, tmp_path, capsys):
        module = _load_script("compare_reports")
        self._write_report(tmp_path / "old" / "a.jsonl", [("p", 0.5, 0.01), ("gone", 1.0, 0.0)], [("c", True)])
        self._write_report(tmp_path / "new" / "a.jsonl", [("p", 0.5, 0.01), ("d", math.inf, 0.0)], [("c", False)])
        self._write_report(tmp_path / "old" / "only_old.jsonl", [], [])
        self._write_report(tmp_path / "new" / "only_new.jsonl", [], [])
        assert module.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
        out = capsys.readouterr().out
        assert "only_old.jsonl: only in OLD" in out
        assert "only_new.jsonl: only in NEW" in out
        assert "check 'c' flipped: True -> False" in out
        assert "row estimate 'gone' only in OLD" in out
        assert "row estimate 'd' only in NEW" in out
        assert out.splitlines()[-1].endswith("5 problems")
