"""End-to-end CLI behavior: run, slope, suite plumbing, env-var override."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

import ldpbandits
from ldpbandits.cli import main
from ldpbandits.harness import OUTPUT_DIR_ENV


def config_doc():
    return {
        "algorithm": "mab",
        "horizon": 2000,
        "replications": 2,
        "base_seed": 11,
        "environment": {"kind": "stochastic", "means": [0.5, 0.3]},
        "privacy": {"epsilon": 2.0, "delta": 0.1},
    }


@pytest.fixture()
def runner():
    return CliRunner()


def test_run_writes_csv_and_json(tmp_path, runner):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc()))
    result = runner.invoke(main, ["run", str(config_path), "-o", str(tmp_path), "-j", "1"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "trace.json").exists()
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == "checkpoint,mean_regret,std_regret,n_replications"


def test_run_respects_output_env(tmp_path, runner, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc()))
    out_dir = tmp_path / "outputs"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out_dir))
    result = runner.invoke(main, ["run", str(config_path), "-j", "1"])
    assert result.exit_code == 0, result.output
    assert (out_dir / "trace.csv").exists()


def test_run_bai_config(tmp_path, runner):
    doc = {
        "algorithm": "bai", "horizon": 100_000, "replications": 10, "base_seed": 5,
        "environment": {"reward_means": [0.9, 0.5]},
        "algorithm_params": {"gamma": 0.1},
    }
    config_path = tmp_path / "bai.json"
    config_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(config_path), "-o", str(tmp_path), "-j", "1"])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "trace_bai.json").read_text())
    assert payload["success_rate"] >= 0.9


def test_slope_command(tmp_path, runner):
    from ldpbandits import RegretTrace, checkpoint_grid, emit

    grid = checkpoint_grid(100_000, 20)
    values = grid.astype(float) ** 0.75
    trace = RegretTrace(checkpoints=grid, per_replication=values[None, :],
                        config_digest="x", wall_clock=0.0)
    trace_path = tmp_path / "trace.csv"
    emit(trace, str(trace_path), "csv")
    fit_path = tmp_path / "fit.json"
    result = runner.invoke(main, ["slope", str(trace_path), "-o", str(fit_path)])
    assert result.exit_code == 0, result.output
    assert "exponent=0.75" in result.output
    assert json.loads(fit_path.read_text())["exponent"] == pytest.approx(0.75, abs=1e-9)


def test_invalid_config_rejected(tmp_path, runner):
    config_path = tmp_path / "bad.json"
    for text, shown in [(json.dumps(dict(config_doc(), surprise=1)), "surprise"),
                        ("{not json", "config is not JSON")]:
        config_path.write_text(text)
        result = runner.invoke(main, ["run", str(config_path), "-o", str(tmp_path)])
        assert result.exit_code == 1
        assert "Error: " in result.output and shown in result.output
        assert isinstance(result.exception, SystemExit)  # a message, not a traceback


@pytest.mark.parametrize("jobs", ["abc", "-3", "0", "1.5"])
def test_bad_jobs_variable_is_an_error(tmp_path, runner, monkeypatch, jobs):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc()))
    monkeypatch.setenv("LDPBANDITS_JOBS", jobs)
    for args in (["run", str(config_path), "-o", str(tmp_path)], ["suite", "9"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert f"Error: LDPBANDITS_JOBS must be an integer >= 1, got {jobs!r}" in result.output
        assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert not (tmp_path / "trace.csv").exists()


def test_run_and_slope_do_not_load_the_suite(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc()))
    script = f"""
        import sys
        from click.testing import CliRunner
        from ldpbandits.cli import main
        for args in (["run", {str(config_path)!r}, "-o", {str(tmp_path)!r}, "-j", "1"],
                     ["slope", {str(tmp_path / "trace.csv")!r}]):
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
        sys.exit("ldpbandits.suites" in sys.modules and "ldpbandits.suites is loaded")
    """
    src = str(Path(ldpbandits.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("text, shown", [
    ("", "line 1: '' is not the header"),
    ("checkpoint,mean_regret,std_regret,n_replications\n10,1.5,0.1,2\n20,2.5\n",
     "line 3: '20,2.5'"),
], ids=["empty", "short_row"])
def test_slope_names_a_bad_csv(tmp_path, runner, text, shown):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(text)
    result = runner.invoke(main, ["slope", str(trace_path)])
    assert result.exit_code == 1
    assert shown in result.output
    assert isinstance(result.exception, SystemExit)


def test_suite_runs_fast_criteria(runner):
    result = runner.invoke(main, ["suite", "9", "10"])
    assert "criterion 9" in result.output
    assert "criterion 10" in result.output
    assert "2/2 criteria passed" in result.output
    assert result.exit_code == 0


def test_suite_unknown_id(runner):
    result = runner.invoke(main, ["suite", "99"])
    assert result.exit_code != 0


def test_suite_without_mpmath_names_the_test_extra(runner, monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # import mpmath now fails
    result = runner.invoke(main, ["suite", "10"])
    assert result.exit_code == 1
    assert "'test' extra" in result.output
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
