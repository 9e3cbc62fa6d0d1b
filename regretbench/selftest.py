"""Tests of the benchmark itself: a short smoke run of every workload with
all of its checks, and one test per output check showing that it rejects a
corrupted input.

    python3 -m pytest -q regretbench/selftest.py

The file name keeps it out of the library's default test collection; it
runs the library's process pool and takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Recorder, Tracer, targets  # noqa: E402

from ldpbandits import ExperimentConfig, contextual, harness, run_experiment  # noqa: E402

SMOKE_HORIZON = 100


def smoke_docs(workload):
    # BAI keeps its pull cap: below it the non-private twin is capped too and
    # the private-needs-more-pulls check has nothing to compare.
    return workloads.shortened(workloads.parts(workload, 0), horizon=SMOKE_HORIZON,
                               bai_cap=200)


def part_doc(workload, name, horizon=30, replications=3):
    docs = workloads.shortened(workloads.parts(workload, 0), horizon, 200, replications)
    return dict(docs)[name]


def traced_run(doc):
    tracer, recorder = Tracer(), Recorder()
    config = ExperimentConfig.from_dict(doc)
    with tracer.installed(targets(recorder)):
        out = run_experiment(config, n_jobs=1)
    return out, recorder, tracer


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    state, metrics, _ = bench.per_layer(workload, 0, 0.0, smoke_docs(workload))
    assert state.problems == []
    assert state.failed == 0
    assert state.attempted == 3 * len(state.parts)  # 2-job, untraced and traced
    assert set(metrics) == {m["name"] for m in benchmark_json()["per_layer"]}
    assert metrics["harness.replication_calls"]["value"] == sum(
        inst.replications for _, _, inst, _ in state.parts)
    contextual_calls = metrics["contextual.select_calls"]["value"]
    assert (contextual_calls > 0) == workload.startswith("contextual")


def test_smoke_end_to_end():
    workload = "contextual_linear"
    state, metrics, _ = bench.end_to_end(workload, 0, 0.0, smoke_docs(workload))
    assert state.problems == []
    assert state.attempted == 2 and state.failed == 0
    assert set(metrics) == {m["name"] for m in benchmark_json()["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "regretbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "regretbench/run.py", "--workload", "context_free", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_target():
    recorder = Recorder()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets(recorder)]
    with Tracer().installed(targets(recorder)):
        assert harness.run_replication is not before[-1]
    after = [vars(owner)[attr] for owner, attr, _, _ in targets(recorder)]
    assert all(a is b for a, b in zip(before, after))


# ---------------------------------------------------------------------------
# each check rejects a corrupted input


def test_regret_bounds_reject_a_negative_increment():
    inst = checks.instance(part_doc("contextual_linear", "linear_ldp"))
    cps = np.array([10, 20, 30])
    good = np.tile([1.0, 2.0, 3.0], (inst.replications, 1))
    assert checks.regret_bounds(inst, cps, good) == []
    bad = good.copy()
    bad[1, 2] = 1.5
    assert any("decreases" in p for p in checks.regret_bounds(inst, cps, bad))


def test_regret_bounds_reject_more_than_the_largest_gap():
    inst = checks.instance(part_doc("context_free", "two_point"))
    cps = np.array([10, 20, 30])
    bad = np.tile([1.0, 2.0, 30 * inst.max_gap * 1.01], (inst.replications, 1))
    assert any("max gap" in p for p in checks.regret_bounds(inst, cps, bad))
    bad[0, 0] = np.nan
    assert "regret is not finite" in checks.regret_bounds(inst, cps, bad)


def test_regret_bounds_reject_a_switching_regret_beyond_its_span():
    inst = checks.instance(part_doc("context_free", "mab_switching"))
    cps = np.array([10, 20, 30])
    ok = np.tile([-2.0, 1.0, 4.0], (inst.replications, 1))
    assert checks.regret_bounds(inst, cps, ok) == []
    bad = ok.copy()
    bad[2, 0] = -10 * 0.21 - 0.01
    assert any("off - dip" in p for p in checks.regret_bounds(inst, cps, bad))


def test_ldp_must_exceed_the_baseline():
    assert checks.ldp_above_baseline(10.0, 2.0) == []
    assert checks.ldp_above_baseline(2.0, 2.0) != []


def test_bai_binomial_test_rejects_too_many_wrong_stops():
    assert checks.bai_wrong_stops(25, 200, 0.1) == []
    assert checks.bai_wrong_stops(45, 200, 0.1) != []


def test_bai_summary_rejects_impossible_results():
    inst = checks.instance(part_doc("context_free", "bai_ldp", replications=200))
    result = {"replications": 200, "success_rate": 0.9, "mean_pulls": 150.0,
              "capped_runs": 180}
    assert checks.bai_summary(inst, result) == (30_000, [])
    assert checks.bai_summary(inst, dict(result, mean_pulls=201.0))[1] != []
    assert checks.bai_summary(inst, dict(result, success_rate=0.9012))[1] != []
    # 60 wrong answers with no capped run: all are wrong stops
    assert checks.bai_summary(inst, dict(result, success_rate=0.7, capped_runs=0))[1] != []


def test_private_bai_must_need_more_pulls():
    assert checks.private_needs_more_pulls(199.0, 170.0) == []
    assert checks.private_needs_more_pulls(170.0, 170.0) != []


def test_repeats_must_emit_identical_bytes():
    assert checks.identical_digests({"a": {"x"}, "b": {"y"}}) == []
    assert checks.identical_digests({"a": {"x", "z"}}) != []


def test_two_job_matrix_must_equal_the_one_job_matrix():
    doc = part_doc("contextual_glm", "glm_ldp")
    config = ExperimentConfig.from_dict(doc)
    one = run_experiment(config, n_jobs=1).per_replication
    two = run_experiment(config, n_jobs=2).per_replication
    assert checks.identical_outputs(two, one) == []
    assert checks.identical_outputs(two, np.nextafter(one, np.inf)) != []
    assert checks.identical_outputs({"a": 1, "wall_clock": 2}, {"a": 1, "wall_clock": 3}) == []
    assert checks.identical_outputs({"a": 1}, {"a": 2}) != []


@pytest.mark.parametrize("workload,name", [
    ("contextual_linear", "linear_ldp"), ("contextual_glm", "glm_ldp"),
    ("context_free", "two_point"), ("context_free", "one_point"),
    ("context_free", "mab_switching"),
])
def test_recomputed_regret_matches_and_rejects_a_changed_trace(workload, name):
    doc = part_doc(workload, name)
    out, recorder, _ = traced_run(doc)
    inst = checks.instance(doc)
    recomputed = checks.recompute_regret(inst, recorder.replications, out.checkpoints)
    assert checks.recomputed_regret(recomputed, out.per_replication) == []
    shifted = out.per_replication.copy()
    shifted[0, -1] *= 1 + 1e-6
    assert checks.recomputed_regret(recomputed, shifted) != []


def test_noise_check_rejects_half_sigma():
    rng = np.random.default_rng(5)
    assert checks.noise_scale("x", rng.normal(0.0, 3.0, 20_000), 3.0) == []
    assert checks.noise_scale("x", rng.normal(0.0, 1.5, 20_000), 3.0) != []
    assert checks.noise_scale("x", np.zeros(10), 0.0) == []
    assert checks.noise_scale("x", np.r_[np.zeros(9), 1e-3], 0.0) != []


def test_traced_checks_catch_noise_drawn_at_half_sigma(monkeypatch):
    doc = part_doc("contextual_linear", "linear_ldp", horizon=200)
    out, recorder, _ = traced_run(doc)
    inst = checks.instance(doc)
    assert bench.traced_checks(inst, out, recorder.replications, out) == []

    calibrated = contextual.linear_sigma
    monkeypatch.setattr(contextual, "linear_sigma", lambda p: 0.5 * calibrated(p))
    out, recorder, _ = traced_run(doc)
    problems = bench.traced_checks(inst, out, recorder.replications, out)
    assert any("gram_noise" in p for p in problems)
    assert any("moment_noise" in p for p in problems)


def test_paper_sigmas():
    # The formulas are the paper's; spot-check them against hand values.
    linear = checks.instance(part_doc("contextual_linear", "linear_ldp"))
    assert linear.sigma == pytest.approx(6 * np.sqrt(2 * np.log(250.0)))
    glm = checks.instance(part_doc("contextual_glm", "glm_ldp"))
    assert glm.sigma == pytest.approx(6 * np.sqrt(2 * np.log(375.0)))
    one = checks.instance(part_doc("context_free", "one_point"))
    assert one.sigma == pytest.approx(2 * 1.69 * np.sqrt(2 * np.log(125.0)))
    two = checks.instance(part_doc("context_free", "two_point"))
    assert two.sigma == pytest.approx(2 * 2.6 * np.sqrt(2 * np.log(1.25e5)))
    assert checks.instance(part_doc("contextual_linear", "linear_baseline")).sigma == 0.0
