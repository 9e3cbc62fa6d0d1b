"""Config validation, determinism, slope fitting, and emission contracts."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import ldpbandits
from ldpbandits import (
    ConfigurationError,
    ContractViolation,
    ExperimentConfig,
    PerturbedValue,
    RegretTrace,
    checkpoint_grid,
    emit,
    fit_slope,
    harness,
    run_bai,
    run_experiment,
)
from ldpbandits.environments import AdversarialMab
from ldpbandits.harness import CSV_HEADER, RegretAccumulator, parse_trace_csv


def mab_doc(**overrides):
    doc = {
        "algorithm": "mab",
        "horizon": 2000,
        "replications": 2,
        "base_seed": 7,
        "environment": {"kind": "stochastic", "means": [0.5, 0.3]},
        "privacy": {"epsilon": 2.0, "delta": 0.1},
    }
    doc.update(overrides)
    return doc


class TestCheckpointGrid:
    def test_last_is_horizon(self):
        grid = checkpoint_grid(100_000, 20)
        assert grid[-1] == 100_000
        assert len(grid) == 20

    def test_strictly_increasing(self):
        for horizon in (50, 1000, 12345):
            grid = checkpoint_grid(horizon, 20)
            assert np.all(np.diff(grid) > 0)
            assert grid[-1] == horizon

    def test_small_horizon(self):
        grid = checkpoint_grid(5, 20)
        assert grid[-1] == 5
        assert np.all(np.diff(grid) > 0)


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentConfig.from_dict(mab_doc(extra_knob=1))

    def test_unknown_environment_key(self):
        doc = mab_doc()
        doc["environment"]["mystery"] = 2
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_privacy_key(self):
        doc = mab_doc(privacy={"epsilon": 1.0, "delta": 0.1, "rho": 2})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(doc)

    def test_missing_required_key(self):
        doc = mab_doc()
        del doc["horizon"]
        with pytest.raises(ConfigurationError, match="missing required"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            ExperimentConfig.from_dict(mab_doc(algorithm="quantum"))

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig.from_dict(mab_doc()).digest()
        b = ExperimentConfig.from_dict(mab_doc()).digest()
        c = ExperimentConfig.from_dict(mab_doc(base_seed=8)).digest()
        assert a == b
        assert a != c

    def test_json_roundtrip(self):
        config = ExperimentConfig.from_json(json.dumps(mab_doc()))
        assert config.horizon == 2000
        assert config.privacy.epsilon == 2.0


_BCO = {"replications": 1, "base_seed": 1, "environment": {"dim": 2}, "privacy": None}
_BAI = {"algorithm": "bai", "horizon": 100, "replications": 1, "base_seed": 1,
        "environment": {"reward_means": [0.9, 0.4]}, "privacy": None}
_CONTEXTUAL = {"algorithm": "contextual_linear", "horizon": 100, "replications": 1,
               "base_seed": 1, "environment": {"dim": 2}, "privacy": None}
_MAB = mab_doc(horizon=100)


_NAN, _INF = float("nan"), float("inf")
_PRIVATE = {"epsilon": 1.0, "delta": 0.01}
_TWO_POINT = dict(_BCO, algorithm="two_point_bco", horizon=100)
_GLM = dict(_CONTEXTUAL, algorithm="contextual_glm", privacy=_PRIVATE)


# (document, the section.field its error names; None where a constructor's
# message speaks for it)
@pytest.mark.parametrize("doc, field", [
    (dict(_BCO, algorithm="two_point_bco", horizon=1), None),
    (dict(_BCO, algorithm="one_point_bco", horizon=100, algorithm_params={"eta": -1}), None),
    (dict(_BAI, algorithm_params={"gamma": 2.0}), None),
    (dict(_CONTEXTUAL, algorithm_params={"alpha": 2.0}), None),
    (dict(_CONTEXTUAL, algorithm_params={"baseline_lambda": 0}), None),
    (dict(_BAI, algorithm_params={"max_pulls": 0}), "algorithm_params.max_pulls"),
    (dict(_BAI, environment={"reward_means": [1.5, 0.4]}), "environment.reward_means"),
    (dict(_BAI, algorithm_params={"eps_lil": -0.5}), None),
    (dict(_BAI, algorithm_params={"lam_lil": -1.0}), None),
    (dict(_CONTEXTUAL, environment={"dim": 2, "theta_star": [1.0, 0.0, 0.0]}),
     "environment.theta_star"),
    (dict(_TWO_POINT, environment={"dim": 2, "x_star": [0.3, 0.0, 0.0]}), "environment.x_star"),
    (dict(_TWO_POINT, environment={"dim": 0}), "environment.dim"),
    (dict(_CONTEXTUAL, environment={"dim": 0}), "environment.dim"),
    (dict(_BCO, algorithm="one_point_bco", horizon=100, environment={"dim": -1}),
     "environment.dim"),
    (dict(_BCO, algorithm="one_point_bco", horizon=100, environment={}), "environment.dim"),
    (dict(_MAB, environment={"kind": "adversarial_switching", "n_arms": 3, "n_blocks": 0}), None),
    (dict(_TWO_POINT, environment={"kind": "affine_quadratic", "dim": 2, "drift_norm": -1}),
     None),
    (dict(_MAB, privacy={"epsilon": 1.0}), "privacy.delta"),
    (dict(_MAB, environment={"kind": "stochastic", "means": []}), "environment.means"),
    (dict(_BAI, horizon="ten"), "horizon"),
    (dict(_BAI, environment=5), "environment"),
    (dict(_TWO_POINT, environment={"dim": "three"}), "environment.dim"),
    (dict(_BCO, algorithm="one_point_bco", horizon=100, algorithm_params={"eta": "fast"}),
     "algorithm_params.eta"),
    # accepted and run wrong before the schema table
    (dict(_GLM, algorithm_params={"kappa": _NAN}), "algorithm_params.kappa"),
    (dict(_GLM, algorithm_params={"zeta": -1}), "algorithm_params.zeta"),
    (dict(_CONTEXTUAL, environment={"dim": 2, "n_arms": 2.7}), "environment.n_arms"),
    (dict(_MAB, checkpoints=3.9), "checkpoints"),
    (dict(_BAI, horizon=100.9), "horizon"),
    (dict(_BAI, replications=True), "replications"),
    (dict(_BAI, base_seed=1.5), "base_seed"),
    (dict(_TWO_POINT, environment={"dim": True}), "environment.dim"),
    (dict(_CONTEXTUAL, environment={"dim": 2, "theta_star": [0.5, _NAN]}),
     "environment.theta_star"),
    # accepted, then failed mid-run
    (dict(_TWO_POINT, algorithm_params={"eta": _NAN}), "algorithm_params.eta"),
    (dict(_TWO_POINT, environment={"dim": 2, "scale": _INF}), "environment.scale"),
    (dict(_BAI, base_seed=-1), "base_seed"),
    # accepted although not an object
    (dict(_TWO_POINT, environment=[["dim", 2]]), "environment"),
    (dict(_TWO_POINT, algorithm_params=[["mode", "convex"]]), "algorithm_params"),
    # a key of another kind or privacy mode, accepted and ignored
    (dict(_TWO_POINT, environment={"dim": 2, "drift_norm": 0.2}), "environment.drift_norm"),
    (dict(_CONTEXTUAL, environment={"dim": 2, "link": "logistic"}), "environment.link"),
    (dict(_CONTEXTUAL, algorithm_params={"zeta": 0.1}), "algorithm_params.zeta"),
    (dict(_CONTEXTUAL, algorithm_params={"kappa": 1.0}), "algorithm_params.kappa"),
    (dict(_GLM, algorithm_params={"baseline_lambda": 1.0}), "algorithm_params.baseline_lambda"),
    (dict(_MAB, environment={"kind": "stochastic", "means": [0.5, 0.3], "n_blocks": 4}),
     "environment.n_blocks"),
    (dict(_MAB, environment={"kind": "adversarial_switching", "n_arms": 2, "means": [0.5, 0.3]}),
     "environment.means"),
    (dict(_MAB, environment={"kind": "adversarial_fixed_gap", "n_arms": 2}), "environment.kind"),
    # rejected with another field's message
    (dict(_TWO_POINT, algorithm_params={"rho": _NAN}), "algorithm_params.rho"),
    (dict(_TWO_POINT, environment={"dim": 2, "radius": _NAN}), "environment.radius"),
], ids=["two_point_horizon_1", "one_point_negative_eta", "bai_gamma_2",
        "baseline_alpha_2", "baseline_lambda_0", "bai_no_pulls", "bai_mean_above_1",
        "bai_negative_eps", "bai_negative_lam", "theta_star_longer_than_dim",
        "x_star_longer_than_dim", "bco_dim_0", "contextual_dim_0", "bco_dim_negative",
        "bco_no_dim", "switching_no_blocks", "affine_negative_drift", "privacy_no_delta",
        "mab_no_means", "horizon_not_a_number", "environment_not_an_object",
        "dim_not_a_number", "eta_not_a_number",
        "kappa_nan", "zeta_negative", "n_arms_fraction", "checkpoints_fraction",
        "horizon_fraction", "replications_bool", "base_seed_fraction", "dim_bool",
        "theta_star_nan", "eta_nan", "scale_infinite", "base_seed_negative",
        "environment_pairs", "algorithm_params_pairs", "drift_norm_on_quadratic",
        "link_on_linear", "zeta_on_linear", "kappa_without_privacy",
        "baseline_lambda_with_privacy", "n_blocks_on_stochastic", "means_on_switching",
        "fixed_gap_kind", "rho_nan", "radius_nan"])
def test_from_dict_rejects_what_a_replication_rejects(doc, field):
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_dict(doc)
    if field is not None:
        assert field in str(err.value)
    # no TypeError or ValueError is wrapped: the schema names every wrong type
    assert err.value.__cause__ is None


def test_integral_float_horizon_is_an_int_with_the_same_digest():
    config = ExperimentConfig.from_dict(mab_doc(horizon=1e3, base_seed=1,
                                                privacy={"epsilon": 2, "delta": 0.1}))
    assert config.horizon == 1000 and type(config.horizon) is int
    assert config.digest() == "fd327a08972ca974654e24f2094074e4ca807553045a5d5f5b725599d47babfa"


def test_from_dict_loads_no_sampler():
    # the replication from_dict builds has no streams: checking a config
    # draws nothing and leaves numpy.random out of the process; it forks and
    # hashes nothing either, so the process pool and hashlib stay unloaded
    affine = {"dim": 2, "kind": "affine_quadratic"}
    docs = [dict(_BCO, algorithm="two_point_bco", horizon=100),
            dict(_BCO, algorithm="one_point_bco", horizon=100),
            dict(_BCO, algorithm="one_point_bco", horizon=100, environment=affine), mab_doc(),
            SWITCHING_DOC, BAI_DOC, CONTEXTUAL_LINEAR_DOC, CONTEXTUAL_GLM_DOC]
    proc = _run_script(f"""
        import sys
        from ldpbandits import ExperimentConfig
        for doc in {docs!r}:
            ExperimentConfig.from_dict(doc)
        unloaded = ("numpy.random", "concurrent.futures.process", "multiprocessing", "hashlib")
        sys.exit(", ".join(name for name in unloaded if name in sys.modules) or 0)
    """)
    assert proc.returncode == 0, proc.stderr


class TestRegretAccumulator:
    def test_rejects_tainted_values(self):
        acc = RegretAccumulator()
        acc.add(1.0)
        with pytest.raises(ContractViolation):
            acc.add(PerturbedValue(1.0))

    def test_accumulates(self):
        acc = RegretAccumulator()
        acc.add(1.5)
        acc.add(2.5)
        assert acc.total == 4.0


class TestRunExperiment:
    def test_zero_gap_mab_zero_regret(self):
        config = ExperimentConfig.from_dict(
            mab_doc(environment={"kind": "stochastic", "means": [0.4, 0.4, 0.4]})
        )
        trace = run_experiment(config, n_jobs=1)
        assert np.all(trace.per_replication == 0.0)

    def test_first_replication_stable_as_count_grows(self):
        one = run_experiment(ExperimentConfig.from_dict(mab_doc(replications=1)), n_jobs=1)
        two = run_experiment(ExperimentConfig.from_dict(mab_doc(replications=2)), n_jobs=1)
        assert np.array_equal(one.per_replication[0], two.per_replication[0])

    def test_parallel_equals_serial(self):
        config = ExperimentConfig.from_dict(mab_doc(replications=4))
        serial = run_experiment(config, n_jobs=1)
        parallel = run_experiment(config, n_jobs=2)
        assert np.array_equal(serial.per_replication, parallel.per_replication)

    def test_nonprivate_tsallis_sublinear_smoke(self):
        config = ExperimentConfig.from_dict(mab_doc(
            horizon=100_000, replications=5, privacy=None,
            environment={"kind": "stochastic", "means": [0.5, 0.3]},
        ))
        trace = run_experiment(config, n_jobs=2)
        assert float(trace.mean[-1]) < 0.05 * 100_000

    def test_regret_nondecreasing_for_nonnegative_gaps(self):
        config = ExperimentConfig.from_dict(mab_doc(replications=3))
        trace = run_experiment(config, n_jobs=1)
        for row in trace.per_replication:
            assert np.all(np.diff(row) >= -1e-12)

    def test_all_runner_smoke(self):
        docs = [
            {"algorithm": "two_point_bco", "horizon": 400, "replications": 1,
             "base_seed": 1, "environment": {"dim": 2},
             "privacy": {"epsilon": 1.0, "delta": 1e-5}},
            {"algorithm": "two_point_bco", "horizon": 400, "replications": 1,
             "base_seed": 1, "environment": {"kind": "affine_quadratic", "dim": 2},
             "algorithm_params": {"mode": "strongly_convex"}, "privacy": None},
            {"algorithm": "one_point_bco", "horizon": 400, "replications": 1,
             "base_seed": 1, "environment": {"dim": 2}, "privacy": None},
            {"algorithm": "mab", "horizon": 400, "replications": 1, "base_seed": 1,
             "environment": {"kind": "adversarial_switching", "n_arms": 3},
             "privacy": {"epsilon": 2.0, "delta": 0.1}},
            {"algorithm": "contextual_linear", "horizon": 400, "replications": 1,
             "base_seed": 1, "environment": {"dim": 2, "n_arms": 4},
             "privacy": {"epsilon": 1.0, "delta": 0.01}},
            {"algorithm": "contextual_linear", "horizon": 400, "replications": 1,
             "base_seed": 1, "environment": {"dim": 2, "n_arms": 4}, "privacy": None},
            {"algorithm": "contextual_glm", "horizon": 400, "replications": 1,
             "base_seed": 1, "environment": {"dim": 2, "n_arms": 4, "link": "logistic"},
             "privacy": {"epsilon": 1.0, "delta": 0.01}},
        ]
        for doc in docs:
            trace = run_experiment(ExperimentConfig.from_dict(doc), n_jobs=1)
            assert trace.per_replication.shape[0] == 1
            assert np.all(np.isfinite(trace.per_replication))

    def test_bai_run(self):
        config = ExperimentConfig.from_dict({
            "algorithm": "bai", "horizon": 100_000, "replications": 20, "base_seed": 3,
            "environment": {"reward_means": [0.9, 0.5]},
            "algorithm_params": {"gamma": 0.1}, "privacy": None,
        })
        result = run_bai(config, n_jobs=1)
        assert result["success_rate"] >= 0.9
        assert result["mean_pulls"] > 2

    def test_bai_requires_bai_runner(self):
        config = ExperimentConfig.from_dict(mab_doc())
        with pytest.raises(ConfigurationError):
            run_bai(config)
        bai_config = ExperimentConfig.from_dict({
            "algorithm": "bai", "horizon": 1000, "replications": 1, "base_seed": 1,
            "environment": {"reward_means": [0.9, 0.5]},
        })
        with pytest.raises(ConfigurationError):
            run_experiment(bai_config)


SWITCHING_DOC = mab_doc(
    horizon=300, replications=25,
    environment={"kind": "adversarial_switching", "n_arms": 4, "n_blocks": 5},
)
BAI_DOC = {
    "algorithm": "bai", "horizon": 200, "replications": 25, "base_seed": 11,
    "environment": {"reward_means": [0.9, 0.6, 0.4]},
    "algorithm_params": {"gamma": 0.1}, "privacy": {"epsilon": 2.0, "delta": 0.01},
}
# past the contextual environment's first block of rounds
CONTEXTUAL_LINEAR_DOC = {
    "algorithm": "contextual_linear", "horizon": 300, "replications": 6, "base_seed": 13,
    "environment": {"dim": 3, "n_arms": 5}, "privacy": {"epsilon": 1.0, "delta": 0.01},
}
CONTEXTUAL_GLM_DOC = dict(CONTEXTUAL_LINEAR_DOC, algorithm="contextual_glm")
TEST_PID = os.getpid()


def _kill_own_worker(_):
    if os.getpid() != TEST_PID:  # never the test process itself
        os.kill(os.getpid(), signal.SIGKILL)


def _run_script(script: str) -> subprocess.CompletedProcess:
    src = str(Path(ldpbandits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestDefaultJobs:
    def test_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("LDPBANDITS_JOBS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert harness.default_jobs() == 1
        monkeypatch.setenv("LDPBANDITS_JOBS", "3")  # the variable still comes first
        assert harness.default_jobs() == 3

    def test_cpu_count_capped_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delenv("LDPBANDITS_JOBS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert harness.default_jobs() == 8


class TestReplicationPool:
    """One warm pool per process, fed blocks of replications."""

    @staticmethod
    def _emitted(doc, n_jobs, tmp_path) -> bytes:
        config = ExperimentConfig.from_dict(doc)
        if config.algorithm == "bai":
            result = run_bai(config, n_jobs=n_jobs)
            del result["wall_clock"]
            return json.dumps(result, sort_keys=True).encode()
        trace = run_experiment(config, n_jobs=n_jobs)
        return b"".join(open(emit(trace, str(tmp_path / f"trace.{fmt}"), fmt), "rb").read()
                        for fmt in ("csv", "json"))

    @pytest.mark.parametrize(
        "doc", [SWITCHING_DOC, BAI_DOC, CONTEXTUAL_LINEAR_DOC, CONTEXTUAL_GLM_DOC],
        ids=["mab", "bai", "contextual_linear", "contextual_glm"])
    def test_bytes_identical_at_any_job_count(self, doc, tmp_path):
        serial = self._emitted(doc, 1, tmp_path)
        # 2, then 2 again on the same pool, then 3 on a rebuilt one
        for n_jobs in (2, 2, 3):
            assert self._emitted(doc, n_jobs, tmp_path) == serial

    def test_parallel_calls_share_one_executor(self):
        config = ExperimentConfig.from_dict(mab_doc(replications=4))
        run_experiment(config, n_jobs=2)
        first = harness._POOL[2]
        run_bai(ExperimentConfig.from_dict(BAI_DOC), n_jobs=2)
        assert harness._POOL[2] is first
        run_experiment(config, n_jobs=3)
        assert harness._POOL[1] == 3 and harness._POOL[2] is not first
        with pytest.raises(RuntimeError):  # the old pool was shut down
            first.submit(int)

    def test_killed_worker_raises_then_a_fresh_pool_runs(self):
        config = ExperimentConfig.from_dict(mab_doc(replications=4))
        serial = run_experiment(config, n_jobs=1).per_replication
        run_experiment(config, n_jobs=2)
        with pytest.raises(BrokenProcessPool):
            harness._map_replications(_kill_own_worker, range(4), 2)
        assert harness._POOL is None
        assert np.array_equal(run_experiment(config, n_jobs=2).per_replication, serial)

    def test_workers_exit_with_the_interpreter(self):
        proc = _run_script(f"""
            import multiprocessing
            from ldpbandits import ExperimentConfig, run_experiment
            run_experiment(ExperimentConfig.from_dict({mab_doc(replications=4)!r}), n_jobs=2)
            print(*(p.pid for p in multiprocessing.active_children()))
        """)
        assert proc.returncode == 0, proc.stderr
        pids = proc.stdout.split()
        assert len(pids) == 2
        assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]

    def test_forked_child_builds_its_own_pool(self):
        proc = _run_script(f"""
            import os
            import signal
            import numpy as np
            from ldpbandits import ExperimentConfig, harness, run_experiment
            config = ExperimentConfig.from_dict({mab_doc(replications=4)!r})
            serial = run_experiment(config, n_jobs=1).per_replication
            run_experiment(config, n_jobs=2)
            parent_pool = harness._POOL[2]
            child = os.fork()
            if child == 0:
                signal.alarm(60)  # a child stuck on its parent's pool dies
                same = np.array_equal(run_experiment(config, n_jobs=2).per_replication, serial)
                own = harness._POOL[0] == os.getpid() and harness._POOL[2] is not parent_pool
                harness._POOL[2].shutdown()
                os._exit(0 if same and own else 1)
            assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
            assert harness._POOL[2] is parent_pool
        """)
        assert proc.returncode == 0, proc.stderr


class TestSwitchingTable:
    def test_built_once_per_config_and_read_only(self, monkeypatch):
        builds = []
        switching = AdversarialMab.switching

        def counted(*args, **kwargs):
            builds.append(args)
            return switching(*args, **kwargs)

        monkeypatch.setattr(AdversarialMab, "switching", staticmethod(counted))
        harness._switching_environment.cache_clear()
        config = ExperimentConfig.from_dict(dict(SWITCHING_DOC, replications=3))
        run_experiment(config, n_jobs=1)
        run_experiment(config, n_jobs=1)
        doc = config.env
        env, best_prefix = harness._switching_environment(
            doc["n_arms"], config.horizon, doc["anchor_loss"], doc["dip_loss"], doc["off_loss"],
            doc["n_blocks"])
        assert len(builds) == 1  # the runs' table, from the cache
        assert not env.table.flags.writeable and not best_prefix.flags.writeable
        harness._switching_environment.cache_clear()


class TestFitSlope:
    def _trace(self, fn, horizon=100_000):
        grid = checkpoint_grid(horizon, 20)
        values = np.array([fn(t) for t in grid], dtype=float)
        return RegretTrace(checkpoints=grid, per_replication=values[None, :],
                           config_digest="x", wall_clock=0.0)

    def test_exact_power_law(self):
        fit = fit_slope(self._trace(lambda t: t**0.75))
        assert fit.exponent == pytest.approx(0.75, abs=1e-9)
        assert fit.residual < 1e-12

    def test_scaled_power_law(self):
        fit = fit_slope(self._trace(lambda t: 5.0 * t**0.5))
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-9)

    def test_perturbed_power_law(self):
        # fit over the full grid: the log-periodic ripple only averages out
        # over at least one full period of sin(ln t)
        trace = self._trace(lambda t: t**0.75 * (1 + 0.1 * np.sin(np.log(t))))
        fit = fit_slope(trace, window=(0, trace.checkpoints.size))
        assert abs(fit.exponent - 0.75) < 0.05

    def test_window_too_small(self):
        with pytest.raises(ConfigurationError):
            fit_slope(self._trace(lambda t: t), window=(0, 3))

    def test_nonpositive_regret_rejected(self):
        trace = self._trace(lambda t: t - 50_000.0)
        with pytest.raises(ConfigurationError, match="nonpositive"):
            fit_slope(trace)

    def test_array_input(self):
        grid = checkpoint_grid(10_000, 15)
        fit = fit_slope((grid, grid.astype(float) ** 0.6))
        assert fit.exponent == pytest.approx(0.6, abs=1e-9)


class TestEmit:
    def _trace(self):
        config = ExperimentConfig.from_dict(mab_doc(horizon=500))
        return run_experiment(config, n_jobs=1)

    def test_csv_header_exact(self, tmp_path):
        path = emit(self._trace(), str(tmp_path / "trace.csv"), "csv")
        first = open(path).readline().strip()
        assert first == "checkpoint,mean_regret,std_regret,n_replications"
        assert CSV_HEADER == first

    def test_csv_roundtrip_exact_values(self, tmp_path):
        trace = self._trace()
        path = emit(trace, str(tmp_path / "trace.csv"), "csv")
        cps, means, stds, n = parse_trace_csv(open(path).read())
        assert np.array_equal(cps, trace.checkpoints)
        assert np.array_equal(means, trace.mean)
        assert np.array_equal(stds, trace.std)
        assert n == trace.n_replications

    def test_byte_stability(self, tmp_path):
        config = ExperimentConfig.from_dict(mab_doc(horizon=500))
        a = emit(run_experiment(config, n_jobs=1), str(tmp_path / "a.csv"), "csv")
        b = emit(run_experiment(config, n_jobs=2), str(tmp_path / "b.csv"), "csv")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_json_contains_digest(self, tmp_path):
        config = ExperimentConfig.from_dict(mab_doc(horizon=500))
        trace = run_experiment(config, n_jobs=1)
        path = emit(trace, str(tmp_path / "trace.json"), "json")
        doc = json.loads(open(path).read())
        assert doc["config_digest"] == config.digest()
        again = emit(run_experiment(config, n_jobs=1), str(tmp_path / "again.json"), "json")
        assert open(path).read() == open(again).read()

    def test_fit_emission(self, tmp_path):
        fit = fit_slope(TestFitSlope()._trace(lambda t: t**0.5))
        json_path = emit(fit, str(tmp_path / "fit.json"), "json")
        doc = json.loads(open(json_path).read())
        assert doc["exponent"] == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(ConfigurationError):
            emit(fit, str(tmp_path / "fit.csv"), "csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit(self._trace(), str(tmp_path / "x.yaml"), "yaml")

    def test_bai_result_json(self, tmp_path):
        # the payload tests/test_golden.py pins: sorted keys, no wall_clock
        result = run_bai(ExperimentConfig.from_dict(BAI_DOC), n_jobs=1)
        payload = {key: result[key] for key in sorted(result) if key != "wall_clock"}
        path = emit(result, str(tmp_path / "out" / "trace_bai.json"), "json")
        assert open(path).read() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        with pytest.raises(ConfigurationError):
            emit(result, str(tmp_path / "trace_bai.csv"), "csv")


class TestTrajectoryDump:
    def test_linear_trajectory_records(self):
        from ldpbandits.harness import run_replication

        config = ExperimentConfig.from_dict({
            "algorithm": "contextual_linear", "horizon": 50, "replications": 1,
            "base_seed": 2, "environment": {"dim": 2, "n_arms": 3},
            "privacy": {"epsilon": 1.0, "delta": 0.01},
        })
        rows = []
        run_replication(config, 0, record=rows)
        assert len(rows) == 50
        t, arm, reward, theta, beta, contained = rows[0]
        assert t == 1
        assert 0 <= arm < 3
        assert theta.shape == (2,)
        assert isinstance(contained, (bool, np.bool_))

    def test_record_is_for_contextual_algorithms(self):
        from ldpbandits.harness import run_replication

        with pytest.raises(ConfigurationError):
            run_replication(ExperimentConfig.from_dict(mab_doc()), 0, record=[])


# ---------------------------------------------------------------------------
# the README's config schema table is harness.SCHEMA, row for row

_README_TYPES = {int: "integer", float: "number", list: "list of numbers", str: "string",
                 dict: "object"}


def _readme_line(row) -> str:
    """The README's rendering of a SCHEMA row."""
    name = f"{row.section}.{row.name}".lstrip(".")
    algorithms = "all" if row.algorithms is None else ", ".join(f"`{a}`" for a in row.algorithms)
    default = "required" if row.default is harness.REQUIRED else json.dumps(row.default)
    if row.type is str:
        ranged = ", ".join(f"`{choice}`" for choice in row.range)
    else:
        ranged = row.range or ""
    cells = [f"`{name}`", algorithms, "" if row.case is None else f"`{row.case}`",
             _README_TYPES[row.type], default, ranged]
    return "| " + " | ".join(cells) + " |"


def _readme_schema_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Config schema\n")[1].split("\n## ")[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def test_readme_schema_table_is_the_schema():
    assert _readme_schema_lines() == [_readme_line(row) for row in harness.SCHEMA]


# a valid value for each required field, and the kinds of each algorithm
_REQUIRED_VALUES = {"dim": 2, "means": [0.5, 0.3], "n_arms": 3, "reward_means": [0.9, 0.4]}
_KINDS = {"two_point_bco": ("quadratic", "affine_quadratic"),
          "one_point_bco": ("quadratic", "affine_quadratic"),
          "mab": ("stochastic", "adversarial_switching"), "bai": (None,),
          "contextual_linear": (None,), "contextual_glm": (None,)}


@pytest.mark.parametrize("algorithm, kind, mode", [
    (algorithm, kind, mode) for algorithm, kinds in _KINDS.items() for kind in kinds
    for mode in ("private", "non_private")])
def test_readme_fields_are_the_fields_a_config_takes(algorithm, kind, mode):
    # every field the README lists for this algorithm, kind and mode, at its
    # default or a valid value, is accepted; the checked sections hold
    # exactly those fields, and one more key is rejected as unknown
    listed = {"environment": {}, "algorithm_params": {}}
    for line in _readme_schema_lines():
        name, algorithms, case, _, default = (cell.strip(" `") for cell in line.split("|")[1:6])
        section, _, field = name.rpartition(".")
        holds = algorithms == "all" or algorithm in algorithms.replace("`", "").split(", ")
        if section in listed and holds and case in ("", kind, mode):
            value = _REQUIRED_VALUES[field] if default == "required" else json.loads(default)
            listed[section][field] = kind if field == "kind" else value
    doc = {"algorithm": algorithm, "horizon": 100, "replications": 1, "base_seed": 1,
           "privacy": {"epsilon": 1.0, "delta": 0.01} if mode == "private" else None, **listed}
    config = ExperimentConfig.from_dict(doc)
    assert set(config.env) == set(listed["environment"])
    assert set(config.params) == set(listed["algorithm_params"])
    for section in listed:
        with pytest.raises(ConfigurationError, match=f"unknown config keys: {section}.extra"):
            ExperimentConfig.from_dict(dict(doc, **{section: dict(doc[section], extra=1)}))
