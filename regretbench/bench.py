"""The measurement loops and the checks they run, for run.py.

Kept apart from run.py because it imports NumPy and the library at the top:
run.py must not, so that the set-up probe's clock covers those imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import workloads
from ldpbandits import ExperimentConfig, emit, run_bai, run_experiment
from tracer import Recorder, Tracer, targets

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
JOBS = min(2, len(os.sched_getaffinity(0)))
SETUP_PROBES_FIRST = 3  # then one after every pass

END_TO_END_UNITS = {"run_s": "s", "rounds_per_s": "rounds/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SPAN_LAYERS = (
    "environments.step", "environments.oracle", "environments.mab",
    "contextual.select", "contextual.report", "contextual.update",
    "mechanisms.matrix_noise", "mechanisms.streams",
    "reductions.two_point_round", "reductions.one_point_round",
    "reductions.mab_observe", "reductions.bai_observe",
    "blackbox.bco_query", "blackbox.bco_update", "blackbox.tsallis_sample",
    "blackbox.tsallis_update", "blackbox.lil_select", "blackbox.lil_update",
    "harness.accounting",
)


def measure_setup(workload: str, seed: int) -> float:
    """One set-up time, from a fresh interpreter running probe_setup."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def host() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "jobs": JOBS}


class Bench:
    """One workload's parts, the operation counters and every problem found."""

    def __init__(self, workload: str, seed: int, docs=None):
        docs = workloads.parts(workload, seed) if docs is None else docs
        self.parts = [(name, doc, checks.instance(doc), ExperimentConfig.from_dict(doc))
                      for name, doc in docs]
        self.out_dir = RESULTS / f"{workload}-seed{seed}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set] = defaultdict(set)

    def run_pass(self, jobs: int, reference=None, recorder=None):
        """One whole round of the workload's operations, each a config's run
        and its checks.  Returns (seconds inside run_experiment/run_bai,
        replication-rounds, outputs by part).

        With a recorder (the traced pass) configs are validated inside the
        pass, and the traced outputs are checked against `reference`.
        """
        seconds, rounds, outputs = 0.0, 0, {}
        for name, doc, inst, config in self.parts:
            self.attempted += 1
            try:
                if recorder is not None:
                    recorder.reset()
                    config = ExperimentConfig.from_dict(doc)
                run = run_bai if inst.algorithm == "bai" else run_experiment
                start = time.perf_counter()
                out = run(config, n_jobs=jobs)
                seconds += time.perf_counter() - start
            except Exception:  # an operation that raises counts as failed
                self.failed += 1
                traceback.print_exc()
                continue
            outputs[name] = out
            if inst.algorithm == "bai":
                part_rounds, problems = checks.bai_summary(inst, out)
            else:
                part_rounds = inst.replications * inst.horizon
                problems = checks.regret_bounds(inst, out.checkpoints, out.per_replication)
            if recorder is not None:
                problems += traced_checks(inst, out, recorder.replications, reference.get(name))
            rounds += part_rounds
            self.digests[name].add(self.emit_digest(name, out))
            self.problems += [f"{name}: {p}" for p in problems]
        self.problems += pair_checks(outputs)
        return seconds, rounds, outputs

    def emit_digest(self, name: str, out) -> str:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(out, dict):
            path = self.out_dir / f"{name}_bai.json"
            payload = {k: out[k] for k in sorted(out) if k != "wall_clock"}
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            paths = [path]
        else:
            paths = [Path(emit(out, str(self.out_dir / f"{name}.{fmt}"), fmt))
                     for fmt in ("csv", "json")]
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def finish_checks(self):
        self.problems += checks.identical_digests(self.digests)


def pair_checks(outputs: dict) -> list[str]:
    problems = []
    if "linear_ldp" in outputs and "linear_baseline" in outputs:
        problems += checks.ldp_above_baseline(float(outputs["linear_ldp"].mean[-1]),
                                              float(outputs["linear_baseline"].mean[-1]))
    if "bai_ldp" in outputs and "bai_baseline" in outputs:
        problems += checks.private_needs_more_pulls(outputs["bai_ldp"]["mean_pulls"],
                                                    outputs["bai_baseline"]["mean_pulls"])
    return problems


def traced_checks(inst, out, records: list[dict], reference) -> list[str]:
    """Checks that need what the traced run saw, and the bit-identity of the
    traced 1-job output with the 2-job `reference`."""
    if reference is None:
        return ["no 2-job output to compare with"]
    if inst.algorithm == "bai":
        problems = checks.identical_outputs(reference, out)
    else:
        problems = checks.identical_outputs(reference.per_replication, out.per_replication)
    if len(records) != inst.replications:
        return problems + [f"traced {len(records)} replications, expected {inst.replications}"]
    if inst.algorithm != "bai":
        recomputed = checks.recompute_regret(inst, records, out.checkpoints)
        problems += checks.recomputed_regret(recomputed, out.per_replication)

    def pooled(key):
        return np.concatenate([np.ravel(r[key]) for r in records])

    if inst.algorithm.startswith("contextual"):
        keys = ["gram_noise", "moment_noise"]
        if inst.algorithm == "contextual_glm":
            keys.append("gradient_noise")
        for key in keys:
            problems += checks.noise_scale(key, pooled(key), inst.sigma)
    elif inst.algorithm.endswith("bco"):
        problems += checks.noise_scale("report noise", pooled("scalar_noise"), inst.sigma)
    else:  # MAB and BAI feed the learner the recentred value plus noise
        problems += checks.noise_scale("report noise", pooled("fed") - (pooled("raw") - 0.5),
                                       inst.sigma)
    if inst.algorithm == "bai":
        means = inst.doc["environment"]["reward_means"]
        best = int(np.argmax(means))
        wrong_stops = 0
        for record in records:
            result = record["result"]
            if result["pulls"] != len(record["fed"]):
                problems.append(f"replication reports {result['pulls']} pulls, "
                                f"traced {len(record['fed'])}")
            if result["success"] != (result["best"] == best):
                problems.append("replication success disagrees with its reported arm")
            wrong_stops += (not result["capped"]) and result["best"] != best
        gamma = float(inst.doc["algorithm_params"].get("gamma", 0.1))
        problems += checks.bai_wrong_stops(wrong_stops, inst.replications, gamma)
        rate = sum(r["result"]["success"] for r in records) / inst.replications
        if rate != out["success_rate"]:
            problems.append(f"success rate {out['success_rate']} != traced {rate}")
    return problems


def warm_up(workload: str, seed: int):
    """Fill caches and finish lazy set-up before timing; outputs unused."""
    docs = workloads.shortened(workloads.parts(workload, seed), horizon=20, bai_cap=20,
                               replications=2)
    Bench(workload, seed, docs).run_pass(JOBS)


def end_to_end(workload: str, seed: int, seconds: float, docs=None):
    """End-to-end metrics from untraced passes at JOBS jobs; `docs`
    replaces the workload's configs (the tests shorten them)."""
    setup = [measure_setup(workload, seed) for _ in range(SETUP_PROBES_FIRST)]
    warm_up(workload, seed)
    bench = Bench(workload, seed, docs)
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        run_s, rounds, _ = bench.run_pass(JOBS)
        passes.append((run_s, rounds))
        # spread the set-up probes over the run, so a burst of load on the
        # host moves a few of them rather than all
        setup.append(measure_setup(workload, seed))
        if time.perf_counter() >= deadline:
            break
    bench.finish_checks()
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "run_s": statistics.median(s for s, _ in passes),
        "rounds_per_s": statistics.median(r / s for s, r in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
               for name, v in values.items()}
    return bench, metrics, {"passes": passes, "setup_s": setup}


def per_layer(workload: str, seed: int, seconds: float, docs=None):
    """Per-layer metrics from traced one-job passes, checked against a
    two-job pass and timed against untraced one-job passes."""
    warm_up(workload, seed)
    bench = Bench(workload, seed, docs)
    two_job_s, _, reference = bench.run_pass(JOBS)
    deadline = time.perf_counter() + seconds
    untraced, traced, tracers, clamps = [], [], [], []
    rounds = 0
    while True:
        untraced.append(bench.run_pass(1)[0])
        tracer, recorder = Tracer(), Recorder()
        with tracer.installed(targets(recorder)):
            traced_s, rounds, _ = bench.run_pass(1, reference, recorder)
        traced.append(traced_s)
        tracers.append(tracer)
        clamps.append(recorder.clamps)
        if time.perf_counter() >= deadline:
            break
    bench.finish_checks()
    if any(dict(t.calls) != dict(tracers[0].calls) for t in tracers):
        bench.problems.append("call counts differ between traced passes")

    n = len(tracers)
    self_ns = {k: sum(t.self_ns[k] for t in tracers) for k in tracers[0].calls}
    total_ns = {k: sum(t.total_ns[k] for t in tracers) for k in tracers[0].calls}
    calls = dict(tracers[0].calls)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in SPAN_LAYERS:
        count = calls.get(layer, 0)
        put(f"{layer}_us", self_ns[layer] / (n * count) / 1e3 if count else 0.0, "us")
        put(f"{layer}_calls", count, "count")
    builds = calls.get("environments.table_build", 0)
    put("environments.table_build_s",
        self_ns["environments.table_build"] / (n * builds) / 1e9 if builds else 0.0, "s")
    put("environments.table_builds", builds, "count")
    put("contextual.clamps", clamps[0], "count")
    reps = calls.get("harness.replication", 0)
    put("harness.loop_us",
        self_ns.get("harness.replication", 0) / (n * rounds) / 1e3 if rounds else 0.0, "us")
    put("harness.loop_calls", rounds, "count")
    put("harness.replication_s",
        total_ns.get("harness.replication", 0) / (n * reps) / 1e9 if reps else 0.0, "s")
    put("harness.replication_calls", reps, "count")
    put("trace.traced_run_s", statistics.median(traced), "s")
    put("trace.untraced_1job_s", statistics.median(untraced), "s")
    put("trace.untraced_2job_s", two_job_s, "s")
    put("trace.overhead_s", statistics.median(traced) - statistics.median(untraced), "s")
    if len(set(clamps)) != 1:
        bench.problems.append(f"clamp counts differ between traced passes: {clamps}")
    return bench, metrics, {"traced_s": traced, "untraced_1job_s": untraced}
