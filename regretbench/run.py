#!/usr/bin/env python3
"""Regret-harness benchmark for ldpbandits.

Drives the library from outside, through `ExperimentConfig.from_dict`,
`run_experiment`, `run_bai` and `emit`, on one of the workloads in
workloads.py, and checks every output (bench.py runs the passes, checks.py
holds the checks, tracer.py the spans).

    python3 regretbench/run.py --workload contextual_linear --seed 0 --seconds 30 --trace 0

--trace 0 repeats whole passes over the workload at two jobs for --seconds
and prints the end-to-end metrics.  --trace 1 runs the workload once at two
jobs, then alternates untraced and traced one-job passes for --seconds and
prints the per-layer metrics.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the host and every
problem found are printed before it, and a result file lands in
regretbench/results/.  --workload all runs each workload in turn.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import workloads  # standard library only, like everything imported here

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def use_checkout_library():
    """Import ldpbandits from this checkout's src/, never from elsewhere."""
    if not (SRC / "ldpbandits" / "__init__.py").is_file():
        sys.exit(f"regretbench: no ldpbandits source under {SRC}")
    sys.path.insert(0, str(SRC))
    origin = importlib.util.find_spec("ldpbandits").origin  # locates, does not import
    if SRC.resolve() not in Path(origin).resolve().parents:
        sys.exit(f"regretbench: ldpbandits resolves to {origin}")


def probe_setup(workload: str, seed: int):
    """Time, in this fresh interpreter, importing the library and
    validating the workload's configs."""
    start = time.perf_counter()
    from ldpbandits import ExperimentConfig

    for _, doc in workloads.parts(workload, seed):
        ExperimentConfig.from_dict(doc)
    print(repr(time.perf_counter() - start))


def run_all(args) -> int:
    """Run every workload in its own interpreter; combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 replays the criteria's base seeds")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    use_checkout_library()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    import bench

    measure = bench.per_layer if args.trace else bench.end_to_end
    state, metrics, detail = measure(args.workload, args.seed, args.seconds)
    info = bench.host()
    correct = not state.problems
    result = {"correct": correct, "attempted": state.attempted, "failed": state.failed,
              "metrics": metrics}
    bench.RESULTS.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, host=info, problems=state.problems, **detail)
    (bench.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for problem in state.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"host {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {state.attempted} failed {state.failed} correct {correct}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
