"""Golden SHA-256 digests of the emitted bytes at a short horizon.

The serial-against-parallel and repeat-against-repeat checks elsewhere would
not notice a change that moves every output the same way.  These digests pin
the bytes themselves.  Each config in configs/ and each criterion instance
that the benchmark's workloads are built from runs at horizon 200 with 4
replications (BAI: 8 replications with a pull cap of 10,000, so that the
private replications stop by lil'UCB's rule) on one job, and its emitted
CSV + JSON (BAI: the sorted payload the CLI writes, without wall_clock) is
hashed.

A digest changes only when the emitted numbers change.  Such a change must
be explained where it is made, and the digest recomputed with
`python -m tests.test_golden` from the repository root.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ldpbandits import ExperimentConfig, emit, run_bai, run_experiment
from ldpbandits.harness import run_replication, trajectory_csv
from ldpbandits.suites import COVERAGE_DOC

ROOT = Path(__file__).resolve().parent.parent
HORIZON = 200
REPLICATIONS = 4
BAI_CAP = 10_000
BAI_REPLICATIONS = 8

_BAI = {
    "algorithm": "bai",
    "horizon": 500_000,
    "replications": 200,
    "base_seed": 53_331,
    "environment": {"reward_means": [0.9, 0.6, 0.4]},
    "algorithm_params": {"gamma": 0.1},
}

# Criteria 1, 3, 4 (both worlds), 5 (private and non-private), 6 (private)
# and 7, as in suites.py.
CRITERION_DOCS = {
    "criterion_1_two_point": {
        "algorithm": "two_point_bco",
        "horizon": 100_000,
        "replications": 20,
        "base_seed": 20_406,
        "environment": {"kind": "quadratic", "dim": 5},
        "privacy": {"epsilon": 1.0, "delta": 1e-5},
        "algorithm_params": {"mode": "convex"},
    },
    "criterion_3_one_point": {
        "algorithm": "one_point_bco",
        "horizon": 200_000,
        "replications": 20,
        "base_seed": 30_915,
        "environment": {"kind": "quadratic", "dim": 3},
        "privacy": {"epsilon": 1.0, "delta": 1e-2},
    },
    "criterion_4_mab_switching": {
        "algorithm": "mab",
        "horizon": 100_000,
        "replications": 50,
        "base_seed": 41_117,
        "environment": {"kind": "adversarial_switching", "n_arms": 5,
                        "anchor_loss": 0.45, "dip_loss": 0.44, "off_loss": 0.65,
                        "n_blocks": 10},
        "privacy": {"epsilon": 2.5, "delta": 1e-2},
    },
    "criterion_4_mab_stochastic": {
        "algorithm": "mab",
        "horizon": 100_000,
        "replications": 50,
        "base_seed": 42_229,
        "environment": {"kind": "stochastic", "means": [0.5, 0.3]},
        "privacy": {"epsilon": 2.81, "delta": 0.1},
    },
    "criterion_5_bai_ldp": dict(_BAI, privacy={"epsilon": 2.0, "delta": 1e-2}),
    "criterion_5_bai_baseline": _BAI,
    "criterion_6_linear_ldp": {
        "algorithm": "contextual_linear",
        "horizon": 200_000,
        "replications": 20,
        "base_seed": 60_443,
        "environment": {"dim": 3, "n_arms": 10},
        "privacy": {"epsilon": 1.0, "delta": 1e-2},
        "algorithm_params": {"alpha": 0.1},
    },
    "criterion_7_glm": {
        "algorithm": "contextual_glm",
        "horizon": 100_000,
        "replications": 20,
        "base_seed": 70_551,
        "environment": {"dim": 3, "n_arms": 10, "link": "logistic"},
        "privacy": {"epsilon": 1.0, "delta": 1e-2},
        "algorithm_params": {"alpha": 0.1, "kappa": 1.0},
    },
}

GOLDEN = {
    "configs/bai_private.json":
        "95705abfc8731765f44660d2526175cb19039c780f11dcac5280d3a9ad73302c",
    "configs/contextual_linear_baseline.json":
        "52493bf9626ab711cf63c70c36aba01e9d1e69c6a2f5afebb0307a43b92fa4ef",
    "configs/mab_switching.json":
        "a821a1c95d48067d0990091ed99c802db7341f7bc05c5fec4e48bee1fc32dd1d",
    "configs/two_point_convex.json":
        "5705dc3df988980919e6f869639793f51b3d3064d5621ca951c780918b499aea",
    "criterion_1_two_point":
        "5705dc3df988980919e6f869639793f51b3d3064d5621ca951c780918b499aea",
    "criterion_3_one_point":
        "db8b002074ca97b79c18b30ae3fb2e7cf716b74198280ef4c2ca4bef1dc6fb6c",
    "criterion_4_mab_stochastic":
        "976adc439adade90338c5a128aaa7039b84c84a8918ecf3891a57d5ddca0fbc9",
    "criterion_4_mab_switching":
        "a821a1c95d48067d0990091ed99c802db7341f7bc05c5fec4e48bee1fc32dd1d",
    "criterion_5_bai_baseline":
        "6824d0471869bcefa49f48b18a55d76768b4c738438c9c18518dc38432d5c38e",
    "criterion_5_bai_ldp":
        "95705abfc8731765f44660d2526175cb19039c780f11dcac5280d3a9ad73302c",
    "criterion_6_linear_ldp":
        "462c79f1f251dd04a19e82a38ee09ac3b27ed10e085d6efca1b747bdb89a1f7e",
    "criterion_7_glm":
        "43b93c605f9c34fdb2d46b873ab02ccb41553dd19591359f3df023b399b17499",
}


def _doc(name: str) -> dict:
    if name.startswith("configs/"):
        doc = json.loads((ROOT / name).read_text())
    else:
        doc = dict(CRITERION_DOCS[name])
    if doc["algorithm"] == "bai":
        doc.update(horizon=BAI_CAP, replications=BAI_REPLICATIONS)
    else:
        doc.update(horizon=HORIZON, replications=REPLICATIONS)
    return doc


def emitted_digest(name: str, out_dir: Path) -> str:
    config = ExperimentConfig.from_dict(_doc(name))
    if config.algorithm == "bai":
        result = run_bai(config, n_jobs=1)
        payload = {key: result[key] for key in sorted(result) if key != "wall_clock"}
        blobs = [(json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()]
    else:
        trace = run_experiment(config, n_jobs=1)
        blobs = [Path(emit(trace, str(out_dir / f"trace.{fmt}"), fmt)).read_bytes()
                 for fmt in ("csv", "json")]
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def test_every_config_is_pinned():
    configs = {f"configs/{p.name}" for p in (ROOT / "configs").glob("*.json")}
    assert configs | set(CRITERION_DOCS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, tmp_path):
    assert emitted_digest(name, tmp_path) == GOLDEN[name]


# The per-round record of the contextual algorithms: the trajectory CSVs of
# small private linear and GLM runs, and the containment flags (one byte per
# round, replications in order) of criterion 8's instance at a short horizon
# and of a non-private GLM run.  Criterion 8's flags are all 1 at this horizon; the
# non-private run's width misses theta* in most rounds, so its digest also
# pins flags that read 0.
_TRAJECTORY_DOC = {
    "algorithm": "contextual_linear", "horizon": 50, "replications": 1,
    "base_seed": 2, "environment": {"dim": 2, "n_arms": 3},
    "privacy": {"epsilon": 1.0, "delta": 0.01},
}
TRAJECTORY_DOCS = {
    "linear": _TRAJECTORY_DOC,
    "glm": dict(_TRAJECTORY_DOC, algorithm="contextual_glm"),
}
TRAJECTORY_GOLDEN = {
    "glm": "21b76415c53c2832e82e6afec809a83d7de93b7d5c3321b423412d0d3ec09deb",
    "linear": "91a8feff5774c164c6c2091040b2ff336e6d48fbd183498088b84dee3ccdbdb5",
}
COVERAGE_DOCS = {
    "criterion_8": dict(COVERAGE_DOC, horizon=300, replications=4),
    "glm_baseline": {
        "algorithm": "contextual_glm", "horizon": 300, "replications": 2,
        "base_seed": 2, "environment": {"dim": 2, "n_arms": 3}, "privacy": None,
    },
}
COVERAGE_GOLDEN = {
    "criterion_8": "64bf4e7fe668627a965187e536da3baef5a3ae007bd0fd657421b3ff7bea9127",
    "glm_baseline": "77d3addabd41b0bf6535c111e767aa8f2198c3baeeb167343ad303f49c7daab3",
}


def trajectory_digest(name: str, out_dir: Path) -> str:
    rows = []
    run_replication(ExperimentConfig.from_dict(TRAJECTORY_DOCS[name]), 0, record=rows)
    path = trajectory_csv(rows, str(out_dir / "trajectory.csv"))
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def coverage_digest(name: str) -> str:
    config = ExperimentConfig.from_dict(COVERAGE_DOCS[name])
    digest = hashlib.sha256()
    for rep in range(config.replications):
        rows = []
        run_replication(config, rep, record=rows)
        digest.update(bytes(int(row[5]) for row in rows))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TRAJECTORY_GOLDEN))
def test_trajectory_digest(name, tmp_path):
    assert trajectory_digest(name, tmp_path) == TRAJECTORY_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(COVERAGE_GOLDEN))
def test_coverage_digest(name):
    assert coverage_digest(name) == COVERAGE_GOLDEN[name]


@pytest.mark.parametrize("name", ["criterion_6_linear_ldp", "criterion_7_glm"])
def test_record_leaves_regret_unchanged(name):
    config = ExperimentConfig.from_dict(_doc(name))
    trace = run_experiment(config, n_jobs=1)
    for rep in range(config.replications):
        rows = []
        recorded = run_replication(config, rep, record=rows)
        assert len(rows) == config.horizon
        assert recorded.tobytes() == trace.per_replication[rep].tobytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key in sorted(GOLDEN):
            print(f'    "{key}": "{emitted_digest(key, Path(tmp))}",')
        for key in sorted(TRAJECTORY_GOLDEN):
            print(f'    "{key}": "{trajectory_digest(key, Path(tmp))}",')
    for key in sorted(COVERAGE_GOLDEN):
        print(f'    "{key}": "{coverage_digest(key)}",')
