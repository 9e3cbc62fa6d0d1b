"""Golden SHA-256 digests of the emitted bytes at a short horizon.

The serial-against-parallel and repeat-against-repeat checks elsewhere would
not notice a change that moves every output the same way.  These digests pin
the bytes themselves.  Each config in configs/ and each document in
suites.INSTANCES (every instance an acceptance criterion runs, read from
there, so a change to what a criterion runs moves its digest) runs at
horizon 200 with 4 replications (BAI: 8 replications with a pull cap of
10,000, so that the private replications stop by lil'UCB's rule) on one
job, and its emitted CSV + JSON (BAI: the sorted payload the CLI writes,
without wall_clock) is hashed.  The contextual instances are also pinned
across three environment blocks, and their per-round records (trajectory
rows, criterion 8's containment flags) at short horizons.

A digest changes only when the emitted numbers change.  Such a change must
be explained where it is made, and the digest recomputed with
`python -m tests.test_golden` from the repository root.

The context-free digests (BCO, MAB, BAI and the affine oracle) must not
depend on the host's CPU either: they are recomputed in subprocesses that
force other BLAS kernels, NumPy SIMD loops and libm variants, and must come
out the same.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ldpbandits import ExperimentConfig, emit, mechanisms, run_bai, run_experiment
from ldpbandits.environments import BLOCK_ROUNDS
from ldpbandits.harness import run_replication, trajectory_csv
from ldpbandits.suites import INSTANCES

ROOT = Path(__file__).resolve().parent.parent
HORIZON = 200
REPLICATIONS = 4
BAI_CAP = 10_000
BAI_REPLICATIONS = 8

GOLDEN = {
    "configs/bai_private.json":
        "95705abfc8731765f44660d2526175cb19039c780f11dcac5280d3a9ad73302c",
    "configs/contextual_linear_baseline.json":
        "52493bf9626ab711cf63c70c36aba01e9d1e69c6a2f5afebb0307a43b92fa4ef",
    "configs/mab_switching.json":
        "a821a1c95d48067d0990091ed99c802db7341f7bc05c5fec4e48bee1fc32dd1d",
    "configs/two_point_convex.json":
        "f8cec45501a9bcc247f2f9953325624f76aa78f0f2c4472b3beb4934834cc066",
    "criterion_1_two_point":
        "f8cec45501a9bcc247f2f9953325624f76aa78f0f2c4472b3beb4934834cc066",
    "criterion_2_two_point":
        "42261e3825463756750a4614db83a18636429f4758b54b2201bb561d2ce7cd19",
    "criterion_3_one_point":
        "7b766789a8aa081f7c8da7bcd2c44a29e3489f33db521fa21a8cd2d4b71a5e10",
    "criterion_4_mab_stochastic":
        "976adc439adade90338c5a128aaa7039b84c84a8918ecf3891a57d5ddca0fbc9",
    "criterion_4_mab_switching":
        "a821a1c95d48067d0990091ed99c802db7341f7bc05c5fec4e48bee1fc32dd1d",
    "criterion_5_bai_baseline":
        "6824d0471869bcefa49f48b18a55d76768b4c738438c9c18518dc38432d5c38e",
    "criterion_5_bai_ldp":
        "95705abfc8731765f44660d2526175cb19039c780f11dcac5280d3a9ad73302c",
    "criterion_6_linear_baseline":
        "52493bf9626ab711cf63c70c36aba01e9d1e69c6a2f5afebb0307a43b92fa4ef",
    "criterion_6_linear_ldp":
        "462c79f1f251dd04a19e82a38ee09ac3b27ed10e085d6efca1b747bdb89a1f7e",
    "criterion_7_glm":
        "43b93c605f9c34fdb2d46b873ab02ccb41553dd19591359f3df023b399b17499",
    "criterion_8_coverage":
        "f6cb966352def094c8bba1e345d6a322c29c6d2898c7329206989363e6c2312a",
}


def _doc(name: str) -> dict:
    if name.startswith("configs/"):
        doc = json.loads((ROOT / name).read_text())
    else:
        doc = dict(INSTANCES[name])
    if doc["algorithm"] == "bai":
        doc.update(horizon=BAI_CAP, replications=BAI_REPLICATIONS)
    else:
        doc.update(horizon=HORIZON, replications=REPLICATIONS)
    return doc


def emitted_digest(doc: dict, out_dir: Path) -> str:
    config = ExperimentConfig.from_dict(doc)
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
    assert configs | set(INSTANCES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, tmp_path):
    assert emitted_digest(_doc(name), tmp_path) == GOLDEN[name]


# A BCO run on the drifting oracle, which no config or criterion runs: its
# drift table is drawn once per process and shared by every replication.
AFFINE_DOC = {
    "algorithm": "one_point_bco", "horizon": HORIZON, "replications": REPLICATIONS,
    "base_seed": 30_915,
    "environment": {"kind": "affine_quadratic", "dim": 3, "drift_norm": 0.1},
    "privacy": {"epsilon": 1.0, "delta": 1e-2},
}
AFFINE_GOLDEN = "3d57d1cf9b89bff060e882adeda39714a0af1e191898e6b126d02568ed36c34f"


def test_affine_digest(tmp_path):
    assert emitted_digest(AFFINE_DOC, tmp_path) == AFFINE_GOLDEN


# ---------------------------------------------------------------------------
# the context-free digests under other CPU code paths
#
# The BCO rounds compute by a fixed-order rule in Python floats and every
# context-free stream is a plain Generator draw, so these bytes must not move
# with the host's instruction set.  The contextual digests are left out: their
# dots, norms and small solves still go through BLAS, LAPACK and NumPy's SIMD
# transcendentals until their half of the fixed-order rule lands (ROADMAP item
# 1).  lil'UCB's widths use np.log, a latent host dependence that no forced
# variant below moves today.

HOST_INDEPENDENT = sorted(
    name for name in GOLDEN if not _doc(name)["algorithm"].startswith("contextual_"))


def host_independent_digests() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {name: emitted_digest(_doc(name), Path(tmp)) for name in HOST_INDEPENDENT}
        out["affine"] = emitted_digest(AFFINE_DOC, Path(tmp))
    return out


def _openblas_dynamic_arch() -> str | None:
    """None when OPENBLAS_CORETYPE can switch NumPy's BLAS kernel, else why not."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"NumPy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "OpenBLAS was built without DYNAMIC_ARCH, so its kernel is fixed"
    return None


def _numpy_avx512() -> str | None:
    """None when disabling the AVX-512 features moves NumPy's loops, else why not."""
    from numpy._core._multiarray_umath import __cpu_features__

    if not any(__cpu_features__.get(f) for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")):
        return "this CPU has no AVX-512 feature NumPy dispatches to"
    return None


def _glibc_avx2() -> str | None:
    """None when the glibc tunable moves libm off its AVX2/FMA variants."""
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        return f"glibc hwcaps tunables apply to x86-64 Linux, not {platform.machine()}"
    if platform.libc_ver()[0] != "glibc":
        return "the C library is not glibc"
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return "the CPU's flags cannot be read"
    if "avx2" not in flags and "fma" not in flags:
        return "this CPU has neither AVX2 nor FMA"
    return None


FORCED_VARIANTS = {
    "openblas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, _openblas_dynamic_arch),
    "numpy_avx2": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                   _numpy_avx512),
    "glibc_no_avx2": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}, _glibc_avx2),
}


@pytest.mark.parametrize("variant", sorted(FORCED_VARIANTS))
def test_context_free_digests_under_forced_cpu_variant(variant):
    extra, applies = FORCED_VARIANTS[variant]
    why_not = applies()
    if why_not is not None:
        pytest.skip(f"{', '.join(extra)} cannot take effect: {why_not}")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.test_golden import host_independent_digests; "
         "print(json.dumps(host_independent_digests()))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = {name: GOLDEN[name] for name in HOST_INDEPENDENT}
    expected["affine"] = AFFINE_GOLDEN
    assert json.loads(proc.stdout.splitlines()[-1]) == expected


# The block a DrawAhead stream draws ahead changes no bit: the BCO, MAB and
# BAI digests at block sizes 1 and 7 are the golden ones.
BLOCK_CHECKED = ["criterion_1_two_point", "criterion_3_one_point",
                 "criterion_4_mab_stochastic", "criterion_4_mab_switching",
                 "criterion_5_bai_ldp"]


@pytest.mark.parametrize("block", [1, 7])
def test_digests_at_any_draw_ahead_block(block, tmp_path, monkeypatch):
    monkeypatch.setattr(mechanisms, "DRAW_AHEAD", block)
    for name in BLOCK_CHECKED:
        assert emitted_digest(_doc(name), tmp_path) == GOLDEN[name], name


# Criterion 6 (private and non-private) and criterion 7 at a horizon that
# crosses three of the contextual environment's block boundaries; every
# contextual digest above fits inside its first block.
MULTI_BLOCK_HORIZON = 800
MULTI_BLOCK_GOLDEN = {
    "criterion_6_linear_baseline":
        "386c3bd8bdeffe027602fe4e09989c94a2e30f712e5c8a15b90bbecef4016765",
    "criterion_6_linear_ldp":
        "c1e0eba33fdb3bc9c5b4da7c7ac861aff0c1f6275886779e08788efbd056967e",
    "criterion_7_glm":
        "dd45e95c5131d24d8c22ce3bef6dfcf38be9bb283de3bf5565ff07699c67cda0",
}


def _multi_block_doc(name: str) -> dict:
    return dict(INSTANCES[name], horizon=MULTI_BLOCK_HORIZON, replications=2)


def test_multi_block_horizon_crosses_three_boundaries():
    assert MULTI_BLOCK_HORIZON >= 3 * BLOCK_ROUNDS + 1


@pytest.mark.parametrize("name", sorted(MULTI_BLOCK_GOLDEN))
def test_multi_block_digest(name, tmp_path):
    assert emitted_digest(_multi_block_doc(name), tmp_path) == MULTI_BLOCK_GOLDEN[name]


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
    "criterion_8": dict(INSTANCES["criterion_8_coverage"], horizon=300, replications=4),
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
            print(f'    "{key}": "{emitted_digest(_doc(key), Path(tmp))}",')
        print(f'AFFINE_GOLDEN = "{emitted_digest(AFFINE_DOC, Path(tmp))}"')
        for key in sorted(MULTI_BLOCK_GOLDEN):
            print(f'    "{key}": "{emitted_digest(_multi_block_doc(key), Path(tmp))}",')
        for key in sorted(TRAJECTORY_GOLDEN):
            print(f'    "{key}": "{trajectory_digest(key, Path(tmp))}",')
    for key in sorted(COVERAGE_GOLDEN):
        print(f'    "{key}": "{coverage_digest(key)}",')
