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
rows, criterion 8's containment flags) at short horizons.  The contextual
environment alone (arm sets, scores, best scores and rewards) is pinned over
four blocks of a few worlds.

A digest changes only when the emitted numbers change.  Such a change must
be explained where it is made, and the digest recomputed with
`python -m tests.test_golden` from the repository root.

Which digests do not depend on the host's CPU: the context-free ones (BCO,
MAB, BAI and the affine oracle) and the contextual environment's.  They are
recomputed in subprocesses that force other BLAS kernels, NumPy SIMD loops
and libm variants, and must come out the same.  The full contextual digests
(configs, criteria 6-8, multi-block, trajectory and coverage) are not yet
host-independent: the learner's LAPACK solve, C einsum and BLAS norm remain.
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

from ldpbandits import (
    ContextualEnv,
    DrawAhead,
    ExperimentConfig,
    derive_rng,
    emit,
    environments,
    logistic_link,
    mechanisms,
    run_bai,
    run_experiment,
)
from ldpbandits.environments import BLOCK_ROUNDS
from ldpbandits.harness import run_replication
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
        "aead675868dec6136344ff0489574ed026749b59ed52edd4e382a8037656e9d8",
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
        "aead675868dec6136344ff0489574ed026749b59ed52edd4e382a8037656e9d8",
    "criterion_6_linear_ldp":
        "d1847a3441dfd10f8a5043b5f8d5a85e7658ad2202cec45892a1c35e71de4908",
    "criterion_7_glm":
        "a1a646dc25ab8c95f9d90cfa81e3ad7eb0eb86e3440f5a058ef22559be3b3e58",
    "criterion_8_coverage":
        "d980146f9663a0fd277d14b7f92e450cc8cdfe9ac3233da110a55f81726ab97f",
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
# the contextual environment alone
#
# Four worlds over four blocks of rounds: each round's arm set, its scores
# x . theta*, its best score and the reward of arm t mod K in round t, as
# little-endian 8-byte floats.

ENVIRONMENT_SEED = 17
ENVIRONMENT_ROUNDS = 4 * BLOCK_ROUNDS
ENVIRONMENT_WORLDS = {  # theta*, K, logistic link
    "glm_d3_k10": ([0.6, -0.48, 0.64], 10, True),
    "glm_d5_k7": ([-0.2, 0.1, 0.5, -0.3, 0.25], 7, True),
    "linear_d2_k3": ([0.3, -0.4], 3, False),
    "linear_d3_k10": ([0.6, -0.48, 0.64], 10, False),
}
ENVIRONMENT_GOLDEN = {
    "glm_d3_k10": "a3d87e7415a6f97fd431f4a6ace48dcf66db6ce6ff79ef17c7e4c510db6f5391",
    "glm_d5_k7": "69f26dcf1eb7862ae54a5d449cb7e8052cd2926865c28f7d63c11b03876abe88",
    "linear_d2_k3": "e413f50932389eb0f84cab1fee3dede908bc84dc5a49c9e20df5244e7ab1c338",
    "linear_d3_k10": "ef6cfd653c38396a17d4291266360ceeb4aa4e8f4ad3c2612c7663da5b095f90",
}


def environment_digest(name: str) -> str:
    theta_star, k, glm = ENVIRONMENT_WORLDS[name]
    env = ContextualEnv(np.array(theta_star), k,
                        derive_rng(ENVIRONMENT_SEED, "environment"),
                        DrawAhead(derive_rng(ENVIRONMENT_SEED, "reward")),
                        link=logistic_link() if glm else None)
    digest = hashlib.sha256()
    for t in range(1, ENVIRONMENT_ROUNDS + 1):
        rnd = env.step(t)
        digest.update(rnd.arms.astype("<f8").tobytes())
        values = [*rnd.scores, rnd.best_score, env.reward(t % k)]
        digest.update(np.array(values, dtype="<f8").tobytes())
    return digest.hexdigest()


def environment_digests() -> dict:
    return {name: environment_digest(name) for name in ENVIRONMENT_WORLDS}


def test_environment_digest():
    assert environment_digests() == ENVIRONMENT_GOLDEN


# ---------------------------------------------------------------------------
# digests under other CPU code paths
#
# The BCO rounds compute by a fixed-order rule in Python floats, the
# contextual environment by elementwise NumPy steps that are correctly
# rounded, and every stream is a plain Generator draw, so the context-free
# digests and the environment digests must not move with the host's
# instruction set.  The full contextual digests are left out: the learner's
# small solves, optimistic index and report norms still go through LAPACK,
# NumPy's C einsum and BLAS until their half of the fixed-order rule lands
# (ROADMAP item 1).  Latent host dependences that no forced variant below
# moves today: lil'UCB's widths use np.log, and a GLM reward compares its
# uniform with the link's math.exp value, which flips only if the uniform
# falls within the last bit that libm could change.

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


def digests_under(variant: str, function: str) -> dict:
    """What function, a name in this module, returns when a subprocess
    computes it under the forced CPU variant; skips where the variant cannot
    take effect on this host."""
    extra, applies = FORCED_VARIANTS[variant]
    why_not = applies()
    if why_not is not None:
        pytest.skip(f"{', '.join(extra)} cannot take effect: {why_not}")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json; from tests.test_golden import {function}; "
         f"print(json.dumps({function}()))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("variant", sorted(FORCED_VARIANTS))
def test_context_free_digests_under_forced_cpu_variant(variant):
    expected = {name: GOLDEN[name] for name in HOST_INDEPENDENT}
    expected["affine"] = AFFINE_GOLDEN
    assert digests_under(variant, "host_independent_digests") == expected


@pytest.mark.parametrize("variant", sorted(FORCED_VARIANTS))
def test_environment_digests_under_forced_cpu_variant(variant):
    assert digests_under(variant, "environment_digests") == ENVIRONMENT_GOLDEN


# Criterion 6 (private and non-private) and criterion 7 at a horizon that
# crosses three of the contextual environment's block boundaries; every
# contextual digest above fits inside its first block.
MULTI_BLOCK_HORIZON = 800
MULTI_BLOCK_GOLDEN = {
    "criterion_6_linear_baseline":
        "74ebe2eabe95d0c5acb713fcb99901f7d5d380527d90d7e4a2f9bbc3f5bbdf83",
    "criterion_6_linear_ldp":
        "6ddca7ed3f0351638b4f7beb42d1155c3cbd36fc46680126d36e6763715b159f",
    "criterion_7_glm":
        "330dcb35644a016b975ef6e60401889aae3a51890c713f7394e52c02b490ff5f",
}


def _multi_block_doc(name: str) -> dict:
    return dict(INSTANCES[name], horizon=MULTI_BLOCK_HORIZON, replications=2)


def test_multi_block_horizon_crosses_three_boundaries():
    assert MULTI_BLOCK_HORIZON >= 3 * BLOCK_ROUNDS + 1


@pytest.mark.parametrize("name", sorted(MULTI_BLOCK_GOLDEN))
def test_multi_block_digest(name, tmp_path):
    assert emitted_digest(_multi_block_doc(name), tmp_path) == MULTI_BLOCK_GOLDEN[name]


# No block drawn ahead changes a bit, neither a DrawAhead stream's, nor the
# contextual environment's block of arm sets (its rewards come from a
# stream of their own), nor a ReportNoise block of report noise: the BCO,
# MAB, BAI and contextual digests and the multi-block ones at block sizes 1
# and 7 are the golden ones.
BLOCK_CHECKED = ["criterion_1_two_point", "criterion_3_one_point",
                 "criterion_4_mab_stochastic", "criterion_4_mab_switching",
                 "criterion_5_bai_ldp"] + sorted(
    name for name in GOLDEN if name not in HOST_INDEPENDENT)


@pytest.mark.parametrize("block", [1, 7])
def test_digests_at_any_draw_ahead_block(block, tmp_path, monkeypatch):
    monkeypatch.setattr(mechanisms, "DRAW_AHEAD", block)
    monkeypatch.setattr(mechanisms, "REPORT_BLOCK", block)
    monkeypatch.setattr(environments, "BLOCK_ROUNDS", block)
    for name in BLOCK_CHECKED:
        assert emitted_digest(_doc(name), tmp_path) == GOLDEN[name], name
    for name in sorted(MULTI_BLOCK_GOLDEN):
        digest = emitted_digest(_multi_block_doc(name), tmp_path)
        assert digest == MULTI_BLOCK_GOLDEN[name], name


# The per-round record of the contextual algorithms: the recorded rows of
# small private linear and GLM runs, and the containment flags (one byte per
# round, replications in order) of criterion 8's instance at a short horizon
# and of a non-private GLM run.  Criterion 8's flags are all 1 at this
# horizon; the non-private run's width misses theta* in 249 of replication
# 1's 300 rounds, so its digest also pins flags that read 0.
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
    "glm": "be96e77560758e93658a253de3fe1c600a81e4567f2049e8711d0b334e3905de",
    "linear": "c7facf2b0f24fa0314eb95f01effff1c5350c39b90c29eaa9ede69c89b445529",
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
    "glm_baseline": "4917f4ce3230e55867673e80689a67a5c7c1f95183a8f124f48078d9104598cf",
}


def trajectory_digest(name: str) -> str:
    """Every field of every recorded row: t and arm as 8-byte integers, the
    reward, theta_tilde and beta as 8-byte floats, contained as one byte."""
    rows = []
    run_replication(ExperimentConfig.from_dict(TRAJECTORY_DOCS[name]), 0, record=rows)
    digest = hashlib.sha256()
    for t, arm, reward, theta, beta, contained in rows:
        digest.update(np.array([t, arm], dtype="<i8").tobytes())
        digest.update(np.array([reward, *theta, beta], dtype="<f8").tobytes())
        digest.update(bytes([bool(contained)]))
    return digest.hexdigest()


def coverage_digest(name: str) -> str:
    config = ExperimentConfig.from_dict(COVERAGE_DOCS[name])
    digest = hashlib.sha256()
    for rep in range(config.replications):
        rows = []
        run_replication(config, rep, record=rows)
        digest.update(bytes(int(row[5]) for row in rows))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TRAJECTORY_GOLDEN))
def test_trajectory_digest(name):
    assert trajectory_digest(name) == TRAJECTORY_GOLDEN[name]


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
        print(f'    "{key}": "{trajectory_digest(key)}",')
    for key in sorted(COVERAGE_GOLDEN):
        print(f'    "{key}": "{coverage_digest(key)}",')
    for key in sorted(ENVIRONMENT_WORLDS):
        print(f'    "{key}": "{environment_digest(key)}",')
