"""The benchmark's three workloads, built from acceptance-criterion instances.

Each part keeps its criterion's replication count, privacy level and
instance; only the horizon is shortened so that one pass over a workload
takes a few seconds on two cores.  Replication count is kept because a
replication-batched engine exploits it.

Seeds: `--seed n` gives every part the base seed `criterion_seed + n * SEED_STRIDE`,
so `--seed 0` replays the criteria's own base seeds.  This module uses the
standard library only, so the set-up probe can import it before starting
its clock.
"""

from __future__ import annotations

import copy

SEED_STRIDE = 1_000_000

# Criterion 6: LDP contextual linear bandit and its non-private baseline.
_CONTEXTUAL_LINEAR = {
    "algorithm": "contextual_linear",
    "horizon": 500,
    "replications": 20,
    "base_seed": 60_443,
    "environment": {"dim": 3, "n_arms": 10},
    "algorithm_params": {"alpha": 0.1},
}

# Criterion 7: LDP logistic GLM bandit.
_CONTEXTUAL_GLM = {
    "algorithm": "contextual_glm",
    "horizon": 1_000,
    "replications": 20,
    "base_seed": 70_551,
    "environment": {"dim": 3, "n_arms": 10, "link": "logistic"},
    "privacy": {"epsilon": 1.0, "delta": 1e-2},
    "algorithm_params": {"alpha": 0.1, "kappa": 1.0},
}

# Criterion 1: two-point convex BCO.
_TWO_POINT = {
    "algorithm": "two_point_bco",
    "horizon": 1_000,
    "replications": 20,
    "base_seed": 20_406,
    "environment": {"kind": "quadratic", "dim": 5},
    "privacy": {"epsilon": 1.0, "delta": 1e-5},
    "algorithm_params": {"mode": "convex"},
}

# Criterion 3: one-point BCO.
_ONE_POINT = {
    "algorithm": "one_point_bco",
    "horizon": 1_000,
    "replications": 20,
    "base_seed": 30_915,
    "environment": {"kind": "quadratic", "dim": 3},
    "privacy": {"epsilon": 1.0, "delta": 1e-2},
}

# Criterion 4: switching-adversary Tsallis-INF MAB.
_MAB = {
    "algorithm": "mab",
    "horizon": 1_000,
    "replications": 50,
    "base_seed": 41_117,
    "environment": {"kind": "adversarial_switching", "n_arms": 5,
                    "anchor_loss": 0.45, "dip_loss": 0.44, "off_loss": 0.65,
                    "n_blocks": 10},
    "privacy": {"epsilon": 2.5, "delta": 1e-2},
}

# Criterion 5: private lil'UCB best-arm identification.  The horizon is the
# pull cap per replication: at the criterion's 5e5 the private replications
# need about 4.5e3 pulls each (40 s per pass on one core), so the cap is cut
# to 200 and most private replications end capped.
_BAI = {
    "algorithm": "bai",
    "horizon": 200,
    "replications": 200,
    "base_seed": 53_331,
    "environment": {"reward_means": [0.9, 0.6, 0.4]},
    "algorithm_params": {"gamma": 0.1},
}

_BAI_PRIVACY = {"epsilon": 2.0, "delta": 1e-2}
_CONTEXTUAL_PRIVACY = {"epsilon": 1.0, "delta": 1e-2}

# name -> [(part name, config document)], in run order.
_PARTS = {
    "contextual_linear": [
        ("linear_ldp", dict(_CONTEXTUAL_LINEAR, privacy=_CONTEXTUAL_PRIVACY)),
        ("linear_baseline", _CONTEXTUAL_LINEAR),
    ],
    "contextual_glm": [
        ("glm_ldp", _CONTEXTUAL_GLM),
    ],
    "context_free": [
        ("two_point", _TWO_POINT),
        ("one_point", _ONE_POINT),
        ("mab_switching", _MAB),
        ("bai_ldp", dict(_BAI, privacy=_BAI_PRIVACY)),
        ("bai_baseline", _BAI),
    ],
}

WORKLOADS = tuple(_PARTS)


def parts(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (part name, config document) pairs for `seed`."""
    if workload not in _PARTS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out = []
    for name, doc in _PARTS[workload]:
        doc = copy.deepcopy(doc)
        doc["base_seed"] += seed * SEED_STRIDE
        out.append((name, doc))
    return out


def shortened(docs: list[tuple[str, dict]], horizon: int, bai_cap: int,
              replications: int | None = None) -> list[tuple[str, dict]]:
    """Copies of `docs` at a smaller horizon, for smoke runs and tests."""
    out = []
    for name, doc in docs:
        doc = copy.deepcopy(doc)
        doc["horizon"] = bai_cap if doc["algorithm"] == "bai" else horizon
        if replications is not None:
            doc["replications"] = replications
        out.append((name, doc))
    return out
