"""Output checks: properties of the methods and quantities the benchmark
computes itself from each instance's ground truth.

Nothing here compares against a stored copy of earlier output.  Every check
returns a list of problems; an empty list means the output passed.  The
noise scales below are written out from the paper's formulas rather than
taken from the library, so a change to the library's calibration shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A noise sample's standard deviation must lie within this many standard
# errors of the calibrated sigma; a false alarm at 5 SE has probability
# about 6e-7 per check.
NOISE_SE = 5.0
# False-alarm level of the best-arm-identification binomial test.
BAI_ALPHA = 1e-3
# Recomputed regret must match the trace to this relative tolerance.
RECOMPUTE_RTOL = 1e-9
# Slack for float rounding in bound and monotonicity checks, per round.
ROUNDING_PER_ROUND = 1e-12


@dataclass(frozen=True)
class Instance:
    """Ground truth of one config, derived from its document and the
    library's documented defaults."""

    algorithm: str
    horizon: int
    replications: int
    sigma: float  # calibrated noise scale (per unit |x1 - x2| for two-point)
    max_gap: float  # largest possible per-round regret (contextual, BCO)
    doc: dict

    @property
    def scale(self) -> float:
        return float(self.doc["environment"].get("scale", 1.0))


def theta_star(env: dict) -> np.ndarray:
    """The contextual parameter; the library's default is e_1."""
    theta = env.get("theta_star")
    if theta is None:
        theta = np.zeros(int(env["dim"]))
        theta[0] = 1.0
    return np.asarray(theta, dtype=float)


def x_star(env: dict) -> np.ndarray:
    """The BCO minimizer; the library's default is 0.3 * radius * e_1."""
    x = env.get("x_star")
    if x is None:
        x = np.zeros(int(env["dim"]))
        x[0] = 0.3 * float(env.get("radius", 1.0))
    return np.asarray(x, dtype=float)


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-np.asarray(a, dtype=float)))


def _gauss_factor(delta: float, c: float) -> float:
    return math.sqrt(2.0 * math.log(c / delta))


def instance(doc: dict) -> Instance:
    """The instance behind a config document, with its paper sigma."""
    algorithm = doc["algorithm"]
    env = doc["environment"]
    privacy = doc.get("privacy")
    eps = privacy["epsilon"] if privacy else None
    delta = privacy["delta"] if privacy else None
    max_gap = 0.0
    if algorithm in ("two_point_bco", "one_point_bco"):
        if env.get("kind", "quadratic") != "quadratic":
            raise ValueError("the benchmark models the quadratic oracle only")
        scale = float(env.get("scale", 1.0))
        radius = float(env.get("radius", 1.0))
        reach = radius + float(np.linalg.norm(x_star(env)))
        loss_bound = scale * reach**2  # B = max |f| on the ball
        lipschitz = 2.0 * scale * reach  # G
        max_gap = loss_bound
        const = loss_bound if algorithm == "one_point_bco" else lipschitz
        sigma = 2.0 * const * _gauss_factor(delta, 1.25) / eps if privacy else 0.0
    elif algorithm in ("mab", "bai"):
        # losses and rewards in [0, 1], recentred: B = 1/2
        sigma = 2.0 * 0.5 * _gauss_factor(delta, 1.25) / eps if privacy else 0.0
    elif algorithm == "contextual_linear":
        sigma = 6.0 * _gauss_factor(delta, 2.5) / eps if privacy else 0.0
        max_gap = 2.0 * float(np.linalg.norm(theta_star(env)))
    elif algorithm == "contextual_glm":
        sigma = 6.0 * _gauss_factor(delta, 3.75) / eps if privacy else 0.0
        norm = float(np.linalg.norm(theta_star(env)))
        max_gap = float(sigmoid(norm) - sigmoid(-norm))
    else:
        raise ValueError(f"no instance model for {algorithm!r}")
    return Instance(algorithm, int(doc["horizon"]), int(doc["replications"]),
                    sigma, max_gap, doc)


def switching_table(doc: dict) -> np.ndarray:
    """The switching adversary's T x K loss table, from its definition:
    arm 0 at the anchor loss, one rotating arm per block at the dip loss,
    the rest at the off loss."""
    env = doc["environment"]
    horizon, k = int(doc["horizon"]), int(env["n_arms"])
    n_blocks = int(env.get("n_blocks", 10))
    block = max(horizon // n_blocks, 1)
    table = np.full((horizon, k), float(env.get("off_loss", 0.65)))
    table[:, 0] = float(env.get("anchor_loss", 0.45))
    t = np.arange(horizon)
    winners = 1 + (np.minimum(t // block, n_blocks - 1) % (k - 1))
    table[t, winners] = float(env.get("dip_loss", 0.44))
    return table


# ---------------------------------------------------------------------------
# checks on every run


def regret_bounds(inst: Instance, checkpoints, matrix) -> list[str]:
    """Per-replication cumulative regret is finite and inside the bounds
    the instance's ground truth allows."""
    cps = np.asarray(checkpoints, dtype=float)
    m = np.asarray(matrix, dtype=float)
    problems = []
    if m.shape != (inst.replications, cps.size):
        return [f"regret matrix shape {m.shape}, expected ({inst.replications}, {cps.size})"]
    if cps.size == 0 or not np.all(np.diff(cps) > 0) or cps[-1] != inst.horizon:
        problems.append("checkpoints are not increasing to the horizon")
    if not np.all(np.isfinite(m)):
        return problems + ["regret is not finite"]
    slack = ROUNDING_PER_ROUND * cps
    if inst.algorithm == "mab":
        env = inst.doc["environment"]
        if env.get("kind") != "adversarial_switching":
            raise ValueError("the benchmark models the switching adversary only")
        span = float(env.get("off_loss", 0.65)) - float(env.get("dip_loss", 0.44))
        if np.any(np.abs(m) > cps * span + slack):
            problems.append(f"|R_t| exceeds t * (off - dip) = t * {span}")
        return problems
    if np.any(np.diff(m, axis=1) < -slack[1:]):
        problems.append("cumulative regret decreases although every gap is nonnegative")
    if np.any(m < -slack):
        problems.append("cumulative regret is negative")
    if np.any(m > cps * inst.max_gap + slack):
        problems.append(f"cumulative regret exceeds t * max gap = t * {inst.max_gap}")
    return problems


def ldp_above_baseline(ldp_final: float, baseline_final: float) -> list[str]:
    if not ldp_final > baseline_final:
        return [f"LDP final mean regret {ldp_final} does not exceed the "
                f"non-private baseline's {baseline_final}"]
    return []


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
                     for i in range(max(k, 0), n + 1))


def bai_wrong_stops(wrong_stops: int, replications: int, gamma: float) -> list[str]:
    """lil'UCB stops on a wrong arm with probability at most gamma.

    A capped replication reports its most-pulled arm, which the guarantee
    does not cover, so the test counts replications that stopped by the rule
    on a wrong arm (or a lower bound on that count) against
    Binomial(replications, gamma) at false-alarm level BAI_ALPHA.
    """
    tail = binomial_upper_tail(wrong_stops, replications, gamma)
    if tail < BAI_ALPHA:
        return [f"{wrong_stops} of {replications} replications stopped on a wrong arm; "
                f"P(>= that | gamma={gamma}) = {tail:.2e} < {BAI_ALPHA}"]
    return []


def bai_summary(inst: Instance, result: dict) -> tuple[int, list[str]]:
    """Sanity of a run_bai result; returns (total pulls, problems).

    Without per-replication outcomes, wrong results minus capped runs is a
    lower bound on the wrong stops, which is what gets tested.
    """
    reps = inst.replications
    cap = int(inst.doc["algorithm_params"].get("max_pulls", inst.horizon))
    gamma = float(inst.doc["algorithm_params"].get("gamma", 0.1))
    problems = []
    if result["replications"] != reps:
        problems.append(f"result covers {result['replications']} replications, not {reps}")
    rate = float(result["success_rate"])
    wrong = round((1.0 - rate) * reps)
    if not (0.0 <= rate <= 1.0) or abs((1.0 - rate) * reps - wrong) > 1e-6:
        problems.append(f"success rate {rate} is not a count over {reps} replications")
    capped = int(result["capped_runs"])
    if not 0 <= capped <= reps:
        problems.append(f"capped_runs {capped} outside [0, {reps}]")
    n_arms = len(inst.doc["environment"]["reward_means"])
    if not (n_arms <= result["mean_pulls"] <= cap):
        problems.append(f"mean pulls {result['mean_pulls']} outside [{n_arms}, {cap}]")
    problems += bai_wrong_stops(max(wrong - capped, 0), reps, gamma)
    return round(result["mean_pulls"] * reps), problems


def private_needs_more_pulls(private_mean: float, twin_mean: float) -> list[str]:
    if not private_mean > twin_mean:
        return [f"private BAI mean pulls {private_mean} do not exceed the "
                f"non-private twin's {twin_mean}"]
    return []


def identical_digests(digests: dict[str, set]) -> list[str]:
    """Every repeat of a part emitted the same bytes."""
    return [f"{part}: repeats emitted {len(seen)} different trace digests"
            for part, seen in sorted(digests.items()) if len(seen) != 1]


# ---------------------------------------------------------------------------
# checks on the traced run


def identical_outputs(reference, traced) -> list[str]:
    """The 2-job run and the traced 1-job run gave bit-identical results."""
    if isinstance(reference, dict):
        strip = lambda r: {k: v for k, v in r.items() if k != "wall_clock"}  # noqa: E731
        same = strip(reference) == strip(traced)
    else:
        a, b = np.asarray(reference), np.asarray(traced)
        same = a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return [] if same else ["2-job and traced 1-job outputs differ"]


def recomputed_regret(recomputed, matrix) -> list[str]:
    a = np.asarray(recomputed, dtype=float)
    b = np.asarray(matrix, dtype=float)
    if a.shape != b.shape:
        return [f"recomputed regret shape {a.shape} differs from trace shape {b.shape}"]
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    worst = float(np.max(np.abs(a - b) / scale)) if a.size else 0.0
    if not worst <= RECOMPUTE_RTOL:
        return [f"recomputed regret differs from the trace by {worst:.3e} relative"]
    return []


def noise_scale(label: str, samples, sigma: float) -> list[str]:
    """The injected noise's sample std lies within NOISE_SE standard errors
    of sigma; with sigma = 0 it must be exactly zero."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        return [f"{label}: only {x.size} noise samples"]
    if sigma == 0.0:
        return [] if not np.any(x) else [f"{label}: noise injected in a non-private run"]
    std = float(x.std(ddof=1))
    se = sigma / math.sqrt(2.0 * (x.size - 1))
    if abs(std - sigma) > NOISE_SE * se:
        return [f"{label}: noise std {std:.6g} is {abs(std - sigma) / se:.1f} standard "
                f"errors from sigma {sigma:.6g} (n={x.size})"]
    return []


def recompute_regret(inst: Instance, records: list[dict], checkpoints) -> np.ndarray:
    """Each replication's cumulative regret at the checkpoints, recomputed
    from the actions the traced run saw and the instance's true losses."""
    idx = np.asarray(checkpoints, dtype=np.int64) - 1
    env = inst.doc["environment"]
    table = switching_table(inst.doc) if inst.algorithm == "mab" else None
    rows = []
    for rec in records:
        if inst.algorithm in ("contextual_linear", "contextual_glm"):
            scores = np.stack(rec["arm_sets"]) @ theta_star(env)
            best = scores.max(axis=1)
            chosen = scores[np.arange(len(scores)), rec["chosen"]]
            if inst.algorithm == "contextual_glm":
                best, chosen = sigmoid(best), sigmoid(chosen)
            rows.append(np.cumsum(best - chosen)[idx])
        elif inst.algorithm in ("two_point_bco", "one_point_bco"):
            points = np.asarray(rec["points"], dtype=float)  # (T, d) or (T, 2, d)
            losses = inst.scale * np.sum((points - x_star(env)) ** 2, axis=-1)
            if losses.ndim == 2:
                losses = losses.mean(axis=1)
            rows.append(np.cumsum(losses)[idx])
        elif inst.algorithm == "mab":
            arms = np.asarray(rec["chosen"], dtype=np.int64)
            played = np.cumsum(table[np.arange(arms.size), arms])
            best_fixed = np.cumsum(table, axis=0).min(axis=1)
            rows.append((played - best_fixed)[idx])
        else:
            raise ValueError(f"no regret model for {inst.algorithm!r}")
    return np.vstack(rows)
