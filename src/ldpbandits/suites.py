"""Named acceptance criteria: order-of-growth, identity, and statistical checks.

Each criterion is a self-contained experiment with pinned tolerances; the
suite prints one pass/fail line per criterion.  Every document a regret
criterion runs is in INSTANCES, by name, with the parameters the criteria
leave free (privacy levels for the MAB/BAI/GLM suites, the adversarial
switching losses), documented in the README and calibrated once against
the intended qualitative behavior.

Several order-of-growth criteria (1, 3, 6, 7) assert regret exponents that
the noise-calibrated algorithms do not reach at these horizons; they are
measured and reported faithfully rather than tuned green.  See the README's
"measured behavior" section.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import contextual as ctx
from .blackbox import DecisionSet, FkmBandit, TwoPointBandit
from .harness import (
    ExperimentConfig,
    _map_replications,
    fit_slope,
    run_bai,
    run_experiment,
    run_replication,
)
from .mechanisms import (
    DrawAhead,
    PrivacyParams,
    ReportNoise,
    calibrate_gaussian,
    derive_rng,
    perturb_scalar,
)
from .reductions import (
    MAB_LOSS_BOUND,
    ScalarReport,
    one_point_round,
    two_point_round,
)

# Every document a regret criterion runs, by name.  A BAI horizon is the
# pull cap per replication.
INSTANCES: dict[str, dict] = {
    "criterion_1_two_point": {
        "algorithm": "two_point_bco", "horizon": 100_000, "replications": 20,
        "base_seed": 20_406, "environment": {"kind": "quadratic", "dim": 5},
        "privacy": {"epsilon": 1.0, "delta": 1e-5}, "algorithm_params": {"mode": "convex"},
    },
    "criterion_3_one_point": {
        "algorithm": "one_point_bco", "horizon": 200_000, "replications": 20,
        "base_seed": 30_915, "environment": {"kind": "quadratic", "dim": 3},
        "privacy": {"epsilon": 1.0, "delta": 1e-2},
    },
    "criterion_4_mab_switching": {
        "algorithm": "mab", "horizon": 100_000, "replications": 50, "base_seed": 41_117,
        "environment": {"kind": "adversarial_switching", "n_arms": 5, "anchor_loss": 0.45,
                        "dip_loss": 0.44, "off_loss": 0.65, "n_blocks": 10},
        "privacy": {"epsilon": 2.5, "delta": 1e-2},
    },
    "criterion_4_mab_stochastic": {
        "algorithm": "mab", "horizon": 100_000, "replications": 50, "base_seed": 42_229,
        "environment": {"kind": "stochastic", "means": [0.5, 0.3]},
        "privacy": {"epsilon": 2.81, "delta": 0.1},
    },
    "criterion_5_bai_baseline": {
        "algorithm": "bai", "horizon": 500_000, "replications": 200, "base_seed": 53_331,
        "environment": {"reward_means": [0.9, 0.6, 0.4]}, "privacy": None,
        "algorithm_params": {"gamma": 0.1},
    },
    "criterion_6_linear_ldp": {
        "algorithm": "contextual_linear", "horizon": 200_000, "replications": 20,
        "base_seed": 60_443, "environment": {"dim": 3, "n_arms": 10},
        "privacy": {"epsilon": 1.0, "delta": 1e-2}, "algorithm_params": {"alpha": 0.1},
    },
    "criterion_7_glm": {
        "algorithm": "contextual_glm", "horizon": 100_000, "replications": 20,
        "base_seed": 70_551, "environment": {"dim": 3, "n_arms": 10, "link": "logistic"},
        "privacy": {"epsilon": 1.0, "delta": 1e-2},
        "algorithm_params": {"alpha": 0.1, "kappa": 1.0},
    },
}
# the twins, each one decision away from the instance it is built from;
# criterion 8 checks criterion 7's world over many short replications
INSTANCES.update({
    "criterion_2_two_point": dict(INSTANCES["criterion_1_two_point"],
                                  algorithm_params={"mode": "strongly_convex"}),
    "criterion_5_bai_ldp": dict(INSTANCES["criterion_5_bai_baseline"],
                                privacy={"epsilon": 2.0, "delta": 1e-2}),
    "criterion_6_linear_baseline": dict(INSTANCES["criterion_6_linear_ldp"], privacy=None),
    "criterion_8_coverage": dict(INSTANCES["criterion_7_glm"], horizon=2000,
                                 replications=200, base_seed=80_667),
})


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime: float
    budget: float
    details: dict = field(default_factory=dict)

    def report_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        info = " ".join(f"{key}={value}" for key, value in self.details.items())
        return (f"{status} criterion {self.cid} [{self.name}] "
                f"({self.runtime:.1f}s / budget {self.budget:.0f}s) {info}")


# cid -> criterion(n_jobs=None) -> CriterionResult, filled by @criterion
CRITERIA: dict = {}


def criterion(cid: int, name: str, budget: float):
    """Register check(n_jobs) -> (ok, details) as criterion cid, timed: a
    check that runs past its budget fails, and its details say by how much."""
    def register(check):
        def run(n_jobs=None) -> CriterionResult:
            start = time.perf_counter()
            ok, details = check(n_jobs)
            runtime = time.perf_counter() - start
            if runtime > budget:
                details["over_budget"] = f"{runtime:.1f}s"
            return CriterionResult(cid=cid, name=name, passed=bool(ok) and runtime <= budget,
                                   runtime=runtime, budget=budget, details=details)

        CRITERIA[cid] = run
        return run

    return register


def _config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(INSTANCES[name])


def _exponent(name: str, low: float, high: float, n_jobs):
    """Run INSTANCES[name] and test its fitted regret exponent against
    [low, high]: (ok, exponent to 4 places, the window as text, the trace)."""
    trace = run_experiment(_config(name), n_jobs=n_jobs)
    exponent = fit_slope(trace).exponent
    return low <= exponent <= high, round(exponent, 4), f"[{low}, {high}]", trace


def _interp(trace, t):
    return float(np.interp(t, trace.checkpoints.astype(float), trace.mean))


# ---------------------------------------------------------------------------
# 1-2: two-point BCO


@criterion(1, "two-point convex exponent", 120.0)
def criterion_1(n_jobs):
    ok, exponent, window, trace = _exponent("criterion_1_two_point", 0.35, 0.65, n_jobs)
    return ok, {"exponent": exponent, "window": window,
                "final_regret": round(float(trace.mean[-1]), 1)}


@criterion(2, "two-point strongly convex log growth", 120.0)
def criterion_2(n_jobs):
    config = _config("criterion_2_two_point")
    trace = run_experiment(config, n_jobs=n_jobs)
    ratio = _interp(trace, config.horizon) / _interp(trace, config.horizon // 4)
    return ratio <= 2.5, {"regret_ratio_T_over_T4": round(ratio, 3), "required": "<= 2.5"}


# ---------------------------------------------------------------------------
# 3: one-point BCO via sphere sampling


@criterion(3, "one-point convex exponent", 300.0)
def criterion_3(n_jobs):
    ok, exponent, window, trace = _exponent("criterion_3_one_point", 0.6, 0.9, n_jobs)
    return ok, {"exponent": exponent, "window": window,
                "final_regret": round(float(trace.mean[-1]), 1)}


# ---------------------------------------------------------------------------
# 4: MAB via the one-point reduction around Tsallis-INF


@criterion(4, "LDP MAB switching + stochastic signature", 180.0)
def criterion_4(n_jobs):
    adv_ok, exponent, window, _ = _exponent("criterion_4_mab_switching", 0.35, 0.7, n_jobs)
    config = _config("criterion_4_mab_stochastic")
    sto = run_experiment(config, n_jobs=n_jobs)
    values = [_interp(sto, config.horizon // k) for k in (8, 4, 2, 1)]
    increments = [values[i + 1] - values[i] for i in range(3)]
    sto_ok = increments[0] > increments[1] > increments[2]
    return adv_ok and sto_ok, {
        "adversarial_exponent": exponent, "adv_window": window,
        "stochastic_increments": [round(v, 1) for v in increments],
        "decreasing": sto_ok,
    }


# ---------------------------------------------------------------------------
# 5: BAI via the one-point reduction around lil'UCB


@criterion(5, "LDP best-arm identification", 180.0)
def criterion_5(n_jobs):
    private_config = _config("criterion_5_bai_ldp")
    private = run_bai(private_config, n_jobs=n_jobs)
    success_ok = private["success_rate"] >= 0.9

    nonprivate = run_bai(_config("criterion_5_bai_baseline"), n_jobs=n_jobs)
    # lil'UCB's variance proxy, 1/4 for a Bernoulli reward, grows by sigma^2
    sigma = ScalarReport(private_config.privacy, MAB_LOSS_BOUND).sigma
    proxy_ratio = (0.25 + sigma**2) / 0.25
    pull_ratio = private["mean_pulls"] / nonprivate["mean_pulls"]
    ratio_ok = 0.5 * proxy_ratio <= pull_ratio <= 1.5 * proxy_ratio
    return success_ok and ratio_ok, {
        "success_rate": private["success_rate"], "required": ">= 0.9",
        "pull_ratio": round(pull_ratio, 2),
        "proxy_ratio_window": f"[{0.5 * proxy_ratio:.2f}, {1.5 * proxy_ratio:.2f}]",
        "capped_runs": private["capped_runs"],
    }


# ---------------------------------------------------------------------------
# 6-7: contextual bandits


@criterion(6, "LDP contextual linear order gap", 600.0)
def criterion_6(n_jobs):
    private_ok, private_exp, private_window, _ = _exponent(
        "criterion_6_linear_ldp", 0.6, 0.9, n_jobs)
    baseline_ok, baseline_exp, baseline_window, _ = _exponent(
        "criterion_6_linear_baseline", 0.35, 0.65, n_jobs)
    return private_ok and baseline_ok, {
        "ldp_exponent": private_exp, "ldp_window": private_window,
        "baseline_exponent": baseline_exp, "baseline_window": baseline_window,
    }


@criterion(7, "LDP GLM bandit exponent", 600.0)
def criterion_7(n_jobs):
    ok, exponent, window, _ = _exponent("criterion_7_glm", 0.6, 0.95, n_jobs)
    return ok, {"exponent": exponent, "window": window}


# ---------------------------------------------------------------------------
# 8: confidence-ellipsoid coverage


def _coverage_hits(config: ExperimentConfig, rep: int) -> int:
    """The rounds of replication rep whose ellipsoid contains theta*."""
    rows: list[tuple] = []
    run_replication(config, rep, record=rows)
    return sum(row[5] for row in rows)


@criterion(8, "GLM confidence-ellipsoid coverage", 120.0)
def criterion_8(n_jobs):
    config = _config("criterion_8_coverage")
    hits = sum(_map_replications(partial(_coverage_hits, config),
                                 range(config.replications), n_jobs))
    total = config.horizon * config.replications  # one record row per round
    fraction = hits / total
    return fraction >= 0.9, {
        "containment": round(fraction, 4), "required": ">= 0.9", "rounds_checked": total,
    }


# ---------------------------------------------------------------------------
# 9: reduction-equivalence identities

_EQ_BALL = DecisionSet.ball(1.0, dim=3)
_EQ_PRIVACY = PrivacyParams(1.0, 1e-5)


def _eq_loss(x):
    x_star = np.array([0.3, 0.0, 0.0])
    return float((x - x_star) @ (x - x_star))


# The wrapped runs draw their report noise a block ahead (DrawAhead); the
# bare references draw it per call from a plain Generator, so the identities
# also certify that the block draws are the per-call draws.


def _one_point_pair_identical(seed: int, horizon: int) -> bool:
    report = ScalarReport(_EQ_PRIVACY, 2.0)
    learner = FkmBandit(_EQ_BALL, 0.01, 0.05, 0.05, DrawAhead(derive_rng(seed, 0, "learner")))
    noise_rng = DrawAhead(derive_rng(seed, 0, "noise"))
    wrapped = [one_point_round(learner, _eq_loss, report, noise_rng).action
               for _ in range(horizon)]

    noise_rng = derive_rng(seed, 0, "noise")
    noise = [noise_rng.normal(0.0, report.sigma) for _ in range(horizon)]
    bare = FkmBandit(_EQ_BALL, 0.01, 0.05, 0.05, DrawAhead(derive_rng(seed, 0, "learner")))
    for t in range(horizon):
        x = bare.propose()
        if not np.array_equal(x, wrapped[t]):
            return False
        bare.observe(_eq_loss(x) + noise[t])
    return True


def _two_point_pair_identical(seed: int, horizon: int) -> bool:
    report = ScalarReport(_EQ_PRIVACY, 3.0)
    eta = TwoPointBandit.default_parameters(_EQ_BALL, horizon)[0]
    learner = TwoPointBandit(_EQ_BALL, eta, 0.05, 0.05, DrawAhead(derive_rng(seed, 1, "learner")))
    noise_rng = DrawAhead(derive_rng(seed, 1, "noise"))
    wrapped = []
    for _ in range(horizon):
        result = two_point_round(learner, _eq_loss, report, noise_rng)
        wrapped.append((result.x1, result.x2))

    noise_rng = derive_rng(seed, 1, "noise")
    noise = [noise_rng.normal(0.0, report.sigma, size=3) for _ in range(horizon)]
    bare = TwoPointBandit(_EQ_BALL, eta, 0.05, 0.05, DrawAhead(derive_rng(seed, 1, "learner")))
    for t in range(horizon):
        x1, x2 = bare.queries()
        if not (np.array_equal(x1, wrapped[t][0]) and np.array_equal(x2, wrapped[t][1])):
            return False
        noise_dot = 0.0  # n . (x1 - x2), summed left to right
        for n, a, b in zip(noise[t].tolist(), x1, x2):
            noise_dot += n * (a - b)
        bare.update(_eq_loss(x1) - _eq_loss(x2) + noise_dot)
    return True


@criterion(9, "reduction-equivalence identities", 10.0)
def criterion_9(n_jobs):
    one_ok = all(_one_point_pair_identical(seed, 150) for seed in range(10))
    two_ok = all(_two_point_pair_identical(seed, 150) for seed in range(10))
    return one_ok and two_ok, {
        "one_point_bit_identical": one_ok, "two_point_bit_identical": two_ok, "seeds": 10,
    }


# ---------------------------------------------------------------------------
# 10: formula exactness against a high-precision oracle


def _mpmath():
    """The oracle's arbitrary-precision library, imported on first use.

    mpmath comes with the 'test' extra only, so a plain install reports how
    to get it instead of failing inside the criterion.
    """
    try:
        import mpmath
    except ModuleNotFoundError as exc:
        raise ModuleNotFoundError(
            "criterion 10 needs mpmath, which the 'test' extra installs: "
            "pip install 'ldpbandits[test]'", name="mpmath",
        ) from exc
    return mpmath


@criterion(10, "formula exactness", 1.0)
def criterion_10(n_jobs):
    mpmath = _mpmath()
    mpmath.mp.dps = 50
    rng = np.random.default_rng(90_771)
    worst = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 10.0))
        delta = float(rng.uniform(1e-8, 0.5))
        sens = float(rng.uniform(0.01, 10.0))
        d = int(rng.integers(1, 12))
        horizon = int(rng.integers(10, 10**6))
        alpha = float(rng.uniform(0.01, 0.5))
        t = int(rng.integers(1, horizon + 1))
        meps, mdelta, msens = map(mpmath.mpf, (eps, delta, sens))

        def rel(got, want):
            return abs(got - float(want)) / max(abs(float(want)), 1e-300)

        privacy = PrivacyParams(eps, delta)
        worst = max(worst, rel(
            calibrate_gaussian(privacy, sens),
            msens * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mdelta)) / meps,
        ))
        worst = max(worst, rel(
            ScalarReport(privacy, sens).sigma,
            2 * msens * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mdelta)) / meps,
        ))
        worst = max(worst, rel(
            ctx.linear_sigma(privacy),
            6 * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("2.5") / mdelta)) / meps,
        ))
        worst = max(worst, rel(
            ctx.glm_sigma(privacy),
            6 * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("3.75") / mdelta)) / meps,
        ))
        sigma = float(rng.uniform(0.1, 30.0))
        conf = ctx.LdpConfidence(sigma, d, horizon, alpha)
        msigma, md, mt, mT, malpha = map(mpmath.mpf, (sigma, d, t, horizon, alpha))
        ups = msigma * mpmath.sqrt(mt) * (4 * mpmath.sqrt(md) + 2 * mpmath.log(2 * mT / malpha))
        worst = max(worst, rel(conf.upsilon(t), ups))
        worst = max(worst, rel(conf.c(t), 2 * ups))
        beta = (2 * msigma * mpmath.sqrt(md * mpmath.log(mT))
                + (mpmath.sqrt(3 * ups) + msigma * mpmath.sqrt(md * mt / ups))
                * md * mpmath.log(mT))
        worst = max(worst, rel(conf.beta_linear(t), beta))
    return worst < 1e-12, {"worst_relative_error": f"{worst:.2e}", "required": "< 1e-12"}


# ---------------------------------------------------------------------------
# 11: mechanism statistics at n = 10^6


@criterion(11, "mechanism statistics", 30.0)
def criterion_11(n_jobs):
    n = 1_000_000
    rng = DrawAhead(derive_rng(111_879, 0, "noise"))
    scalars = np.fromiter(
        (perturb_scalar(0.0, 1.0, rng) for _ in range(n)), dtype=float, count=n
    )
    mean_ok = abs(scalars.mean()) < 4.0 / math.sqrt(n)
    var_ok = abs(scalars.var() - 1.0) < 0.05

    # the contextual reports' rounds: the matrix entries at sigma, each vector
    # at its own scale
    sigma, scales = 3.0, (2.0, 0.5)
    report_noise = ReportNoise(derive_rng(111_879, 1, "noise"))
    rounds = np.empty((n // 4, 5, 3))
    for i in range(n // 4):
        rounds[i] = report_noise.round(3, sigma, scales)
    group_var = [float(g.var()) for g in (rounds[:, 1, 2], rounds[:, 3], rounds[:, 4])]
    group_ok = all(abs(v / s**2 - 1.0) < 0.025 for v, s in zip(group_var, (sigma, *scales)))

    # the two-point draw n . v with n ~ N(0, sigma^2 I): variance sigma^2 |v|^2
    v = [0.3, -0.4, 1.2]
    dir_rng = DrawAhead(derive_rng(111_879, 4, "noise"))
    directed = np.fromiter(
        (perturb_scalar(0.0, 1.5, dir_rng, direction=v) for _ in range(n // 4)),
        dtype=float, count=n // 4,
    )
    dir_ok = abs(directed.var() / (1.5**2 * float(np.dot(v, v))) - 1.0) < 0.02

    sym_ok = True
    for d in (2, 8, 32, 128):
        matrix_noise = ReportNoise(derive_rng(111_879, 3, d))
        for _ in range(4):  # across a block edge at d = 128
            m = matrix_noise.round(d, 1.0, (1.0,))[:d]
            sym_ok = sym_ok and np.array_equal(m, m.T)
    return mean_ok and var_ok and group_ok and dir_ok and sym_ok, {
        "scalar_mean": f"{scalars.mean():.2e}", "scalar_var": round(float(scalars.var()), 4),
        "report_group_var": [round(v, 3) for v in group_var],
        "direction_var": round(float(directed.var()), 4),
        "symmetry_exact": sym_ok,
    }


# ---------------------------------------------------------------------------
# 12: gradient correctness


@criterion(12, "gradient correctness", 30.0)
def criterion_12(n_jobs):
    link = ctx.logistic_link()
    rng = np.random.default_rng(121_993)
    noise = ReportNoise(rng)  # sigma = 0: the report draws nothing
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        x = rng.normal(0, 0.5, d)
        x /= max(np.linalg.norm(x), 1.0)
        theta = rng.normal(0, 0.5, d)
        theta /= max(np.linalg.norm(theta), 1.0)
        y = float(rng.integers(0, 2))
        grad = ctx.glm_local_report(x, y, theta, link, 0.0, noise).gradient
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            numeric = (link.loss(float(x @ (theta + e)), y)
                       - link.loss(float(x @ (theta - e)), y)) / (2 * h)
            worst = max(worst, abs(numeric - grad[i]))
    grad_ok = worst < 1e-6

    # two-point estimator mean vs the smoothed-gradient oracle
    d, rho = 3, 0.1
    y_point = np.array([0.3, 0.0, 0.0])
    mc_rng = np.random.default_rng(121_994)
    n = 1_000_000

    def f(points):
        return np.sum(points * points, axis=1)

    u = mc_rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    two_point = ((d / (2 * rho)) * (f(y_point + rho * u) - f(y_point - rho * u)))[:, None] * u
    est = two_point.mean(axis=0)

    ball = mc_rng.standard_normal((n, d))
    ball /= np.linalg.norm(ball, axis=1)[:, None]
    ball *= mc_rng.random(n)[:, None] ** (1.0 / d)
    step = 1e-3
    oracle = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        oracle[i] = (f(y_point + e + rho * ball).mean()
                     - f(y_point - e + rho * ball).mean()) / (2 * step)
    mc_error = float(np.linalg.norm(est - oracle))
    mc_ok = mc_error < 0.05
    return grad_ok and mc_ok, {
        "glm_fd_worst_error": f"{worst:.2e}", "required_fd": "< 1e-6",
        "two_point_mc_error": round(mc_error, 4), "required_mc": "< 0.05",
    }


def run_suite(ids=("all",), n_jobs=None) -> list[CriterionResult]:
    if len(ids) == 1 and str(ids[0]).lower() == "all":
        selected = sorted(CRITERIA)
    else:
        selected = []
        for raw in ids:
            try:
                selected.append(int(raw))
            except ValueError:
                raise KeyError(f"unknown criterion id {raw!r}")
        unknown = [cid for cid in selected if cid not in CRITERIA]
        if unknown:
            raise KeyError(f"unknown criterion ids {unknown}; valid: 1..12 or 'all'")
    if 10 in selected:
        _mpmath()  # fail before the long criteria run, not after
    return [CRITERIA[cid](n_jobs=n_jobs) for cid in selected]
