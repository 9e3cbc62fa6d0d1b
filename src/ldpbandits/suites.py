"""Named acceptance criteria: order-of-growth, identity, and statistical checks.

Each criterion is a self-contained experiment with pinned tolerances; the
suite prints one pass/fail line per criterion.  Instance parameters that the
criteria leave free (privacy levels for the MAB/BAI/GLM suites, the
adversarial switching loss values) are fixed here and documented in the
README, calibrated once against the intended qualitative behavior.

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
    PrivacyParams,
    calibrate_gaussian,
    derive_rng,
    perturb_scalar,
    perturb_vector,
    symmetric_gaussian_matrix,
)
from .reductions import (
    OnePointConfig,
    TwoPointConfig,
    one_point_round,
    one_point_sigma,
    two_point_round,
)


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


def _result(cid, name, start, budget, ok, details) -> CriterionResult:
    runtime = time.perf_counter() - start
    details = dict(details)
    if runtime > budget:
        details["over_budget"] = f"{runtime:.1f}s"
    return CriterionResult(cid=cid, name=name, passed=bool(ok) and runtime <= budget,
                           runtime=runtime, budget=budget, details=details)


def _interp(trace, t):
    return float(np.interp(t, trace.checkpoints.astype(float), trace.mean))


# ---------------------------------------------------------------------------
# 1-2: two-point BCO


def _two_point_config(mode: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "algorithm": "two_point_bco",
        "horizon": 100_000,
        "replications": 20,
        "base_seed": 20_406,
        "environment": {"kind": "quadratic", "dim": 5},
        "privacy": {"epsilon": 1.0, "delta": 1e-5},
        "algorithm_params": {"mode": mode},
    })


def criterion_1(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    trace = run_experiment(_two_point_config("convex"), n_jobs=n_jobs)
    fit = fit_slope(trace)
    ok = 0.35 <= fit.exponent <= 0.65
    return _result(1, "two-point convex exponent", start, 120.0, ok, {
        "exponent": round(fit.exponent, 4), "window": "[0.35, 0.65]",
        "final_regret": round(float(trace.mean[-1]), 1),
    })


def criterion_2(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    config = _two_point_config("strongly_convex")
    trace = run_experiment(config, n_jobs=n_jobs)
    horizon = config.horizon
    ratio = _interp(trace, horizon) / _interp(trace, horizon // 4)
    ok = ratio <= 2.5
    return _result(2, "two-point strongly convex log growth", start, 120.0, ok, {
        "regret_ratio_T_over_T4": round(ratio, 3), "required": "<= 2.5",
    })


# ---------------------------------------------------------------------------
# 3: one-point BCO via sphere sampling


def criterion_3(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    config = ExperimentConfig.from_dict({
        "algorithm": "one_point_bco",
        "horizon": 200_000,
        "replications": 20,
        "base_seed": 30_915,
        "environment": {"kind": "quadratic", "dim": 3},
        "privacy": {"epsilon": 1.0, "delta": 1e-2},
    })
    trace = run_experiment(config, n_jobs=n_jobs)
    fit = fit_slope(trace)
    ok = 0.6 <= fit.exponent <= 0.9
    return _result(3, "one-point convex exponent", start, 300.0, ok, {
        "exponent": round(fit.exponent, 4), "window": "[0.6, 0.9]",
        "final_regret": round(float(trace.mean[-1]), 1),
    })


# ---------------------------------------------------------------------------
# 4: MAB via the one-point reduction around Tsallis-INF

MAB_ADVERSARIAL = {
    "algorithm": "mab",
    "horizon": 100_000,
    "replications": 50,
    "base_seed": 41_117,
    "environment": {"kind": "adversarial_switching", "n_arms": 5,
                    "anchor_loss": 0.45, "dip_loss": 0.44, "off_loss": 0.65,
                    "n_blocks": 10},
    "privacy": {"epsilon": 2.5, "delta": 1e-2},
}

MAB_STOCHASTIC = {
    "algorithm": "mab",
    "horizon": 100_000,
    "replications": 50,
    "base_seed": 42_229,
    "environment": {"kind": "stochastic", "means": [0.5, 0.3]},
    "privacy": {"epsilon": 2.81, "delta": 0.1},
}


def criterion_4(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    adv = run_experiment(ExperimentConfig.from_dict(MAB_ADVERSARIAL), n_jobs=n_jobs)
    fit = fit_slope(adv)
    adv_ok = 0.35 <= fit.exponent <= 0.7

    sto = run_experiment(ExperimentConfig.from_dict(MAB_STOCHASTIC), n_jobs=n_jobs)
    horizon = MAB_STOCHASTIC["horizon"]
    marks = [horizon // 8, horizon // 4, horizon // 2, horizon]
    values = [_interp(sto, m) for m in marks]
    increments = [values[i + 1] - values[i] for i in range(3)]
    sto_ok = increments[0] > increments[1] > increments[2]
    return _result(4, "LDP MAB switching + stochastic signature", start, 180.0,
                   adv_ok and sto_ok, {
        "adversarial_exponent": round(fit.exponent, 4), "adv_window": "[0.35, 0.7]",
        "stochastic_increments": [round(v, 1) for v in increments],
        "decreasing": sto_ok,
    })


# ---------------------------------------------------------------------------
# 5: BAI via the one-point reduction around lil'UCB

BAI_BASE = {
    "algorithm": "bai",
    "horizon": 500_000,  # pull cap per replication
    "replications": 200,
    "base_seed": 53_331,
    "environment": {"reward_means": [0.9, 0.6, 0.4]},
    "algorithm_params": {"gamma": 0.1},
}


def criterion_5(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    private_doc = dict(BAI_BASE, privacy={"epsilon": 2.0, "delta": 1e-2})
    private = run_bai(ExperimentConfig.from_dict(private_doc), n_jobs=n_jobs)
    success_ok = private["success_rate"] >= 0.9

    nonprivate = run_bai(ExperimentConfig.from_dict(dict(BAI_BASE)), n_jobs=n_jobs)
    sigma = one_point_sigma(PrivacyParams(2.0, 1e-2), 0.5)
    proxy_ratio = (0.25 + sigma**2) / 0.25
    pull_ratio = private["mean_pulls"] / nonprivate["mean_pulls"]
    ratio_ok = 0.5 * proxy_ratio <= pull_ratio <= 1.5 * proxy_ratio
    return _result(5, "LDP best-arm identification", start, 180.0,
                   success_ok and ratio_ok, {
        "success_rate": private["success_rate"], "required": ">= 0.9",
        "pull_ratio": round(pull_ratio, 2),
        "proxy_ratio_window": f"[{0.5 * proxy_ratio:.2f}, {1.5 * proxy_ratio:.2f}]",
        "capped_runs": private["capped_runs"],
    })


# ---------------------------------------------------------------------------
# 6-7: contextual bandits


def criterion_6(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    base = {
        "algorithm": "contextual_linear",
        "horizon": 200_000,
        "replications": 20,
        "base_seed": 60_443,
        "environment": {"dim": 3, "n_arms": 10},
        "algorithm_params": {"alpha": 0.1},
    }
    private = run_experiment(
        ExperimentConfig.from_dict(dict(base, privacy={"epsilon": 1.0, "delta": 1e-2})),
        n_jobs=n_jobs,
    )
    private_fit = fit_slope(private)
    private_ok = 0.6 <= private_fit.exponent <= 0.9

    baseline = run_experiment(ExperimentConfig.from_dict(dict(base)), n_jobs=n_jobs)
    baseline_fit = fit_slope(baseline)
    baseline_ok = 0.35 <= baseline_fit.exponent <= 0.65
    return _result(6, "LDP contextual linear order gap", start, 600.0,
                   private_ok and baseline_ok, {
        "ldp_exponent": round(private_fit.exponent, 4), "ldp_window": "[0.6, 0.9]",
        "baseline_exponent": round(baseline_fit.exponent, 4),
        "baseline_window": "[0.35, 0.65]",
    })


def criterion_7(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    config = ExperimentConfig.from_dict({
        "algorithm": "contextual_glm",
        "horizon": 100_000,
        "replications": 20,
        "base_seed": 70_551,
        "environment": {"dim": 3, "n_arms": 10, "link": "logistic"},
        "privacy": {"epsilon": 1.0, "delta": 1e-2},
        "algorithm_params": {"alpha": 0.1, "kappa": 1.0},
    })
    trace = run_experiment(config, n_jobs=n_jobs)
    fit = fit_slope(trace)
    ok = 0.6 <= fit.exponent <= 0.95
    return _result(7, "LDP GLM bandit exponent", start, 600.0, ok, {
        "exponent": round(fit.exponent, 4), "window": "[0.6, 0.95]",
    })


# ---------------------------------------------------------------------------
# 8: confidence-ellipsoid coverage

COVERAGE_DOC = {
    "algorithm": "contextual_glm",
    "horizon": 2000,
    "replications": 200,
    "base_seed": 80_667,
    "environment": {"dim": 3, "n_arms": 10, "link": "logistic"},
    "privacy": {"epsilon": 1.0, "delta": 1e-2},
    "algorithm_params": {"alpha": 0.1, "kappa": 1.0},
}


def _coverage_replication(config: ExperimentConfig, rep: int) -> tuple[int, int]:
    """(rounds whose ellipsoid contains theta*, rounds) for replication rep."""
    rows: list[tuple] = []
    run_replication(config, rep, record=rows)
    return sum(row[5] for row in rows), len(rows)


def criterion_8(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    config = ExperimentConfig.from_dict(COVERAGE_DOC)
    counts = _map_replications(partial(_coverage_replication, config),
                               range(config.replications), n_jobs)
    hits = sum(c for c, _ in counts)
    total = sum(n for _, n in counts)
    fraction = hits / total
    ok = fraction >= 0.9
    return _result(8, "GLM confidence-ellipsoid coverage", start, 120.0, ok, {
        "containment": round(fraction, 4), "required": ">= 0.9",
        "rounds_checked": total,
    })


# ---------------------------------------------------------------------------
# 9: reduction-equivalence identities

_EQ_BALL = DecisionSet.ball(1.0, dim=3)
_EQ_PRIVACY = PrivacyParams(1.0, 1e-5)


def _eq_loss(x):
    x_star = np.array([0.3, 0.0, 0.0])
    return float((x - x_star) @ (x - x_star))


def _one_point_pair_identical(seed: int, horizon: int) -> bool:
    config = OnePointConfig(privacy=_EQ_PRIVACY, loss_bound=2.0)
    learner = FkmBandit(_EQ_BALL, 0.01, 0.05, 0.05, derive_rng(seed, 0, "learner"))
    noise_rng = derive_rng(seed, 0, "noise")
    wrapped = [one_point_round(learner, _eq_loss, config, noise_rng).action
               for _ in range(horizon)]

    noise_rng = derive_rng(seed, 0, "noise")
    noise = [noise_rng.normal(0.0, config.sigma) for _ in range(horizon)]
    bare = FkmBandit(_EQ_BALL, 0.01, 0.05, 0.05, derive_rng(seed, 0, "learner"))
    for t in range(horizon):
        x = bare.propose()
        if not np.array_equal(x, wrapped[t]):
            return False
        bare.observe(_eq_loss(x) + noise[t])
    return True


def _two_point_pair_identical(seed: int, horizon: int) -> bool:
    config = TwoPointConfig.for_horizon(_EQ_PRIVACY, 3.0, horizon, 1.0, rho=0.05, xi=0.05)
    learner = TwoPointBandit(_EQ_BALL, config.eta, config.rho, config.xi,
                             derive_rng(seed, 1, "learner"))
    noise_rng = derive_rng(seed, 1, "noise")
    wrapped = []
    for _ in range(horizon):
        result = two_point_round(learner, _eq_loss, config, noise_rng)
        wrapped.append((result.x1, result.x2))

    noise_rng = derive_rng(seed, 1, "noise")
    noise = [noise_rng.normal(0.0, config.sigma, size=3) for _ in range(horizon)]
    bare = TwoPointBandit(_EQ_BALL, config.eta, config.rho, config.xi,
                          derive_rng(seed, 1, "learner"))
    for t in range(horizon):
        x1, x2 = bare.queries()
        if not (np.array_equal(x1, wrapped[t][0]) and np.array_equal(x2, wrapped[t][1])):
            return False
        bare.update(_eq_loss(x1) - _eq_loss(x2) + float(noise[t] @ (x1 - x2)))
    return True


def criterion_9(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    one_ok = all(_one_point_pair_identical(seed, 150) for seed in range(10))
    two_ok = all(_two_point_pair_identical(seed, 150) for seed in range(10))
    return _result(9, "reduction-equivalence identities", start, 10.0,
                   one_ok and two_ok, {
        "one_point_bit_identical": one_ok, "two_point_bit_identical": two_ok,
        "seeds": 10,
    })


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


def criterion_10(n_jobs=None) -> CriterionResult:
    mpmath = _mpmath()
    mpmath.mp.dps = 50
    start = time.perf_counter()
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
            one_point_sigma(privacy, sens),
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
    ok = worst < 1e-12
    return _result(10, "formula exactness", start, 1.0, ok, {
        "worst_relative_error": f"{worst:.2e}", "required": "< 1e-12",
    })


# ---------------------------------------------------------------------------
# 11: mechanism statistics at n = 10^6


def criterion_11(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    n = 1_000_000
    rng = derive_rng(111_879, 0, "noise")
    scalars = np.fromiter(
        (perturb_scalar(0.0, 1.0, rng) for _ in range(n)), dtype=float, count=n
    )
    mean_ok = abs(scalars.mean()) < 4.0 / math.sqrt(n)
    var_ok = abs(scalars.var() - 1.0) < 0.05

    vec_rng = derive_rng(111_879, 1, "noise")
    vec = np.vstack([perturb_vector(np.zeros(3), 2.0, vec_rng) for _ in range(n // 4)])
    vec_ok = bool(np.all(np.abs(vec.var(axis=0) - 4.0) < 0.1))

    # the two-point draw n . v with n ~ N(0, sigma^2 I): variance sigma^2 |v|^2
    v = np.array([0.3, -0.4, 1.2])
    dir_rng = derive_rng(111_879, 4, "noise")
    directed = np.fromiter(
        (perturb_scalar(0.0, 1.5, dir_rng, direction=v) for _ in range(n // 4)),
        dtype=float, count=n // 4,
    )
    dir_ok = abs(directed.var() / (1.5**2 * float(v @ v)) - 1.0) < 0.02

    mat_rng = derive_rng(111_879, 2, "noise")
    entries = np.fromiter(
        (symmetric_gaussian_matrix(3, 3.0, mat_rng)[1, 2] for _ in range(100_000)),
        dtype=float, count=100_000,
    )
    entry_ok = abs(entries.var() - 9.0) < 0.3

    sym_ok = True
    for d in (2, 8, 32, 128):
        m = symmetric_gaussian_matrix(d, 1.0, derive_rng(111_879, 3, d))
        sym_ok = sym_ok and np.array_equal(m, m.T)
    ok = mean_ok and var_ok and vec_ok and dir_ok and entry_ok and sym_ok
    return _result(11, "mechanism statistics", start, 30.0, ok, {
        "scalar_mean": f"{scalars.mean():.2e}", "scalar_var": round(float(scalars.var()), 4),
        "vector_var_ok": vec_ok, "direction_var": round(float(directed.var()), 4),
        "matrix_entry_var": round(float(entries.var()), 3),
        "symmetry_exact": sym_ok,
    })


# ---------------------------------------------------------------------------
# 12: gradient correctness


def criterion_12(n_jobs=None) -> CriterionResult:
    start = time.perf_counter()
    link = ctx.logistic_link()
    rng = np.random.default_rng(121_993)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        x = rng.normal(0, 0.5, d)
        x /= max(np.linalg.norm(x), 1.0)
        theta = rng.normal(0, 0.5, d)
        theta /= max(np.linalg.norm(theta), 1.0)
        y = float(rng.integers(0, 2))
        grad = link.gradient(x, y, theta)
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
    ok = grad_ok and mc_ok
    return _result(12, "gradient correctness", start, 30.0, ok, {
        "glm_fd_worst_error": f"{worst:.2e}", "required_fd": "< 1e-6",
        "two_point_mc_error": round(mc_error, 4), "required_mc": "< 0.05",
    })


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
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
