"""Experiment orchestration: configs, seeded replications, regret traces,
log-log slope fits and CSV/JSON emission.

A run is fully determined by its config document and base seed: replication
i derives independent named streams (learner / noise / environment) from
(base_seed, i), replications execute independently (optionally in parallel)
and are aggregated in replication order, so identical configs produce
identical emitted bytes.

Regret accounting consumes only ground-truth quantities from the
environments; values that crossed the privacy barrier are tainted
(reductions.PerturbedValue) and the accumulator rejects them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import contextual as ctx
from .blackbox import DecisionSet, FkmBandit, LilUcbParams, TwoPointBandit
from .environments import (
    AdversarialMab,
    AffineQuadraticOracle,
    ContextualEnv,
    QuadraticOracle,
    StochasticMab,
)
from .errors import ConfigurationError, ContractViolation
from .mechanisms import PrivacyParams, derive_rng
from .reductions import (
    OnePointConfig,
    PerturbedValue,
    TwoPointConfig,
    effective_loss_bound,
    one_point_round,
    two_point_round,
    wrap_bai,
    wrap_mab,
)

ALGORITHMS = (
    "two_point_bco",
    "one_point_bco",
    "mab",
    "bai",
    "contextual_linear",
    "contextual_glm",
)

OUTPUT_DIR_ENV = "LDPBANDITS_OUTPUT_DIR"


class RegretAccumulator:
    """Cumulative regret that refuses values tainted by the privacy barrier."""

    def __init__(self):
        self.total = 0.0

    def add(self, value: float):
        if isinstance(value, PerturbedValue):
            raise ContractViolation(
                "perturbed feedback reached the regret accumulator; "
                "regret must be computed from true losses only"
            )
        self.total += float(value)


def checkpoint_grid(horizon: int, count: int = 20) -> np.ndarray:
    """Geometrically spaced integer checkpoints, strictly increasing, ending
    exactly at the horizon."""
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    count = max(min(count, horizon), 1)
    raw = np.geomspace(min(10, horizon), horizon, count)
    pts = np.unique(np.maximum(np.round(raw).astype(np.int64), 1))
    if pts[-1] != horizon:
        pts = np.append(pts[pts < horizon], horizon)
    return pts


def _check_keys(mapping: dict, allowed, context: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown config keys in {context}: {unknown}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description; see README for the schema."""

    algorithm: str
    horizon: int
    replications: int
    base_seed: int
    environment: dict
    algorithm_params: dict = field(default_factory=dict)
    privacy: PrivacyParams | None = None
    checkpoints: int = 20

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.checkpoints < 1:
            raise ConfigurationError("checkpoints must be >= 1")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        _check_keys(
            doc,
            ("algorithm", "horizon", "replications", "base_seed", "environment",
             "algorithm_params", "privacy", "checkpoints"),
            "experiment",
        )
        for key in ("algorithm", "horizon", "replications", "base_seed", "environment"):
            if key not in doc:
                raise ConfigurationError(f"missing required config key {key!r}")
        privacy = doc.get("privacy")
        if privacy is not None:
            _check_keys(privacy, ("epsilon", "delta"), "privacy")
            privacy = PrivacyParams(epsilon=privacy["epsilon"], delta=privacy["delta"])
        config = ExperimentConfig(
            algorithm=doc["algorithm"],
            horizon=int(doc["horizon"]),
            replications=int(doc["replications"]),
            base_seed=int(doc["base_seed"]),
            environment=dict(doc["environment"]),
            algorithm_params=dict(doc.get("algorithm_params", {})),
            privacy=privacy,
            checkpoints=int(doc.get("checkpoints", 20)),
        )
        _RUNNERS[config.algorithm].validate(config)
        return config

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        doc = {
            "algorithm": self.algorithm,
            "horizon": self.horizon,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "environment": self.environment,
            "algorithm_params": self.algorithm_params,
            "privacy": None
            if self.privacy is None
            else {"epsilon": self.privacy.epsilon, "delta": self.privacy.delta},
            "checkpoints": self.checkpoints,
        }
        return doc

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class RegretTrace:
    checkpoints: np.ndarray
    per_replication: np.ndarray  # shape (replications, len(checkpoints))
    config_digest: str
    wall_clock: float

    @property
    def mean(self) -> np.ndarray:
        return self.per_replication.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        return self.per_replication.std(axis=0, ddof=0)

    @property
    def n_replications(self) -> int:
        return self.per_replication.shape[0]


@dataclass(frozen=True)
class SlopeFit:
    exponent: float
    intercept: float
    residual: float
    window: tuple[int, int]  # [start, end) indices into the checkpoint grid


# ---------------------------------------------------------------------------
# per-algorithm replication runners


def _bco_set_and_oracle(config: ExperimentConfig):
    env = config.environment
    _check_keys(env, ("kind", "dim", "radius", "x_star", "scale", "drift_norm"), "environment")
    dim = int(env["dim"])
    radius = float(env.get("radius", 1.0))
    dset = DecisionSet.ball(radius, dim=dim)
    x_star = env.get("x_star")
    if x_star is None:
        x_star = np.zeros(dim)
        x_star[0] = 0.3 * radius
    kind = env.get("kind", "quadratic")
    scale = float(env.get("scale", 1.0))
    if kind == "quadratic":
        oracle = QuadraticOracle(x_star, dset, scale=scale)
    elif kind == "affine_quadratic":
        oracle = AffineQuadraticOracle(
            x_star, dset, config.horizon,
            drift_norm=float(env.get("drift_norm", 0.1)),
            scale=scale, seed=config.base_seed,
        )
    else:
        raise ConfigurationError(f"unknown BCO oracle kind {kind!r}")
    return dset, oracle


class _TwoPointRunner:
    @staticmethod
    def validate(config):
        _bco_set_and_oracle(config)
        _check_keys(config.algorithm_params, ("mode", "eta", "rho", "xi"), "algorithm_params")
        if config.algorithm_params.get("mode", "convex") not in ("convex", "strongly_convex"):
            raise ConfigurationError("two-point mode must be convex or strongly_convex")

    @staticmethod
    def run(config: ExperimentConfig, rep: int) -> np.ndarray:
        dset, oracle = _bco_set_and_oracle(config)
        params = config.algorithm_params
        t_config = TwoPointConfig.for_horizon(
            config.privacy, oracle.lipschitz, config.horizon, dset.inner_radius,
            eta=params.get("eta"), rho=params.get("rho"), xi=params.get("xi"),
        )
        mu = oracle.mu if params.get("mode", "convex") == "strongly_convex" else 0.0
        learner = TwoPointBandit(
            dset, t_config.eta, t_config.rho, t_config.xi,
            derive_rng(config.base_seed, rep, "learner"), mu=mu,
        )
        noise_rng = derive_rng(config.base_seed, rep, "noise")
        grid = checkpoint_grid(config.horizon, config.checkpoints)
        marks = set(int(c) for c in grid)
        acc = RegretAccumulator()
        out = []
        for t in range(1, config.horizon + 1):
            result = two_point_round(learner, lambda x: oracle.value(t, x), t_config, noise_rng)
            acc.add(0.5 * (result.true_loss_1 + result.true_loss_2))
            if t in marks:
                _, best = oracle.optimum(t)
                out.append(acc.total - best)
        return np.asarray(out)


class _OnePointRunner:
    @staticmethod
    def validate(config):
        _bco_set_and_oracle(config)
        _check_keys(config.algorithm_params, ("eta", "rho", "xi"), "algorithm_params")

    @staticmethod
    def run(config: ExperimentConfig, rep: int) -> np.ndarray:
        dset, oracle = _bco_set_and_oracle(config)
        params = config.algorithm_params
        o_config = OnePointConfig(privacy=config.privacy, loss_bound=oracle.bound)
        bound = effective_loss_bound(oracle.bound, o_config.sigma, config.horizon)
        eta, rho, xi = FkmBandit.default_parameters(dset, config.horizon, bound)
        eta = params.get("eta", eta)
        rho = params.get("rho", rho)
        xi = params.get("xi", xi)
        learner = FkmBandit(dset, eta, rho, xi, derive_rng(config.base_seed, rep, "learner"))
        noise_rng = derive_rng(config.base_seed, rep, "noise")
        grid = checkpoint_grid(config.horizon, config.checkpoints)
        marks = set(int(c) for c in grid)
        acc = RegretAccumulator()
        out = []
        for t in range(1, config.horizon + 1):
            result = one_point_round(learner, lambda x: oracle.value(t, x), o_config, noise_rng)
            acc.add(result.true_loss)
            if t in marks:
                _, best = oracle.optimum(t)
                out.append(acc.total - best)
        return np.asarray(out)


def _mab_environment(config: ExperimentConfig, rep: int):
    env = config.environment
    _check_keys(
        env,
        ("kind", "means", "n_arms", "anchor_loss", "dip_loss", "off_loss",
         "n_blocks", "best_loss", "gap"),
        "environment",
    )
    kind = env.get("kind", "stochastic")
    if kind == "stochastic":
        if "means" not in env:
            raise ConfigurationError("stochastic MAB needs arm means")
        return StochasticMab(env["means"], derive_rng(config.base_seed, rep, "environment"))
    n_arms = int(env.get("n_arms", 0)) or len(env.get("means", []))
    if n_arms < 2:
        raise ConfigurationError("adversarial MAB needs n_arms >= 2")
    if kind == "adversarial_switching":
        return AdversarialMab.switching(
            n_arms, config.horizon,
            anchor_loss=float(env.get("anchor_loss", 0.45)),
            dip_loss=float(env.get("dip_loss", 0.44)),
            off_loss=float(env.get("off_loss", 0.65)),
            n_blocks=int(env.get("n_blocks", 10)),
        )
    if kind == "adversarial_fixed_gap":
        return AdversarialMab.fixed_gap(
            n_arms, config.horizon,
            best_loss=float(env.get("best_loss", 0.3)), gap=float(env.get("gap", 0.2)),
        )
    raise ConfigurationError(f"unknown MAB environment kind {kind!r}")


class _MabRunner:
    @staticmethod
    def validate(config):
        _mab_environment(config, 0)
        _check_keys(config.algorithm_params, (), "algorithm_params")

    @staticmethod
    def run(config: ExperimentConfig, rep: int) -> np.ndarray:
        env = _mab_environment(config, rep)
        learner = wrap_mab(
            config.privacy, env.k,
            derive_rng(config.base_seed, rep, "learner"),
            derive_rng(config.base_seed, rep, "noise"),
        )
        grid = checkpoint_grid(config.horizon, config.checkpoints)
        marks = set(int(c) for c in grid)
        acc = RegretAccumulator()
        out = []
        stochastic = isinstance(env, StochasticMab)
        if stochastic:
            for t in range(1, config.horizon + 1):
                arm = learner.propose()
                learner.observe(env.sample(t, arm))
                acc.add(env.instant_regret(arm))
                if t in marks:
                    out.append(acc.total)
            return np.asarray(out)
        # adversarial: regret against the best fixed arm for each prefix
        cum_by_arm = np.zeros(env.k)
        for t in range(1, config.horizon + 1):
            arm = learner.propose()
            loss = env.sample(t, arm)
            learner.observe(loss)
            acc.add(loss)
            cum_by_arm += env.table[t - 1]
            if t in marks:
                out.append(acc.total - float(cum_by_arm.min()))
        return np.asarray(out)


class _BaiRunner:
    @staticmethod
    def validate(config):
        env = config.environment
        _check_keys(env, ("reward_means",), "environment")
        if "reward_means" not in env or len(env["reward_means"]) < 1:
            raise ConfigurationError("BAI needs reward_means")
        _check_keys(
            config.algorithm_params,
            ("gamma", "max_pulls", "eps_lil", "beta_lil", "lam_lil"),
            "algorithm_params",
        )

    @staticmethod
    def run(config: ExperimentConfig, rep: int):
        means = np.asarray(config.environment["reward_means"], dtype=float)
        params = config.algorithm_params
        gamma = float(params.get("gamma", 0.1))
        max_pulls = int(params.get("max_pulls", config.horizon))
        lil = LilUcbParams(
            eps_lil=float(params.get("eps_lil", 0.01)),
            beta_lil=float(params.get("beta_lil", 0.5)),
            lam_lil=float(params.get("lam_lil", 9.0)),
        )
        env_rng = derive_rng(config.base_seed, rep, "environment")
        learner = wrap_bai(config.privacy, means.size, gamma,
                           derive_rng(config.base_seed, rep, "noise"), lil)
        while not learner.stopped and learner.total_pulls < max_pulls:
            arm = learner.select()
            reward = float(env_rng.random() < means[arm])
            learner.observe(arm, reward)
        capped = not learner.stopped
        learner.force_stop()
        return {
            "best": int(learner.best),
            "true_best": int(np.argmax(means)),
            "success": bool(learner.best == int(np.argmax(means))),
            "pulls": learner.total_pulls,
            "capped": capped,
        }


def _contextual_setup(config: ExperimentConfig, rep: int, glm: bool):
    env_doc = config.environment
    _check_keys(env_doc, ("dim", "n_arms", "theta_star", "link"), "environment")
    d = int(env_doc["dim"])
    n_arms = int(env_doc.get("n_arms", 10))
    theta_star = env_doc.get("theta_star")
    if theta_star is None:
        theta_star = np.zeros(d)
        theta_star[0] = 1.0
    link = None
    if glm:
        link_name = env_doc.get("link", "logistic")
        if link_name != "logistic":
            raise ConfigurationError(f"unknown link {link_name!r}")
        link = ctx.logistic_link()
    params = config.algorithm_params
    _check_keys(params, ("alpha", "kappa", "zeta", "baseline_lambda"), "algorithm_params")
    alpha = float(params.get("alpha", 0.1))
    sigma = (ctx.glm_sigma if glm else ctx.linear_sigma)(config.privacy)
    if config.privacy is None:
        conf = ctx.BaselineConfidence(
            d, config.horizon, alpha, lam=float(params.get("baseline_lambda", 1.0)),
        )
    else:
        conf = ctx.LdpConfidence(sigma, d, config.horizon, alpha,
                                 kappa=float(params.get("kappa", 1.0)))
    env = ContextualEnv(theta_star, n_arms,
                        derive_rng(config.base_seed, rep, "environment"), link=link)
    server = ctx.ServerState(d, conf)
    report_rng = derive_rng(config.base_seed, rep, "noise")
    return env, server, sigma, report_rng, link, params


class _ContextualLinearRunner:
    @staticmethod
    def validate(config):
        _contextual_setup(config, 0, glm=False)

    @staticmethod
    def run(config: ExperimentConfig, rep: int, trajectory=None) -> np.ndarray:
        env, server, sigma, report_rng, _, _ = _contextual_setup(config, rep, glm=False)
        grid = checkpoint_grid(config.horizon, config.checkpoints)
        marks = set(int(c) for c in grid)
        acc = RegretAccumulator()
        out = []
        for t in range(1, config.horizon + 1):
            rnd = env.step(t)
            arm = ctx.linear_select_action(server, rnd.arms)
            x = rnd.arms[arm]
            y = env.reward(x)
            acc.add(env.instant_regret(rnd, arm))
            ctx.linear_server_update(server, ctx.linear_local_report(x, y, sigma, report_rng))
            if trajectory is not None:
                beta = server.conf.beta_linear(t)
                diff = server.theta_tilde - env.theta_star
                contained = float(diff @ server.reg @ diff) <= beta * beta
                trajectory.append((t, arm, y, server.theta_tilde.copy(), beta, contained))
            if t in marks:
                out.append(acc.total)
        return np.asarray(out)


class _ContextualGlmRunner:
    @staticmethod
    def validate(config):
        _contextual_setup(config, 0, glm=True)

    @staticmethod
    def run(config: ExperimentConfig, rep: int, coverage=None) -> np.ndarray:
        env, server, sigma, report_rng, link, params = _contextual_setup(config, rep, glm=True)
        zeta = params.get("zeta")
        zeta = 1.0 / math.sqrt(config.horizon) if zeta is None else float(zeta)
        grid = checkpoint_grid(config.horizon, config.checkpoints)
        marks = set(int(c) for c in grid)
        acc = RegretAccumulator()
        out = []
        for t in range(1, config.horizon + 1):
            rnd = env.step(t)
            arm = ctx.glm_select_action(server, rnd.arms, link)
            x = rnd.arms[arm]
            y = env.reward(x)
            acc.add(env.instant_regret(rnd, arm))
            report = ctx.glm_local_report(x, y, server.theta_hat, link, sigma, report_rng)
            ctx.glm_server_update(server, report, zeta)
            if coverage is not None:
                beta = server.conf.beta_glm(t, link)
                diff = server.theta_tilde - env.theta_star
                coverage.append(float(diff @ server.reg @ diff) <= beta * beta)
            if t in marks:
                out.append(acc.total)
        return np.asarray(out)


_RUNNERS = {
    "two_point_bco": _TwoPointRunner,
    "one_point_bco": _OnePointRunner,
    "mab": _MabRunner,
    "bai": _BaiRunner,
    "contextual_linear": _ContextualLinearRunner,
    "contextual_glm": _ContextualGlmRunner,
}


def run_replication(config: ExperimentConfig, rep: int):
    return _RUNNERS[config.algorithm].run(config, rep)


def default_jobs() -> int:
    env = os.environ.get("LDPBANDITS_JOBS")
    if env:
        return max(int(env), 1)
    return min(os.cpu_count() or 1, 8)


def _map_replications(fn, args, n_jobs: int | None) -> list:
    """[fn(a) for a in args], over a process pool when n_jobs > 1 and there
    is more than one call; results are always in the order of args."""
    n_jobs = default_jobs() if n_jobs is None else max(int(n_jobs), 1)
    args = list(args)
    if n_jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


def run_experiment(config: ExperimentConfig, n_jobs: int | None = None) -> RegretTrace:
    """Execute all replications and assemble the per-checkpoint regret trace.

    Replications use disjoint derived streams, so parallel execution is
    bit-identical to sequential; results are always aggregated in
    replication order.
    """
    if config.algorithm == "bai":
        raise ConfigurationError("BAI runs produce identification results; use run_bai")
    start = time.perf_counter()
    rows = _map_replications(partial(run_replication, config), range(config.replications),
                             n_jobs)
    per_replication = np.vstack(rows)
    return RegretTrace(
        checkpoints=checkpoint_grid(config.horizon, config.checkpoints),
        per_replication=per_replication,
        config_digest=config.digest(),
        wall_clock=time.perf_counter() - start,
    )


def run_bai(config: ExperimentConfig, n_jobs: int | None = None) -> dict:
    """Execute BAI replications; returns success rate and pull statistics."""
    if config.algorithm != "bai":
        raise ConfigurationError("run_bai requires a bai config")
    start = time.perf_counter()
    rows = _map_replications(partial(run_replication, config), range(config.replications),
                             n_jobs)
    pulls = np.array([row["pulls"] for row in rows])
    return {
        "config_digest": config.digest(),
        "replications": config.replications,
        "success_rate": float(np.mean([row["success"] for row in rows])),
        "mean_pulls": float(pulls.mean()),
        "median_pulls": float(np.median(pulls)),
        "capped_runs": int(sum(row["capped"] for row in rows)),
        "wall_clock": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# slope fits


def fit_slope(trace, window: tuple[int, int] | None = None,
              last: int = 10) -> SlopeFit:
    """Least-squares fit of ln(mean regret) against ln(checkpoint).

    trace is a RegretTrace or a (checkpoints, values) pair.  window is a
    [start, end) index range into the checkpoint grid; by default the last
    `last` checkpoints are used.  Requires at least 4 points and strictly
    positive regrets in the window.
    """
    if isinstance(trace, RegretTrace):
        checkpoints, mean = trace.checkpoints, trace.mean
    else:
        checkpoints, mean = (np.asarray(a, dtype=float) for a in trace)
    n = mean.size
    if window is None:
        window = (max(n - last, 0), n)
    start, end = window
    if not (0 <= start < end <= n):
        raise ConfigurationError(f"invalid fit window {window} for {n} checkpoints")
    if end - start < 4:
        raise ConfigurationError("slope fit needs at least 4 checkpoints in the window")
    ts = checkpoints[start:end].astype(float)
    rs = mean[start:end]
    if np.any(rs <= 0):
        raise ConfigurationError(
            "nonpositive regret in fit window; widen the window or inspect the trace"
        )
    x = np.log(ts)
    y = np.log(rs)
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    residual = float(np.sqrt(residuals[0] / x.size)) if residuals.size else 0.0
    return SlopeFit(exponent=float(coeffs[0]), intercept=float(coeffs[1]),
                    residual=residual, window=(start, end))


# ---------------------------------------------------------------------------
# emission

CSV_HEADER = "checkpoint,mean_regret,std_regret,n_replications"


def output_dir(default: str = ".") -> str:
    return os.environ.get(OUTPUT_DIR_ENV, default)


def emit(obj, path: str, fmt: str = "csv") -> str:
    """Write a RegretTrace or SlopeFit to path as csv or json.

    Emission is byte-stable for identical inputs: floats use repr round-trip
    formatting and wall-clock diagnostics are excluded.
    """
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown emit format {fmt!r}")
    if isinstance(obj, RegretTrace):
        text = _trace_csv(obj) if fmt == "csv" else _trace_json(obj)
    elif isinstance(obj, SlopeFit):
        text = _fit_csv(obj) if fmt == "csv" else _fit_json(obj)
    else:
        raise ConfigurationError(f"cannot emit object of type {type(obj).__name__}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _trace_csv(trace: RegretTrace) -> str:
    lines = [CSV_HEADER]
    mean, std = trace.mean, trace.std
    for i, checkpoint in enumerate(trace.checkpoints):
        lines.append(
            f"{int(checkpoint)},{float(mean[i])!r},{float(std[i])!r},{trace.n_replications}"
        )
    return "\n".join(lines) + "\n"


def _trace_json(trace: RegretTrace) -> str:
    doc = {
        "config_digest": trace.config_digest,
        "n_replications": trace.n_replications,
        "checkpoints": [int(c) for c in trace.checkpoints],
        "mean_regret": [float(v) for v in trace.mean],
        "std_regret": [float(v) for v in trace.std],
        "per_replication": [[float(v) for v in row] for row in trace.per_replication],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fit_csv(fit: SlopeFit) -> str:
    return (
        "exponent,intercept,residual,window_start,window_end\n"
        f"{fit.exponent!r},{fit.intercept!r},{fit.residual!r},"
        f"{fit.window[0]},{fit.window[1]}\n"
    )


def _fit_json(fit: SlopeFit) -> str:
    doc = {
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "window": list(fit.window),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def trajectory_csv(rows, path: str) -> str:
    """Write per-round contextual records for offline coverage checks.

    Columns, in order: t, arm, reward, theta_0..theta_{d-1}, beta, contained
    (contained is 0/1 for the round's confidence-ellipsoid membership).
    """
    if not rows:
        raise ConfigurationError("empty trajectory")
    d = len(rows[0][3])
    header = ",".join(["t", "arm", "reward"] + [f"theta_{i}" for i in range(d)]
                      + ["beta", "contained"])
    lines = [header]
    for t, arm, reward, theta, beta, contained in rows:
        theta_cols = ",".join(repr(float(v)) for v in theta)
        lines.append(f"{int(t)},{int(arm)},{float(reward)!r},{theta_cols},"
                     f"{float(beta)!r},{int(bool(contained))}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def parse_trace_csv(text: str):
    """Read back an emitted trace CSV: (checkpoints, mean, std, n_replications)."""
    lines = [line for line in text.strip().splitlines() if line]
    if lines[0] != CSV_HEADER:
        raise ConfigurationError(f"unexpected CSV header {lines[0]!r}")
    cps, means, stds, n = [], [], [], None
    for line in lines[1:]:
        c, m, s, k = line.split(",")
        cps.append(int(c))
        means.append(float(m))
        stds.append(float(s))
        n = int(k)
    return np.asarray(cps), np.asarray(means), np.asarray(stds), n
