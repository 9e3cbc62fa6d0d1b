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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache, partial

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
from .mechanisms import DrawAhead, PrivacyParams, ReportNoise, derive_rng
from .reductions import (
    LdpBaiLearner,
    LdpMabLearner,
    OnePointConfig,
    PerturbedValue,
    TwoPointConfig,
    effective_loss_bound,
    one_point_round,
    two_point_round,
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
            if set(privacy) != {"epsilon", "delta"}:
                raise ConfigurationError("privacy needs both epsilon and delta")
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
        # building a replication runs every check a replication makes
        _ALGORITHMS[config.algorithm](config, None, None)
        return config

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {
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
# per-algorithm setups and the round loop
#
# A setup takes (config, rep, record), checks the config and returns
# step(t), which plays round t and returns its ground-truth loss or regret,
# and comparator(t), the hindsight-best total loss over rounds 1..t that a
# checkpoint subtracts from the accumulated total (0 where step already
# returns regret).  BAI's setup returns replicate(), its stop-rule loop.
# from_dict builds with rep None, where every stream is None (_stream).
# The context-free streams are DrawAheads (_stream), and so is the contextual
# environment's reward stream.  Its environment stream is a plain Generator
# (_generator) that draws its own blocks of arm normals, and its noise stream
# a ReportNoise (_stream) that draws blocks of report noise.
# Steps look library calls up at call time (module globals such as
# derive_rng and two_point_round, ctx.* attributes), so a caller that swaps
# them for timing wrappers sees every call.


def _no_comparator(t: int) -> float:
    return 0.0


def _generator(config: ExperimentConfig, rep: int | None, role: str):
    # None for rep None: the build that checks a config can then draw
    # nothing, and it loads no sampler module into the calling process
    return None if rep is None else derive_rng(config.base_seed, rep, role)


def _stream(config: ExperimentConfig, rep: int | None, role: str, kind=DrawAhead):
    rng = _generator(config, rep, role)
    return None if rng is None else kind(rng)


def _params(config: ExperimentConfig, *allowed) -> dict:
    _check_keys(config.algorithm_params, allowed, "algorithm_params")
    return config.algorithm_params


def _dim_and_point(env: dict, key: str, first: float):
    """(dim, env[key] as a dim-vector); the default point is first * e_1."""
    dim = int(env.get("dim", 0))
    if dim < 1:
        raise ConfigurationError("environment needs dim >= 1")
    point = env.get(key)
    if point is None:
        point = np.zeros(dim)
        point[0] = first
    point = np.asarray(point, dtype=float)
    if point.shape != (dim,):
        raise ConfigurationError(f"{key} must be a vector of dim = {dim} entries")
    return dim, point


def _bco_set_and_oracle(config: ExperimentConfig):
    env = config.environment
    _check_keys(env, ("kind", "dim", "radius", "x_star", "scale", "drift_norm"), "environment")
    radius = float(env.get("radius", 1.0))
    dim, x_star = _dim_and_point(env, "x_star", 0.3 * radius)
    dset = DecisionSet.ball(radius, dim=dim)
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


def _two_point_setup(config: ExperimentConfig, rep: int | None, record):
    dset, oracle = _bco_set_and_oracle(config)
    params = _params(config, "mode", "eta", "rho", "xi")
    mode = params.get("mode", "convex")
    if mode not in ("convex", "strongly_convex"):
        raise ConfigurationError("two-point mode must be convex or strongly_convex")
    t_config = TwoPointConfig.for_horizon(
        config.privacy, oracle.lipschitz, config.horizon, dset.inner_radius,
        eta=params.get("eta"), rho=params.get("rho"), xi=params.get("xi"),
    )
    mu = oracle.mu if mode == "strongly_convex" else 0.0
    learner = TwoPointBandit(dset, t_config.eta, t_config.rho, t_config.xi,
                             _stream(config, rep, "learner"), mu=mu)
    noise_rng = _stream(config, rep, "noise")

    def step(t):
        result = two_point_round(learner, lambda x: oracle.value(t, x), t_config, noise_rng)
        return 0.5 * (result.true_loss_1 + result.true_loss_2)

    return step, lambda t: oracle.optimum(t)[1]


def _one_point_setup(config: ExperimentConfig, rep: int | None, record):
    dset, oracle = _bco_set_and_oracle(config)
    params = _params(config, "eta", "rho", "xi")
    o_config = OnePointConfig(privacy=config.privacy, loss_bound=oracle.bound)
    bound = effective_loss_bound(oracle.bound, o_config.sigma, config.horizon)
    eta, rho, xi = FkmBandit.default_parameters(dset, config.horizon, bound)
    eta = params.get("eta", eta)
    rho = params.get("rho", rho)
    xi = params.get("xi", xi)
    learner = FkmBandit(dset, eta, rho, xi, _stream(config, rep, "learner"))
    noise_rng = _stream(config, rep, "noise")

    def step(t):
        return one_point_round(learner, lambda x: oracle.value(t, x), o_config,
                               noise_rng).true_loss

    return step, lambda t: oracle.optimum(t)[1]


def _mab_environment(config: ExperimentConfig, rep: int | None):
    """(environment, the best fixed arm's total loss over each prefix of an
    adversarial table; None for a stochastic environment)."""
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
        return StochasticMab(env["means"], _stream(config, rep, "environment")), None
    n_arms = int(env.get("n_arms", 0)) or len(env.get("means", []))
    if n_arms < 2:
        raise ConfigurationError("adversarial MAB needs n_arms >= 2")
    if kind == "adversarial_switching":
        return _switching_environment(
            n_arms, config.horizon,
            float(env.get("anchor_loss", 0.45)), float(env.get("dip_loss", 0.44)),
            float(env.get("off_loss", 0.65)), int(env.get("n_blocks", 10)),
        )
    if kind == "adversarial_fixed_gap":
        return _with_best_prefix(AdversarialMab.fixed_gap(
            n_arms, config.horizon,
            best_loss=float(env.get("best_loss", 0.3)), gap=float(env.get("gap", 0.2)),
        ))
    raise ConfigurationError(f"unknown MAB environment kind {kind!r}")


@lru_cache(maxsize=4)
def _switching_environment(n_arms, horizon, anchor_loss, dip_loss, off_loss, n_blocks):
    """The switching table and its best fixed arm's loss over each prefix,
    built once per parameter set and process; every replication of a config
    (and its validation) shares them, so the table is read-only."""
    env = AdversarialMab.switching(n_arms, horizon, anchor_loss=anchor_loss,
                                   dip_loss=dip_loss, off_loss=off_loss, n_blocks=n_blocks)
    env.table.flags.writeable = False
    return _with_best_prefix(env)


def _with_best_prefix(env: AdversarialMab):
    best_prefix = np.cumsum(env.table, axis=0).min(axis=1)
    best_prefix.flags.writeable = False
    return env, best_prefix


def _mab_setup(config: ExperimentConfig, rep: int | None, record):
    """Stochastic: expected regret per round.  Adversarial: the loss itself,
    less the best fixed arm's loss over each prefix at a checkpoint."""
    _params(config)
    env, best_prefix = _mab_environment(config, rep)
    learner = LdpMabLearner(config.privacy, env.k, _stream(config, rep, "learner"),
                            _stream(config, rep, "noise"))
    stochastic = best_prefix is None

    def step(t):
        arm = learner.propose()
        loss = env.sample(t, arm)
        learner.observe(loss)
        return env.instant_regret(arm) if stochastic else loss

    if stochastic:
        return step, _no_comparator
    return step, lambda t: float(best_prefix[t - 1])


def _bai_setup(config: ExperimentConfig, rep: int | None, record):
    """Bernoulli arms with the given reward means; replicate() runs
    lil'UCB's stop-rule loop: pull until the rule stops or max_pulls."""
    _check_keys(config.environment, ("reward_means",), "environment")
    means = [float(m) for m in config.environment.get("reward_means", ())]
    if not means or not all(0.0 <= m <= 1.0 for m in means):
        raise ConfigurationError("BAI needs reward_means, each in [0, 1]")
    true_best = int(np.argmax(means))
    params = _params(config, "gamma", "max_pulls", "eps_lil", "beta_lil", "lam_lil")
    gamma = float(params.get("gamma", 0.1))
    max_pulls = int(params.get("max_pulls", config.horizon))
    if max_pulls < 1:
        raise ConfigurationError("max_pulls must be >= 1")
    lil = LilUcbParams(**{key: float(params[key]) for key in ("eps_lil", "beta_lil", "lam_lil")
                          if key in params})
    env_rng = _stream(config, rep, "environment")
    learner = LdpBaiLearner(config.privacy, len(means), gamma, _stream(config, rep, "noise"), lil)

    def replicate() -> dict:
        pulls = 0
        while not learner.stopped and pulls < max_pulls:
            arm = learner.select()
            reward = float(env_rng.uniform() < means[arm])
            learner.observe(arm, reward)
            pulls += 1
        capped = not learner.stopped
        learner.force_stop()
        return {
            "best": int(learner.best),
            "true_best": true_best,
            "success": bool(learner.best == true_best),
            "pulls": pulls,
            "capped": capped,
        }

    return replicate


def _contextual_setup(config: ExperimentConfig, rep: int | None, record, glm: bool):
    env_doc = config.environment
    _check_keys(env_doc, ("dim", "n_arms", "theta_star", "link"), "environment")
    d, theta_star = _dim_and_point(env_doc, "theta_star", 1.0)
    n_arms = int(env_doc.get("n_arms", 10))
    params = _params(config, "alpha", "kappa", "zeta", "baseline_lambda")
    link = zeta = None
    if glm:
        link_name = env_doc.get("link", "logistic")
        if link_name != "logistic":
            raise ConfigurationError(f"unknown link {link_name!r}")
        link = ctx.logistic_link()
        zeta = params.get("zeta")
        zeta = 1.0 / math.sqrt(config.horizon) if zeta is None else float(zeta)
    alpha = float(params.get("alpha", 0.1))
    sigma = (ctx.glm_sigma if glm else ctx.linear_sigma)(config.privacy)
    if config.privacy is None:
        conf = ctx.BaselineConfidence(
            d, config.horizon, alpha, lam=float(params.get("baseline_lambda", 1.0)),
        )
    else:
        conf = ctx.LdpConfidence(sigma, d, config.horizon, alpha,
                                 kappa=float(params.get("kappa", 1.0)))
    env = ContextualEnv(theta_star, n_arms, _generator(config, rep, "environment"),
                        _stream(config, rep, "reward"), link=link)
    server = ctx.ServerState(d, conf)
    noise = _stream(config, rep, "noise", ReportNoise)

    def step(t):
        rnd = env.step(t)
        if glm:
            arm = ctx.glm_select_action(server, rnd.arms, link)
        else:
            arm = ctx.linear_select_action(server, rnd.arms)
        x = rnd.arms[arm]
        y = env.reward(arm)
        regret = env.instant_regret(rnd, arm)
        if glm:
            report = ctx.glm_local_report(x, y, server.theta_hat, link, sigma, noise)
            ctx.glm_server_update(server, report, zeta)
        else:
            ctx.linear_server_update(server, ctx.linear_local_report(x, y, sigma, noise))
        if record is not None:
            # is theta* in the round's confidence ellipsoid |theta - theta*|_V <= beta?
            beta = conf.beta_glm(t, link) if glm else conf.beta_linear(t)
            diff = server.theta_tilde - env.theta_star
            contained = float(diff @ server.reg @ diff) <= beta * beta
            record.append((t, arm, y, server.theta_tilde.copy(), beta, contained))
        return regret

    return step, _no_comparator


# algorithm -> setup(config, rep, record)
_ALGORITHMS = {
    "two_point_bco": _two_point_setup,
    "one_point_bco": _one_point_setup,
    "mab": _mab_setup,
    "bai": _bai_setup,
    "contextual_linear": partial(_contextual_setup, glm=False),
    "contextual_glm": partial(_contextual_setup, glm=True),
}


def run_replication(config: ExperimentConfig, rep: int, record: list | None = None):
    """Run replication rep: the regret at each checkpoint (a BAI config
    returns its identification result instead).

    record, for the contextual algorithms only, receives one
    (t, arm, reward, theta_tilde, beta, contained) row per round; it draws
    from no random stream, so the regrets are the same with and without it.
    """
    if record is not None and not config.algorithm.startswith("contextual_"):
        raise ConfigurationError(f"{config.algorithm} records no rounds")
    built = _ALGORITHMS[config.algorithm](config, rep, record)
    if config.algorithm == "bai":
        return built()
    step, comparator = built
    marks = set(int(c) for c in checkpoint_grid(config.horizon, config.checkpoints))
    acc = RegretAccumulator()
    out = []
    for t in range(1, config.horizon + 1):
        acc.add(step(t))
        if t in marks:
            out.append(acc.total - comparator(t))
    return np.asarray(out)


def default_jobs() -> int:
    env = os.environ.get("LDPBANDITS_JOBS")
    if env:
        return max(int(env), 1)
    return min(os.cpu_count() or 1, 8)


# The one process pool: (pid, n_jobs, executor).  It is forked at the first
# parallel call and reused by every later one with the same job count; the
# pid keeps a forked child off its parent's pool.  concurrent.futures' exit
# hook joins the workers when the interpreter exits.
_POOL: tuple[int, int, ProcessPoolExecutor] | None = None


def _executor(n_jobs: int) -> ProcessPoolExecutor:
    global _POOL
    pid = os.getpid()
    if _POOL is not None and _POOL[:2] == (pid, n_jobs):
        return _POOL[2]
    if _POOL is not None and _POOL[0] == pid:
        _POOL[2].shutdown()
    _POOL = (pid, n_jobs, ProcessPoolExecutor(max_workers=n_jobs))
    return _POOL[2]


def _map_replications(fn, args, n_jobs: int | None) -> list:
    """[fn(a) for a in args], over the process pool when n_jobs > 1 and
    there is more than one call; results are always in the order of args.

    The pool takes contiguous blocks of about len(args) / (4 n_jobs) calls,
    few enough round trips for short replications and enough blocks per
    worker to even out replications of uneven length.  A pool broken by a
    dead worker is dropped and the error raised; the next call builds a
    fresh one.
    """
    global _POOL
    n_jobs = default_jobs() if n_jobs is None else max(int(n_jobs), 1)
    args = list(args)
    if n_jobs == 1 or len(args) < 2:
        return [fn(a) for a in args]
    pool = _executor(n_jobs)
    try:
        return list(pool.map(fn, args, chunksize=max(len(args) // (4 * n_jobs), 1)))
    except BrokenProcessPool:
        _POOL = None
        pool.shutdown()
        raise


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
    """Write a RegretTrace to path as csv or json, or a SlopeFit or a run_bai
    result as json.

    Emission is byte-stable for identical inputs: floats use repr round-trip
    formatting and wall-clock diagnostics are excluded.
    """
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown emit format {fmt!r}")
    if isinstance(obj, RegretTrace):
        text = _trace_csv(obj) if fmt == "csv" else _trace_json(obj)
    elif isinstance(obj, SlopeFit) and fmt == "json":
        text = _fit_json(obj)
    elif isinstance(obj, dict) and fmt == "json":
        payload = {key: value for key, value in obj.items() if key != "wall_clock"}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        raise ConfigurationError(f"cannot emit a {type(obj).__name__} as {fmt}")
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


def _fit_json(fit: SlopeFit) -> str:
    doc = {
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "window": list(fit.window),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
