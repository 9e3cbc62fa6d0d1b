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

import atexit
import json
import math
import os
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import contextual as ctx
from .blackbox import DecisionSet, FkmBandit, LilUcbParams, TwoPointBandit
from .environments import (
    AdversarialMab,
    ContextualEnv,
    QuadraticOracle,
    StochasticMab,
)
from .errors import ConfigurationError, ContractViolation
from .mechanisms import DrawAhead, PrivacyParams, ReportNoise, derive_rng
from .reductions import (
    LdpBaiLearner,
    LdpMabLearner,
    PerturbedValue,
    ScalarReport,
    effective_loss_bound,
    one_point_round,
    two_point_round,
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


# ---------------------------------------------------------------------------
# the config schema, one row per field.  section "" is the top level; a row holds for its
# algorithms (None: all), and a case names the one environment kind or privacy mode it holds
# for.  A default of None is derived by the setup; range is a rule of _RANGES (kept by each
# entry of a list) or a str's choices.  Ranges that a constructor checks are left to it.

REQUIRED = object()  # the default of a field that a document must give
_Field = namedtuple("_Field", "section algorithms case name type default range")
_BCO = ("two_point_bco", "one_point_bco")
_CONTEXTUAL = ("contextual_linear", "contextual_glm")
_SWITCHING = "adversarial_switching"

SCHEMA = [_Field(*row) for row in [
    ("", None, None, "algorithm", str, REQUIRED, _BCO + ("mab", "bai") + _CONTEXTUAL),
    ("", None, None, "horizon", int, REQUIRED, ">= 1"),
    ("", None, None, "replications", int, REQUIRED, ">= 1"),
    ("", None, None, "base_seed", int, REQUIRED, ">= 0"),
    ("", None, None, "environment", dict, REQUIRED, None),
    ("", None, None, "algorithm_params", dict, {}, None),
    ("", None, None, "privacy", dict, None, None),
    ("", None, None, "checkpoints", int, 20, ">= 1"),
    ("privacy", None, None, "epsilon", float, REQUIRED, None),
    ("privacy", None, None, "delta", float, REQUIRED, None),
    ("environment", _BCO, None, "kind", str, "quadratic", ("quadratic",)),
    ("environment", _BCO + _CONTEXTUAL, None, "dim", int, REQUIRED, ">= 1"),
    ("environment", _BCO, None, "radius", float, 1.0, None),
    ("environment", _BCO, None, "x_star", list, None, None),
    ("environment", _BCO, None, "scale", float, 1.0, None),
    ("environment", ("mab",), None, "kind", str, "stochastic", ("stochastic", _SWITCHING)),
    ("environment", ("mab",), "stochastic", "means", list, REQUIRED, None),
    ("environment", ("mab",), _SWITCHING, "n_arms", int, REQUIRED, None),
    ("environment", ("mab",), _SWITCHING, "anchor_loss", float, 0.45, None),
    ("environment", ("mab",), _SWITCHING, "dip_loss", float, 0.44, None),
    ("environment", ("mab",), _SWITCHING, "off_loss", float, 0.65, None),
    ("environment", ("mab",), _SWITCHING, "n_blocks", int, 10, None),
    ("environment", ("bai",), None, "reward_means", list, REQUIRED, "in [0, 1]"),
    ("environment", _CONTEXTUAL, None, "n_arms", int, 10, None),
    ("environment", _CONTEXTUAL, None, "theta_star", list, None, None),
    ("environment", ("contextual_glm",), None, "link", str, "logistic", ("logistic",)),
    ("algorithm_params", ("two_point_bco",), None, "mode", str, "convex",
     ("convex", "strongly_convex")),
    ("algorithm_params", _BCO, None, "eta", float, None, None),
    ("algorithm_params", _BCO, None, "rho", float, None, None),
    ("algorithm_params", _BCO, None, "xi", float, None, None),
    ("algorithm_params", ("bai",), None, "gamma", float, 0.1, None),
    ("algorithm_params", ("bai",), None, "eps_lil", float, LilUcbParams.eps_lil, None),
    ("algorithm_params", ("bai",), None, "beta_lil", float, LilUcbParams.beta_lil, None),
    ("algorithm_params", ("bai",), None, "lam_lil", float, LilUcbParams.lam_lil, None),
    ("algorithm_params", _CONTEXTUAL, None, "alpha", float, 0.1, None),
    ("algorithm_params", _CONTEXTUAL, "private", "kappa", float, 1.0, None),
    ("algorithm_params", _CONTEXTUAL, "non_private", "baseline_lambda", float, 1.0, None),
    ("algorithm_params", ("contextual_glm",), None, "zeta", float, None, "> 0"),
]]
_RANGES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0,
           "in [0, 1]": lambda v: 0 <= v <= 1}


def _finite(value) -> bool:
    try:
        return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past every float
        return False


_TYPES = {  # type -> (what a value must be, its test, its conversion)
    int: ("an integer", lambda v: _finite(v) and float(v).is_integer(), int),
    float: ("a finite number", _finite, float),
    list: ("a nonempty list of finite numbers", lambda v: isinstance(v, (list, tuple))
           and len(v) > 0 and all(map(_finite, v)), lambda v: [float(x) for x in v]),
    dict: ("an object", lambda v: isinstance(v, dict), dict),
}


def _value(row: _Field, value):
    """value (row.default where the document gives none) checked as row."""
    name = f"{row.section}.{row.name}".lstrip(".")
    if value is REQUIRED:
        raise ConfigurationError(f"missing required config key {name}")
    if value is None and row.default is None:
        return None
    if row.type is str:
        if not isinstance(value, str) or value not in row.range:
            raise ConfigurationError(f"unknown {name} {value!r}; expected one of {row.range}")
        return value
    what, valid, convert = _TYPES[row.type]
    if not valid(value):
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    value = convert(value)
    if row.range and not all(map(_RANGES[row.range], value if row.type is list else [value])):
        raise ConfigurationError(f"{name} must be {row.range}, got {value!r}")
    return value


def _check(section: str, doc: dict, algorithm: str | None = None, mode: str | None = None):
    """doc's fields of section, checked against the SCHEMA rows of the
    algorithm, the privacy mode and doc's own kind, defaults filled in."""
    rows = [row for row in SCHEMA if row.section == section
            and (row.algorithms is None or algorithm in row.algorithms)]
    kind = next((_value(row, doc.get("kind", row.default)) for row in rows
                 if row.name == "kind"), None)
    rows = {row.name: row for row in rows if row.case in (None, kind, mode)}
    unknown = sorted(f"{section}.{key}".lstrip(".") for key in doc if key not in rows)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    return {name: _value(row, doc.get(name, row.default)) for name, row in rows.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment, built by from_dict.  environment, algorithm_params and privacy keep the
    document's own values for to_dict; env and params, which the setups read, are those
    sections checked against SCHEMA with its defaults filled in."""

    algorithm: str
    horizon: int
    replications: int
    base_seed: int
    environment: dict
    algorithm_params: dict
    privacy: PrivacyParams | None
    checkpoints: int
    env: dict = field(compare=False, repr=False)
    params: dict = field(compare=False, repr=False)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"a config must be an object, got {doc!r}")
        top = _check("", doc)
        algorithm, privacy = top["algorithm"], top["privacy"]
        mode = "non_private" if privacy is None else "private"
        if privacy is not None:
            _check("privacy", privacy)
            # the document's own numbers: {"epsilon": 2} digests unlike 2.0
            top["privacy"] = PrivacyParams(**privacy)
        config = ExperimentConfig(
            **top, env=_check("environment", top["environment"], algorithm, mode),
            params=_check("algorithm_params", top["algorithm_params"], algorithm, mode))
        # building a replication runs every check a replication makes
        _ALGORITHMS[algorithm](config, None, None)
        return config

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"config is not JSON: {err}") from err
        return ExperimentConfig.from_dict(doc)

    def to_dict(self) -> dict:
        doc = {row.name: getattr(self, row.name) for row in SCHEMA if not row.section}
        return dict(doc, privacy=self.privacy and asdict(self.privacy))

    def digest(self) -> str:
        import hashlib
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
# A setup takes (config, rep, record), reads config.env and config.params and returns
# step(t), which plays round t and returns its ground-truth loss or regret,
# and comparator(t), the hindsight-best total loss over rounds 1..t that a
# checkpoint subtracts from the accumulated total (0 where step already
# returns regret).  BAI's setup returns replicate(), its stop-rule loop.
# from_dict builds with rep None, where every stream is None (_stream).
# The context-free streams are DrawAheads (_stream), and so is the contextual
# environment's reward stream.  Its environment stream is a plain Generator
# (_generator) that draws its own blocks of arm normals, and its noise stream
# a ReportNoise (_stream) that draws blocks of report noise; every block is
# sized by the one rule in mechanisms (DRAW_AHEAD, _block_rounds).
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


def _dim_and_point(env: dict, key: str, first: float):
    """(dim, env[key] as a dim-vector); the default point is first * e_1."""
    dim, point = env["dim"], env[key]
    point = np.asarray([first] + [0.0] * (dim - 1) if point is None else point, dtype=float)
    if point.shape != (dim,):
        raise ConfigurationError(f"environment.{key} must be a vector of dim = {dim} entries")
    return dim, point


def _bco_set_and_oracle(config: ExperimentConfig):
    env = config.env
    dim, x_star = _dim_and_point(env, "x_star", 0.3 * env["radius"])
    dset = DecisionSet.ball(env["radius"], dim=dim)
    return dset, QuadraticOracle(x_star, dset, scale=env["scale"])


def _schedule(config: ExperimentConfig, defaults) -> list:
    """The document's eta, rho and xi, each one it leaves out taken from
    defaults, the learner's default schedule; deriving one needs T >= 2."""
    given = [config.params[key] for key in ("eta", "rho", "xi")]
    if None in given and config.horizon < 2:
        raise ConfigurationError("horizon must be >= 2 for the default schedule")
    return [default if value is None else value for value, default in zip(given, defaults)]


def _two_point_setup(config: ExperimentConfig, rep: int | None, record):
    dset, oracle = _bco_set_and_oracle(config)
    report = ScalarReport(config.privacy, oracle.lipschitz)
    eta, rho, xi = _schedule(config, TwoPointBandit.default_parameters(
        dset, config.horizon, config.params["rho"]))
    mu = oracle.mu if config.params["mode"] == "strongly_convex" else 0.0
    learner = TwoPointBandit(dset, eta, rho, xi, _stream(config, rep, "learner"), mu=mu)
    noise_rng = _stream(config, rep, "noise")

    def step(t):
        result = two_point_round(learner, oracle.value, report, noise_rng)
        return 0.5 * (result.true_loss_1 + result.true_loss_2)

    return step, lambda t: oracle.optimum(t)[1]


def _one_point_setup(config: ExperimentConfig, rep: int | None, record):
    dset, oracle = _bco_set_and_oracle(config)
    report = ScalarReport(config.privacy, oracle.bound)
    bound = effective_loss_bound(oracle.bound, report.sigma, config.horizon)
    eta, rho, xi = _schedule(config, FkmBandit.default_parameters(dset, config.horizon, bound))
    learner = FkmBandit(dset, eta, rho, xi, _stream(config, rep, "learner"))
    noise_rng = _stream(config, rep, "noise")

    def step(t):
        return one_point_round(learner, oracle.value, report, noise_rng).true_loss

    return step, lambda t: oracle.optimum(t)[1]


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
    doc = config.env
    if doc["kind"] == "stochastic":
        env, best_prefix = StochasticMab(doc["means"], _stream(config, rep, "environment")), None
    else:
        env, best_prefix = _switching_environment(
            doc["n_arms"], config.horizon, doc["anchor_loss"], doc["dip_loss"], doc["off_loss"],
            doc["n_blocks"])
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
    lil'UCB's stop-rule loop: pull until the rule stops or horizon pulls."""
    means, params, max_pulls = config.env["reward_means"], config.params, config.horizon
    true_best = int(np.argmax(means))
    lil = LilUcbParams(params["eps_lil"], params["beta_lil"], params["lam_lil"])
    env_rng = _stream(config, rep, "environment")
    learner = LdpBaiLearner(config.privacy, len(means), params["gamma"],
                            _stream(config, rep, "noise"), lil)

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
    params = config.params
    d, theta_star = _dim_and_point(config.env, "theta_star", 1.0)
    link = zeta = None
    if glm:
        link = ctx.logistic_link()
        zeta = 1.0 / math.sqrt(config.horizon) if params["zeta"] is None else params["zeta"]
    sigma = (ctx.glm_sigma if glm else ctx.linear_sigma)(config.privacy)
    if config.privacy is None:
        conf = ctx.BaselineConfidence(d, config.horizon, params["alpha"],
                                      lam=params["baseline_lambda"])
    else:
        conf = ctx.LdpConfidence(sigma, d, config.horizon, params["alpha"], kappa=params["kappa"])
    env = ContextualEnv(theta_star, config.env["n_arms"],
                        _generator(config, rep, "environment"), _stream(config, rep, "reward"),
                        link=link)
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
    """LDPBANDITS_JOBS if set, else the CPUs this process may run on, at most 8."""
    env = os.environ.get("LDPBANDITS_JOBS")
    if not env:
        if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
            return min(len(os.sched_getaffinity(0)), 8)
        return min(os.cpu_count() or 1, 8)
    if not (env.strip().isdecimal() and int(env) >= 1):
        raise ConfigurationError(f"LDPBANDITS_JOBS must be an integer >= 1, got {env!r}")
    return int(env)


# The one process pool: (pid, n_jobs, executor).  It is forked at the first
# parallel call and reused by every later one with the same job count; the
# pid keeps a forked child off its parent's pool.  concurrent.futures' exit
# hook joins the workers at exit.  Both load at the first parallel call, and
# _drop_pool frees the executor before module teardown clears their globals.
_POOL: tuple | None = None


@atexit.register
def _drop_pool():
    global _POOL
    _POOL = None


def _executor(n_jobs: int):
    global _POOL
    from concurrent.futures import ProcessPoolExecutor
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
    from concurrent.futures.process import BrokenProcessPool
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
    rows = [(i, line.strip()) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    number, header = rows[0] if rows else (1, "")
    if header != CSV_HEADER:
        raise ConfigurationError(f"line {number}: {header!r} is not the header {CSV_HEADER!r}")
    cps, means, stds, n = [], [], [], None
    for number, line in rows[1:]:
        try:
            c, m, s, k = line.split(",")
            cps.append(int(c))
            means.append(float(m))
            stds.append(float(s))
            n = int(k)
        except ValueError:
            raise ConfigurationError(f"line {number}: {line!r} is not a row of the CSV") from None
    return np.asarray(cps), np.asarray(means), np.asarray(stds), n
