"""Black-box reductions that make a non-private bandit learner locally private.

One-point reduction: each round the learner's query is played, the user adds
N(0, sigma^2) with sigma = 2 B sqrt(2 ln(1.25/delta)) / epsilon to the single
observed loss value (B bounds |f|), and only the perturbed value reaches the
learner.

Two-point reduction: the user reports the difference of the two observed
values plus n_t . (x1 - x2) with a fresh n_t ~ N(0, sigma^2 I) and
sigma = 2 G sqrt(2 ln(1.25/delta)) / epsilon (G is the Lipschitz constant);
since x1 - x2 = 2 rho u_t the added scalar is N(0, 4 rho^2 sigma^2).

True losses are returned to the caller for regret bookkeeping only and are
never exposed to the learner; conversely the perturbed values are wrapped in
PerturbedValue, which the regret accumulator refuses.  Declared bounds (B, G)
are hard contracts: a breach raises instead of clipping, because clipping
would change the sensitivity the noise was calibrated for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blackbox import LilUcb, LilUcbParams, TsallisInf, TwoPointBandit
from .errors import ConfigurationError, ContractViolation
from .mechanisms import PrivacyParams, calibrate_gaussian

_BOUND_TOL = 1e-9


class PerturbedValue(float):
    """Taint marker for values that crossed the privacy barrier.

    Behaves as a float, so learners consume it transparently; regret
    accounting rejects it (see harness.RegretAccumulator).
    """


def _perturb(value: float, sigma: float, rng: np.random.Generator) -> PerturbedValue:
    """value + N(0, sigma^2) behind the privacy barrier; sigma = 0 draws nothing."""
    if sigma > 0.0:
        return PerturbedValue(value + rng.normal(0.0, sigma))
    return PerturbedValue(value)


def _unit_report(raw: float, sigma: float, rng: np.random.Generator,
                 what: str) -> PerturbedValue:
    """A [0, 1] loss or reward recentred to [-1/2, 1/2] and perturbed."""
    if not (-_BOUND_TOL <= raw <= 1.0 + _BOUND_TOL):
        raise ContractViolation(f"{what} {raw} outside [0, 1]")
    return _perturb(float(raw) - 0.5, sigma, rng)


def one_point_sigma(privacy: PrivacyParams | None, loss_bound: float) -> float:
    """sigma = 2 B sqrt(2 ln(1.25/delta)) / epsilon; 0 in baseline mode."""
    if privacy is None:
        return 0.0
    return calibrate_gaussian(privacy, 2.0 * loss_bound).sigma


def two_point_sigma(privacy: PrivacyParams | None, lipschitz: float) -> float:
    """sigma = 2 G sqrt(2 ln(1.25/delta)) / epsilon; 0 in baseline mode."""
    if privacy is None:
        return 0.0
    return calibrate_gaussian(privacy, 2.0 * lipschitz).sigma


def effective_loss_bound(loss_bound: float, sigma: float, horizon: int) -> float:
    """Range the black-box should be tuned for once noise is injected.

    All injected scalars stay within sigma * sqrt(2 ln(2 T^2)) simultaneously
    with probability 1 - 1/T, so the fed-back values live in
    |f| + that margin.  Passed explicitly to learner parameter schedules.
    """
    if sigma == 0.0:
        return loss_bound
    return loss_bound + sigma * math.sqrt(2.0 * math.log(2.0 * horizon * horizon))


@dataclass(frozen=True)
class OnePointConfig:
    """Noise calibration for the one-point reduction.  privacy=None is the
    non-private baseline (sigma = 0)."""

    privacy: PrivacyParams | None
    loss_bound: float
    sigma: float = field(init=False)

    def __post_init__(self):
        if self.loss_bound <= 0:
            raise ConfigurationError("loss bound must be positive")
        object.__setattr__(self, "sigma", one_point_sigma(self.privacy, self.loss_bound))


@dataclass(frozen=True)
class TwoPointConfig:
    """Noise calibration and schedule for the two-point reduction.

    Defaults follow the horizon-based schedule eta = 1/sqrt(T),
    rho = ln(T)/T, xi = rho / r.
    """

    privacy: PrivacyParams | None
    lipschitz: float
    horizon: int
    eta: float
    rho: float
    xi: float
    sigma: float = field(init=False)

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ConfigurationError("Lipschitz constant must be positive")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        object.__setattr__(self, "sigma", two_point_sigma(self.privacy, self.lipschitz))

    @staticmethod
    def for_horizon(privacy, lipschitz, horizon, inner_radius,
                    eta=None, rho=None, xi=None) -> "TwoPointConfig":
        if horizon < 2:
            raise ConfigurationError("horizon must be >= 2 for the default schedule")
        rho = math.log(horizon) / horizon if rho is None else rho
        eta = 1.0 / math.sqrt(horizon) if eta is None else eta
        xi = rho / inner_radius if xi is None else xi
        return TwoPointConfig(privacy=privacy, lipschitz=lipschitz, horizon=horizon,
                              eta=eta, rho=rho, xi=xi)


@dataclass(frozen=True)
class OnePointRound:
    action: np.ndarray | int
    true_loss: float
    feedback: PerturbedValue


@dataclass(frozen=True)
class TwoPointRound:
    x1: np.ndarray
    x2: np.ndarray
    true_loss_1: float
    true_loss_2: float
    feedback: PerturbedValue


def one_point_round(learner, loss_fn: Callable[[np.ndarray], float],
                    config: OnePointConfig, noise_rng: np.random.Generator) -> OnePointRound:
    """Play one round of the one-point reduction.

    learner must expose propose() -> action and observe(feedback).  loss_fn
    evaluates the current round's true loss at the played action; its value
    must respect the declared bound.
    """
    action = learner.propose()
    true_loss = float(loss_fn(action))
    if abs(true_loss) > config.loss_bound + _BOUND_TOL:
        raise ContractViolation(
            f"loss {true_loss} exceeds declared bound {config.loss_bound}; "
            "noise calibration would be void"
        )
    feedback = _perturb(true_loss, config.sigma, noise_rng)
    learner.observe(feedback)
    return OnePointRound(action=action, true_loss=true_loss, feedback=feedback)


def two_point_round(learner: TwoPointBandit, loss_fn: Callable[[np.ndarray], float],
                    config: TwoPointConfig, noise_rng: np.random.Generator) -> TwoPointRound:
    """Play one round of the two-point reduction.

    The learner receives f(x1) - f(x2) + n . (x1 - x2); the raw difference is
    checked against the 2 rho G sensitivity bound before perturbation.
    """
    x1, x2 = learner.queries()
    f1 = float(loss_fn(x1))
    f2 = float(loss_fn(x2))
    raw = f1 - f2
    if abs(raw) > 2.0 * config.rho * config.lipschitz + _BOUND_TOL:
        raise ContractViolation(
            f"|f(x1) - f(x2)| = {abs(raw)} exceeds 2 rho G = "
            f"{2.0 * config.rho * config.lipschitz}; Lipschitz contract breached"
        )
    if config.sigma > 0.0:
        n = noise_rng.normal(0.0, config.sigma, size=x1.shape)
        feedback = PerturbedValue(raw + float(n @ (x1 - x2)))
    else:
        feedback = PerturbedValue(raw)
    learner.update(feedback)
    return TwoPointRound(x1=x1, x2=x2, true_loss_1=f1, true_loss_2=f2, feedback=feedback)


# ---------------------------------------------------------------------------
# concrete wraps: MAB and BAI

MAB_LOSS_BOUND = 0.5  # losses in [0, 1] recentred to [-1/2, 1/2]


class LdpMabLearner:
    """One-point reduction around Tsallis-INF for losses in [0, 1].

    Raw losses are recentred to [-0.5, 0.5] (bound B = 0.5, sensitivity 2B),
    perturbed with sigma = sqrt(2 ln(1.25/delta)) / epsilon and fed to the
    importance-weighted update.  Arms are indices (basis vectors of the
    simplex of linear losses).
    """

    def __init__(self, privacy: PrivacyParams | None, n_arms: int,
                 learner_rng: np.random.Generator, noise_rng: np.random.Generator):
        self.config = OnePointConfig(privacy=privacy, loss_bound=MAB_LOSS_BOUND)
        self.sigma = self.config.sigma
        self.inner = TsallisInf(n_arms, learner_rng)
        self.noise_rng = noise_rng
        self._pending: tuple[int, float] | None = None

    def propose(self) -> int:
        arm, prob = self.inner.sample()
        self._pending = (arm, prob)
        return arm

    def observe(self, raw_loss: float):
        if self._pending is None:
            raise ContractViolation("observe() before propose()")
        feedback = _unit_report(raw_loss, self.sigma, self.noise_rng, "MAB loss")
        arm, prob = self._pending
        self._pending = None
        self.inner.update(arm, feedback, prob)


class LdpBaiLearner:
    """One-point reduction around lil'UCB for rewards in [0, 1].

    Rewards are recentred by -0.5 and perturbed exactly as in the MAB wrap;
    lil'UCB runs with the inflated variance proxy 1/4 + sigma^2 (a [0, 1]
    reward is 1/4-sub-Gaussian and the added noise contributes sigma^2).
    """

    def __init__(self, privacy: PrivacyParams | None, n_arms: int, gamma: float,
                 noise_rng: np.random.Generator, params: LilUcbParams | None = None):
        self.config = OnePointConfig(privacy=privacy, loss_bound=MAB_LOSS_BOUND)
        self.sigma = self.config.sigma
        self.variance_proxy = 0.25 + self.sigma**2
        self.inner = LilUcb(n_arms, gamma, self.variance_proxy, params)
        self.noise_rng = noise_rng

    @property
    def stopped(self) -> bool:
        return self.inner.stopped

    @property
    def best(self):
        return self.inner.best

    @property
    def total_pulls(self) -> int:
        return self.inner.total_pulls

    def select(self) -> int:
        return self.inner.select()

    def observe(self, arm: int, raw_reward: float):
        self.inner.update(arm, _unit_report(raw_reward, self.sigma, self.noise_rng,
                                            "BAI reward"))

    def force_stop(self):
        self.inner.force_stop()
