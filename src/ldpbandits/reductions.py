"""Black-box reductions that make a non-private bandit learner locally private.

One-point reduction: each round the learner's query is played, the user adds
N(0, sigma^2) with sigma = 2 B sqrt(2 ln(1.25/delta)) / epsilon to the single
observed loss value (B bounds |f|), and only the perturbed value reaches the
learner.

Two-point reduction: the user reports the difference of the two observed
values plus n_t . (x1 - x2) with a fresh n_t ~ N(0, sigma^2 I) and
sigma = 2 G sqrt(2 ln(1.25/delta)) / epsilon (G is the Lipschitz constant);
since x1 - x2 = 2 rho u_t the added scalar is N(0, 4 rho^2 sigma^2).  Both are
one ScalarReport: a bound (B, or G per unit of query spread) and its sigma.

True losses are returned to the caller for regret bookkeeping only and are
never exposed to the learner; conversely the perturbed values are wrapped in
PerturbedValue, which the regret accumulator refuses.  Declared bounds (B, G)
are hard contracts: a breach raises instead of clipping, because clipping
would change the sensitivity the noise was calibrated for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import sub
from typing import Callable, NamedTuple

import numpy as np

from .blackbox import LilUcb, LilUcbParams, TsallisInf, TwoPointBandit
from .errors import ConfigurationError, ContractViolation
from .mechanisms import DrawAhead, PrivacyParams, calibrate_gaussian, perturb_scalar

_BOUND_TOL = 1e-9


class PerturbedValue(float):
    """Taint marker for values that crossed the privacy barrier.

    Behaves as a float, so learners consume it transparently; regret
    accounting rejects it (see harness.RegretAccumulator).
    """


def _unit_report(raw: float, sigma: float, rng: DrawAhead,
                 what: str) -> PerturbedValue:
    """A [0, 1] loss or reward recentred to [-1/2, 1/2] and perturbed."""
    if not (-_BOUND_TOL <= raw <= 1.0 + _BOUND_TOL):
        raise ContractViolation(f"{what} {raw} outside [0, 1]")
    return PerturbedValue(perturb_scalar(float(raw) - 0.5, sigma, rng))


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
class ScalarReport:
    """Noise calibration for a scalar report: sigma = 2 bound sqrt(2 ln(1.25/delta))
    / epsilon, 0 for privacy=None (the non-private baseline).  The bound is B
    for a one-point report and G per unit of query spread for a two-point one."""

    privacy: PrivacyParams | None
    bound: float
    sigma: float = field(init=False)

    def __post_init__(self):
        if self.bound <= 0:
            raise ConfigurationError("report bound must be positive")
        sigma = 0.0 if self.privacy is None else calibrate_gaussian(self.privacy, 2.0 * self.bound)
        object.__setattr__(self, "sigma", sigma)


# A round's record holds its query points as arrays; the learners work on
# lists of floats.  Named tuples: immutable, and cheaper to build per round
# than frozen dataclasses.


class OnePointRound(NamedTuple):
    action: np.ndarray
    true_loss: float
    feedback: PerturbedValue


class TwoPointRound(NamedTuple):
    x1: np.ndarray
    x2: np.ndarray
    true_loss_1: float
    true_loss_2: float
    feedback: PerturbedValue


def one_point_round(learner, loss_fn: Callable[[list[float]], float],
                    report: ScalarReport, noise_rng: DrawAhead) -> OnePointRound:
    """Play one round of the one-point reduction.

    learner must expose propose() -> action and observe(feedback).  loss_fn
    evaluates the current round's true loss at the played action; its value
    must respect the declared bound.
    """
    action = learner.propose()
    true_loss = float(loss_fn(action))
    if abs(true_loss) > report.bound + _BOUND_TOL:
        raise ContractViolation(
            f"loss {true_loss} exceeds declared bound {report.bound}; "
            "noise calibration would be void"
        )
    feedback = PerturbedValue(perturb_scalar(true_loss, report.sigma, noise_rng))
    learner.observe(feedback)
    return OnePointRound(action=np.array(action), true_loss=true_loss, feedback=feedback)


def two_point_round(learner: TwoPointBandit, loss_fn: Callable[[list[float]], float],
                    report: ScalarReport, noise_rng: DrawAhead) -> TwoPointRound:
    """Play one round of the two-point reduction.

    The learner receives f(x1) - f(x2) + n . (x1 - x2); the raw difference is
    checked against the 2 rho G sensitivity bound (G = report.bound, rho the
    learner's) before perturbation.
    x1 - x2 is taken elementwise and the noise dot summed left to right.
    """
    x1, x2 = learner.queries()
    f1 = float(loss_fn(x1))
    f2 = float(loss_fn(x2))
    raw = f1 - f2
    if abs(raw) > 2.0 * learner.rho * report.bound + _BOUND_TOL:
        raise ContractViolation(
            f"|f(x1) - f(x2)| = {abs(raw)} exceeds 2 rho G = "
            f"{2.0 * learner.rho * report.bound}; Lipschitz contract breached"
        )
    direction = list(map(sub, x1, x2))
    feedback = PerturbedValue(perturb_scalar(raw, report.sigma, noise_rng, direction=direction))
    learner.update(feedback)
    return TwoPointRound(x1=np.array(x1), x2=np.array(x2), true_loss_1=f1, true_loss_2=f2,
                         feedback=feedback)


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
                 learner_rng: DrawAhead, noise_rng: DrawAhead):
        self.sigma = ScalarReport(privacy, MAB_LOSS_BOUND).sigma
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
                 noise_rng: DrawAhead, params: LilUcbParams | None = None):
        self.sigma = ScalarReport(privacy, MAB_LOSS_BOUND).sigma
        self.variance_proxy = 0.25 + self.sigma**2
        self.inner = LilUcb(n_arms, gamma, self.variance_proxy, params)
        self.noise_rng = noise_rng

    @property
    def stopped(self) -> bool:
        return self.inner.stopped

    @property
    def best(self):
        return self.inner.best

    def select(self) -> int:
        return self.inner.select()

    def observe(self, arm: int, raw_reward: float):
        self.inner.update(arm, _unit_report(raw_reward, self.sigma, self.noise_rng,
                                            "BAI reward"))

    def force_stop(self):
        self.inner.force_stop()
