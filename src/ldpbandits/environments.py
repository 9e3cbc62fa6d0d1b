"""Synthetic seeded environments with analytically declared bounds.

Every environment states the bounds its values respect (loss range, |f| <= B,
gradient norm <= G, arm norms, reward noise range); the declared constants
feed the noise calibrations, so they are enforced rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

import numpy as np

from .blackbox import DecisionSet, _dot, _norm
from .errors import ConfigurationError, ContractViolation
from .mechanisms import DrawAhead, _block_rounds


# ---------------------------------------------------------------------------
# multi-armed bandits


class StochasticMab:
    """Bernoulli losses with fixed means in [0, 1]."""

    def __init__(self, means, rng: DrawAhead):
        self.means = np.asarray(means, dtype=float)
        if (self.means.ndim != 1 or self.means.size == 0
                or not np.all((0 <= self.means) & (self.means <= 1))):
            raise ConfigurationError("arm means must be a nonempty vector in [0, 1]")
        self.k = self.means.size
        self.rng = rng
        self.best_mean = float(self.means.min())
        self._means = self.means.tolist()

    def sample(self, t: int, arm: int) -> float:
        if not (0 <= arm < self.k):
            raise ContractViolation(f"arm {arm} out of range [0, {self.k})")
        return float(self.rng.uniform() < self._means[arm])

    def instant_regret(self, arm: int) -> float:
        """Expected suboptimality gap of the pulled arm."""
        return float(self.means[arm] - self.best_mean)


class AdversarialMab:
    """An oblivious loss table in [0, 1]^(T x K), fixed before the game."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise ConfigurationError("loss table must be T x K")
        if not np.all((0 <= table) & (table <= 1)):
            raise ConfigurationError("adversarial losses must lie in [0, 1]")
        self.table = table
        self.horizon, self.k = table.shape

    def sample(self, t: int, arm: int) -> float:
        """Loss of round t (1-based) for the chosen arm."""
        if not (0 <= arm < self.k):
            raise ContractViolation(f"arm {arm} out of range [0, {self.k})")
        return float(self.table[t - 1, arm])

    @staticmethod
    def switching(n_arms: int, horizon: int, anchor_loss: float = 0.45,
                  dip_loss: float = 0.44, off_loss: float = 0.65,
                  n_blocks: int = 10) -> "AdversarialMab":
        """Best arm alternates every horizon/n_blocks rounds.

        Arm 0 holds a constant anchor loss; in each block one of the other
        arms dips just below it (so the per-block best arm rotates) while the
        remaining arms sit at a high loss.  Arm 0 stays the best fixed arm in
        hindsight, and the shallow dips keep the alternation from being
        exploitable.
        """
        if n_arms < 2:
            raise ConfigurationError("switching sequence needs at least 2 arms")
        if not (dip_loss < anchor_loss < off_loss):
            raise ConfigurationError("need dip_loss < anchor_loss < off_loss")
        if n_blocks < 1:
            raise ConfigurationError("switching sequence needs n_blocks >= 1")
        block = max(horizon // n_blocks, 1)
        table = np.full((horizon, n_arms), off_loss)
        table[:, 0] = anchor_loss
        t = np.arange(horizon)
        table[t, 1 + np.minimum(t // block, n_blocks - 1) % (n_arms - 1)] = dip_loss
        return AdversarialMab(table)


# ---------------------------------------------------------------------------
# convex losses with one- or two-point value access


class QuadraticOracle:
    """f(x) = scale * |x - x_star|^2, the same loss in every round.

    B, G and the strong-convexity modulus are exact on the given set.  Values
    follow blackbox's fixed rule: elementwise differences, then the dot
    summed left to right.
    """

    def __init__(self, x_star, dset: DecisionSet, scale: float = 1.0):
        self.x_star = np.asarray(x_star, dtype=float)
        if not dset.contains(self.x_star):
            raise ConfigurationError("minimizer must lie inside the decision set")
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        self.dset = dset
        self.scale = float(scale)
        self._x_star = self.x_star.tolist()
        reach = dset.radius + _norm(self._x_star)
        self.bound = self.scale * reach**2
        self.lipschitz = 2.0 * self.scale * reach
        self.mu = 2.0 * self.scale

    def value(self, x) -> float:
        """f at x, a sequence of floats."""
        if not self.dset.contains(x, tol=1e-7):
            raise ContractViolation("query outside the decision set")
        diff = list(map(sub, x, self._x_star))
        return self.scale * _dot(diff, diff)

    def optimum(self, horizon: int) -> tuple[np.ndarray, float]:
        """(argmin, minimal cumulative loss) of horizon rounds of f over the set."""
        return self.x_star.copy(), 0.0


# ---------------------------------------------------------------------------
# contextual worlds


@dataclass(slots=True)
class ContextualRound:
    arms: np.ndarray
    scores: list[float]  # x . theta_star of each arm
    best_score: float  # their max


class ContextualEnv:
    """Per-round arm sets in the unit ball with linear or link-shaped rewards.

    Linear law: y = x . theta_star + eta with eta uniform on [-1, 1]
    (mean zero, |eta| <= 1, |y| <= 2).  GLM law: y is the Bernoulli draw with
    success probability g(x . theta_star), i.e. the noise is 1 - g(a) with
    probability g(a) and -g(a) otherwise.

    Arms and rewards come from two streams.  An arm takes d + 2 standard
    normals from rng, in round and arm order, and is the first d of them over
    the norm of all d + 2: a point uniform in the d-ball (Voelker, Gosmann and
    Stewart 2017).  A reward takes the next uniform of rewards.  No arm draw
    depends on the learner, so step places a block of arm sets at once
    (mechanisms._block_rounds of K (d + 2) normals: 256 rounds, about 170 KB,
    at K = 10, d = 3), and the block size changes no bit.  Norms and scores
    x . theta_star are summed column by column, left to right, and the best
    score is a row max, so every arm and score comes from correctly rounded
    elementwise steps and does not depend on the host's SIMD loops or BLAS
    kernel.  A round's scores are computed once; reward and instant_regret
    read them, and only there does a GLM apply its link, once to the paid
    arm's score: instant_regret reuses the mean that reward paid out for the
    same round and arm.
    """

    def __init__(self, theta_star, n_arms: int, rng: np.random.Generator,
                 rewards: DrawAhead, link=None):
        self.theta_star = np.asarray(theta_star, dtype=float)
        if np.linalg.norm(self.theta_star) > 1.0 + 1e-12:
            raise ConfigurationError("theta_star must lie in the unit ball")
        if n_arms < 1:
            raise ConfigurationError("need at least one arm")
        self.k = n_arms
        self.d = self.theta_star.size
        self.rng = rng
        self.rewards = rewards
        self.link = link
        # the current block, drawn at the first step; _open is the scores of
        # the round the last step opened, None once its reward is drawn, and
        # _paid the (scores, arm, mean) of the last reward
        self._scores: list[list[float]] = []
        self._next = 0
        self._open = None
        self._paid = (None, None, None)

    def _mean_value(self, a: float) -> float:
        return self.link.g(a) if self.link is not None else a

    def _draw_block(self):
        d, theta = self.d, self.theta_star.tolist()
        g = self.rng.standard_normal((_block_rounds(self.k * (d + 2)), self.k, d + 2))
        square = g * g
        norm_squared = square[..., 0]
        for j in range(1, d + 2):
            norm_squared = norm_squared + square[..., j]
        # a fresh array for every block: a caller may keep a round's arms
        arms = g[..., :d] / np.sqrt(norm_squared)[..., None]
        scores = arms[..., 0] * theta[0]
        for j in range(1, d):
            scores = scores + arms[..., j] * theta[j]
        self._arms = arms
        self._scores = scores.tolist()
        # + 0.0: a row max of signed zeros is 0.0, whichever one the loop keeps
        self._best = (scores.max(axis=1) + 0.0).tolist()
        self._next = 0

    def step(self, t: int) -> ContextualRound:
        if self._next == len(self._scores):
            self._draw_block()
        i = self._next
        self._next = i + 1
        self._open = scores = self._scores[i]
        return ContextualRound(arms=self._arms[i], scores=scores, best_score=self._best[i])

    def reward(self, arm: int) -> float:
        """The reward of arm in the round the last step opened; once per round."""
        scores = self._open
        if scores is None:
            raise ContractViolation("reward needs a round opened by step, once per round")
        self._open = None
        a, u = scores[arm], self.rewards.uniform()
        if self.link is None:
            return a + (-1.0 + 2.0 * u)  # rng.uniform(-1.0, 1.0)'s formula
        mean = self.link.g(a)
        self._paid = (scores, arm, mean)
        return float(u < mean)

    def instant_regret(self, rnd: ContextualRound, arm: int) -> float:
        paid_scores, paid_arm, mean = self._paid
        if rnd.scores is not paid_scores or arm != paid_arm:
            mean = self._mean_value(rnd.scores[arm])
        return self._mean_value(rnd.best_score) - mean
