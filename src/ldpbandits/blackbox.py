"""Non-private black-box bandit learners used inside the private reductions.

Contains:
  * the decision set, a ball about the origin, with Euclidean projection,
  * two sphere-sampling gradient-descent learners that share one projected
    step onto the shrunken ball (1 - xi) * X: a one-point learner (estimator
    (d/rho) * loss * u for a uniform unit vector u) and a two-query learner
    (estimator (d/2 rho) * (f1 - f2) * u),
  * Tsallis-INF for multi-armed bandits (1/2-Tsallis regularizer,
    importance-weighted loss estimates),
  * lil'UCB for fixed-confidence best-arm identification.

Learner state is owned by a single actor; methods mutate the instance.  Any
number of independent learners can run concurrently.

The convex learners keep their points and directions as lists of Python
floats under one fixed rule: elementwise operations in the order of the
NumPy expressions they stand for, dots and norms summed left to right from
0.0 (never with builtin sum or math.fsum, whose rounding differs), then
math.sqrt.  Their bits therefore do not depend on the host's BLAS kernel or
SIMD width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .errors import ConfigurationError, ContractViolation, NumericalError
from .mechanisms import DrawAhead


# ---------------------------------------------------------------------------
# decision sets


@dataclass(frozen=True)
class DecisionSet:
    """The ball of the given radius about the origin of R^dim."""

    radius: float
    dim: int

    @staticmethod
    def ball(radius: float, dim: int) -> "DecisionSet":
        if radius <= 0:
            raise ConfigurationError("ball radius must be positive")
        if dim < 1:  # a learner on a 0-dim ball would redraw its direction forever
            raise ConfigurationError(f"ball needs dim >= 1, got {dim}")
        return DecisionSet(radius=float(radius), dim=int(dim))

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Is the point x (a sequence of floats) within the radius, up to tol?"""
        return _norm(x) <= self.radius + tol


def _dot(a, b) -> float:
    """a . b for two sequences of floats, summed left to right."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _norm(v) -> float:
    """Euclidean norm of an iterable of floats: the squares summed left to
    right, then math.sqrt."""
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def _project(p: list[float], r: float) -> list[float]:
    """The projection of p onto the ball of radius r about the origin; p
    itself when it lies inside."""
    norm = _norm(p)
    if norm <= r:
        return p
    scale = r / norm
    return [a * scale for a in p]


# ---------------------------------------------------------------------------
# sphere-sampling gradient descent


class _SphereDescent:
    """Projected gradient descent on the shrunken ball (1 - xi) * X, queried
    rho away from its point y along a uniform unit direction u.

    Every query stays inside X as long as rho <= xi * r.  y, u and the
    queries are lists of floats; t counts the rounds.
    """

    def __init__(self, dset: DecisionSet, eta: float, rho: float, xi: float,
                 rng: DrawAhead):
        if rho <= 0:
            raise ConfigurationError("rho must be positive")
        if not (0 <= xi < 1):
            raise ConfigurationError(f"xi must be in [0, 1), got {xi}")
        if rho > xi * dset.radius + 1e-12:
            raise ConfigurationError(
                f"infeasible exploration radius: rho={rho} exceeds "
                f"xi * r = {xi * dset.radius}; queries could exit the set"
            )
        self.d = dset.dim
        self.eta = float(eta)
        self.rho = float(rho)
        self.xi = float(xi)
        self.rng = rng
        self.y = [0.0] * self.d
        self.u = [0.0] * self.d
        self.t = 0
        self._radius = (1.0 - self.xi) * dset.radius

    def _next_direction(self) -> list[float]:
        """Count a round and draw its u: v / |v| for v the stream's next d
        standard normals, a v of norm at most 1e-12 drawn again."""
        self.t += 1
        while True:
            v = self.rng.normals(self.d)
            norm = _norm(v)
            if norm > 1e-12:
                self.u = u = [x / norm for x in v]
                return u

    def _step(self, eta: float, g: float):
        """y <- the projection of y - eta * (g * u) onto (1 - xi) * X."""
        self.y = _project([y - eta * (g * u) for y, u in zip(self.y, self.u)], self._radius)


class FkmBandit(_SphereDescent):
    """Gradient descent with the one-point estimator (d/rho) * loss * u.

    Per round: the center moves against the previous round's estimate, then a
    fresh uniform unit direction u is drawn and the query y + rho * u is
    played.
    """

    def __init__(self, dset: DecisionSet, eta: float, rho: float, xi: float,
                 rng: DrawAhead):
        if eta <= 0:
            raise ConfigurationError("eta must be positive")
        super().__init__(dset, eta, rho, xi, rng)

    @staticmethod
    def default_parameters(dset: DecisionSet, horizon: int, loss_bound: float):
        """Classical schedule: rho = r * T^(-1/4), xi = rho / r,
        eta = r / ((d * B / rho) * sqrt(T)).  loss_bound should be the
        effective bound of the fed-back values, noise included."""
        r = dset.radius
        rho = r * horizon ** -0.25
        xi = rho / r
        eta = r / ((dset.dim * loss_bound / rho) * math.sqrt(horizon))
        return eta, rho, xi

    def observe(self, feedback: float):
        # grad = (d / rho) * feedback * u
        self._step(self.eta, (self.d / self.rho) * float(feedback))

    def propose(self) -> list[float]:
        rho = self.rho
        return [y + rho * u for y, u in zip(self.y, self._next_direction())]


class TwoPointBandit(_SphereDescent):
    """Gradient descent fed by two symmetric queries per round.

    Queries are y + rho*u and y - rho*u; the update uses
    g = (d / 2 rho) * (value difference) * u.  With mu > 0 the step size is
    1/(mu * t), otherwise the fixed eta is used.
    """

    def __init__(self, dset: DecisionSet, eta: float, rho: float, xi: float,
                 rng: DrawAhead, mu: float = 0.0):
        super().__init__(dset, eta, rho, xi, rng)
        if mu < 0:
            raise ConfigurationError("mu must be nonnegative")
        if mu == 0.0 and eta <= 0:
            raise ConfigurationError("eta must be positive in the convex mode")
        self.mu = float(mu)
        self._pending = False

    @staticmethod
    def default_parameters(dset: DecisionSet, horizon: int, rho: float | None = None):
        """Horizon-based schedule: eta = 1/sqrt(T), rho = ln(T)/T, and
        xi = rho / r for the given rho, or for the default one."""
        rho = math.log(horizon) / horizon if rho is None else rho
        return 1.0 / math.sqrt(horizon), rho, rho / dset.radius

    def queries(self) -> tuple[list[float], list[float]]:
        """Draw a fresh unit direction and return (y + rho u, y - rho u)."""
        if self._pending:
            raise ContractViolation("queries() called twice without update()")
        rho = self.rho
        step = [rho * u for u in self._next_direction()]
        self._pending = True
        return list(map(add, self.y, step)), list(map(sub, self.y, step))

    def update(self, value_difference: float):
        """Descend along (d / 2 rho) * difference * u for the stored u."""
        if not self._pending:
            raise ContractViolation("update() called before queries()")
        self._pending = False
        eta_t = 1.0 / (self.mu * self.t) if self.mu > 0 else self.eta
        # grad = (d / 2 rho) * difference * u
        self._step(eta_t, (self.d / (2.0 * self.rho)) * float(value_difference))


# ---------------------------------------------------------------------------
# Tsallis-INF


def _tsallis_newton(values, eta, lmin, inv_eta2, tol, max_iter, z0=None):
    # The root z < lmin of sum_i 4 / (eta^2 (v_i - z)^2) = 1, which makes the
    # Tsallis-INF weights sum to one; the residual is increasing and convex
    # on z < lmin.  Start left of the root (residual < 0 there); Newton
    # overshoots once, then descends monotonically.  Iterates are clamped
    # below lmin where the residual has its pole.  Scalar arithmetic over a
    # list of floats: arm counts are small enough that numpy per-op overhead
    # dominates the vectorized version.
    z = z0 if z0 is not None and z0 < lmin else lmin - 2.0 * math.sqrt(len(values)) / eta
    scale = 4.0 * inv_eta2
    h = None
    for _ in range(max_iter):
        h = -1.0
        hp = 0.0
        for v in values:
            q = v - z
            w = scale / (q * q)
            h += w
            hp += 2.0 * w / q
        if abs(h) <= tol:
            return z
        z_new = z - h / hp
        if not (z_new < lmin):
            z_new = 0.5 * (z + lmin)
        z = z_new
    if h is None or abs(h) > 1e-9:
        raise NumericalError("Newton root-find for sampling weights did not converge")
    return z


def _tsallis_unnormalized(values, z, inv_eta2):
    """Weights 4 / (eta^2 (v - z)^2) and their sum, as floats.

    The per-element operations of ``w = 4.0 * inv_eta2 / (q * q)`` with
    ``q = lhat - z``, summed left to right.
    """
    scale = 4.0 * inv_eta2
    w = [scale / ((v - z) * (v - z)) for v in values]
    total = 0.0
    for x in w:
        total += x
    return w, total


class TsallisInf:
    """Tsallis-INF with the 1/2-Tsallis regularizer and importance weighting.

    Learning rate eta_t = 2 / sqrt(t).  Loss estimates are the plain
    importance-weighted ones, lhat_i += loss * 1{i = arm} / p(arm); the
    reduced-variance variant is not implemented, so stochastic-regime
    constants may differ from the best known ones.
    """

    def __init__(self, n_arms: int, rng: DrawAhead):
        if n_arms < 1:
            raise ConfigurationError("need at least one arm")
        self.k = n_arms
        self.rng = rng
        self.lhat = [0.0] * n_arms
        self.t = 1
        self._z = None  # warm start for the weight solve

    def eta(self) -> float:
        return 2.0 / math.sqrt(self.t)

    def weights(self) -> list[float]:
        if self.k == 1:
            return [1.0]
        eta = self.eta()
        values = self.lhat
        inv_eta2 = 1.0 / (eta * eta)
        z = _tsallis_newton(values, eta, min(values), inv_eta2, 1e-12, 200, z0=self._z)
        self._z = z
        w, total = _tsallis_unnormalized(values, z, inv_eta2)
        return [x / total for x in w]

    def sample(self) -> tuple[int, float]:
        """Draw an arm from the current weights; returns (arm, probability).

        The arm is the first whose running left-to-right sum of weights
        reaches a uniform draw (the last arm if rounding leaves none).
        """
        if self.k == 1:
            return 0, 1.0
        probs = self.weights()
        u = self.rng.uniform()
        cum = 0.0
        for arm, p in enumerate(probs):
            cum += p
            if cum >= u:
                return arm, p
        return self.k - 1, probs[-1]

    def update(self, arm: int, observed_loss: float, probability: float):
        if probability <= 0:
            raise ContractViolation(f"sampling probability must be > 0, got {probability}")
        self.lhat[arm] += float(observed_loss) / probability
        self.t += 1


# ---------------------------------------------------------------------------
# lil'UCB


@dataclass
class LilUcbParams:
    """Heuristic constants of the practical lil'UCB variant."""

    eps_lil: float = 0.01
    beta_lil: float = 0.5
    lam_lil: float = 9.0


class LilUcb:
    """Fixed-confidence best-arm identification via lil'UCB (reward framing).

    Confidence width for an arm pulled n times:
        (1 + beta)(1 + sqrt(eps)) * sqrt(2 * proxy * (1+eps) * ln(ln((1+eps) n)/gamma) / n)
    where proxy is the sub-Gaussian variance proxy of the rewards.  Where the
    log-log term is undefined (ln((1+eps) n) < gamma, which happens only at
    n = 1 for the usual constants) the width is treated as infinite, so such
    arms are re-pulled before any comparison; a zero floor would instead
    starve an arm that drew badly on its single bootstrap pull.  Stops once
    some arm's count reaches 1 + lam * (pulls of all other arms); the stopped
    flag never resets.

    counts and sums are plain lists, read and written per pull.  The width
    depends on the pull count alone, so it is looked up in a table of
    _width(1..N), rebuilt at double the size when a count outgrows it.
    """

    def __init__(self, n_arms: int, gamma: float, variance_proxy: float,
                 params: LilUcbParams | None = None):
        if n_arms < 1:
            raise ConfigurationError("need at least one arm")
        if not (0 < gamma < 1):
            raise ConfigurationError(f"gamma must be in (0, 1), got {gamma}")
        if variance_proxy <= 0:
            raise ConfigurationError("variance proxy must be positive")
        self.k = n_arms
        self.gamma = gamma
        self.proxy = variance_proxy
        p = self.params = params or LilUcbParams()
        if not (p.eps_lil >= 0 and p.beta_lil >= 0 and p.lam_lil > 0):
            raise ConfigurationError(f"lil'UCB needs eps_lil, beta_lil >= 0 and lam_lil > 0: {p}")
        self.counts = [0] * n_arms
        self.sums = [0.0] * n_arms
        self._widths: list[float] = []
        self.stopped = n_arms == 1
        self.best = 0 if n_arms == 1 else None

    def _width(self, n: np.ndarray) -> np.ndarray:
        p = self.params
        inner = np.log((1.0 + p.eps_lil) * n)
        with np.errstate(divide="ignore", invalid="ignore"):
            loglog = np.log(inner / self.gamma)
            width = (
                (1.0 + p.beta_lil)
                * (1.0 + math.sqrt(p.eps_lil))
                * np.sqrt(2.0 * self.proxy * (1.0 + p.eps_lil) * loglog / n)
            )
        return np.where(inner < self.gamma, np.inf, width)

    def _width_table(self, top: int) -> list[float]:
        """_width(n) for n = 1..N, N >= top, as floats."""
        if top > len(self._widths):
            size = max(2 * len(self._widths), 64)
            while size < top:
                size *= 2
            self._widths = self._width(np.arange(1, size + 1)).tolist()
        return self._widths

    def select(self) -> int:
        """Next arm to pull: bootstrap order first, then the UCB argmax
        (the first arm on ties)."""
        if self.stopped:
            raise ContractViolation("select() after the learner stopped")
        counts, sums = self.counts, self.sums
        if 0 in counts:
            return counts.index(0)
        widths = self._width_table(max(counts))
        best, best_index = 0, -math.inf
        for arm, n in enumerate(counts):
            index = sums[arm] / n + widths[n - 1]
            if index > best_index:
                best, best_index = arm, index
        return best

    def update(self, arm: int, reward: float):
        if self.stopped:
            raise ContractViolation("update() after the learner stopped")
        counts = self.counts
        counts[arm] += 1
        self.sums[arm] += float(reward)
        if 0 not in counts:
            lead = max(counts)
            if lead >= 1 + self.params.lam_lil * (sum(counts) - lead):
                self.stopped = True
                self.best = counts.index(lead)

    def force_stop(self):
        """Stop at a horizon cap; the arm with the most pulls is reported."""
        if not self.stopped:
            self.stopped = True
            self.best = self.counts.index(max(self.counts))
