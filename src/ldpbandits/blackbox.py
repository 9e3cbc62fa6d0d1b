"""Non-private black-box bandit learners used inside the private reductions.

Contains:
  * ball decision sets with Euclidean projection onto a shrunken copy,
  * a one-point sphere-sampling gradient-descent learner (estimator
    (d/rho) * loss * u for a uniform unit vector u),
  * a two-query gradient-descent learner (estimator (d/2 rho) * (f1 - f2) * u),
  * Tsallis-INF for multi-armed bandits (1/2-Tsallis regularizer,
    importance-weighted loss estimates),
  * lil'UCB for fixed-confidence best-arm identification.

Learner state is owned by a single actor; methods mutate the instance.  Any
number of independent learners can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, NumericalError


# ---------------------------------------------------------------------------
# decision sets


@dataclass(frozen=True)
class DecisionSet:
    """A ball that contains the origin, with its inner/outer radii about the origin.

    inner_radius r and outer_radius R satisfy  r*B subset X subset R*B  where
    B is the unit ball; both are needed by the query-feasibility margins.
    """

    center: np.ndarray
    radius: float

    @staticmethod
    def ball(radius: float, center=None, dim: int | None = None) -> "DecisionSet":
        if radius <= 0:
            raise ConfigurationError("ball radius must be positive")
        if center is None:
            if dim is None:
                raise ConfigurationError("ball needs a center or an explicit dim")
            center = np.zeros(dim)
        center = np.asarray(center, dtype=float)
        if _norm(center) >= radius:
            raise ConfigurationError("ball must contain the origin strictly")
        return DecisionSet(center=center, radius=float(radius))

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def inner_radius(self) -> float:
        return self.radius - _norm(self.center)

    @property
    def outer_radius(self) -> float:
        return self.radius + _norm(self.center)

    def contains(self, x, shrink: float = 0.0, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        s = 1.0 - shrink
        return _norm(x - s * self.center) <= s * self.radius + tol


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float vector.

    The formula np.linalg.norm itself uses for such a vector, so the bits
    agree, without its dispatch cost on the per-round paths.
    """
    return math.sqrt(v.dot(v))


def project(point, dset: DecisionSet, shrink: float = 0.0) -> np.ndarray:
    """Euclidean projection of point onto (1 - shrink) * dset.

    The shrunken set is the original scaled about the origin.  Idempotent.
    """
    if not (0 <= shrink < 1):
        raise ConfigurationError(f"shrink must be in [0, 1), got {shrink}")
    p = np.asarray(point, dtype=float)
    s = 1.0 - shrink
    c = s * dset.center
    r = s * dset.radius
    diff = p - c
    norm = _norm(diff)
    if norm <= r:
        return p.copy()
    return c + diff * (r / norm)


def _uniform_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        u = rng.standard_normal(d)
        norm = _norm(u)
        if norm > 1e-12:
            return u / norm


# ---------------------------------------------------------------------------
# one-point sphere-sampling learner


class FkmBandit:
    """Gradient descent with the one-point estimator (d/rho) * loss * u.

    Per round: the center moves against the previous round's estimate, then a
    fresh uniform unit direction u is drawn and the query y + rho * u is
    played.  The center lives in the shrunken set (1 - xi) * X, which keeps
    every query inside X as long as rho <= xi * inner_radius.
    """

    def __init__(self, dset: DecisionSet, eta: float, rho: float, xi: float,
                 rng: np.random.Generator):
        if rho <= 0 or eta <= 0:
            raise ConfigurationError("eta and rho must be positive")
        if not (0 <= xi < 1):
            raise ConfigurationError(f"xi must be in [0, 1), got {xi}")
        if rho > xi * dset.inner_radius + 1e-12:
            raise ConfigurationError(
                f"infeasible exploration radius: rho={rho} exceeds "
                f"xi * r = {xi * dset.inner_radius}; queries could exit the set"
            )
        self.dset = dset
        self.d = dset.dim
        self.eta = float(eta)
        self.rho = float(rho)
        self.xi = float(xi)
        self.rng = rng
        self.y = np.zeros(self.d)
        self.last_u = np.zeros(self.d)
        self.t = 0

    @staticmethod
    def default_parameters(dset: DecisionSet, horizon: int, loss_bound: float):
        """Classical schedule: rho = r * T^(-1/4), xi = rho / r,
        eta = R / ((d * B / rho) * sqrt(T)).  loss_bound should be the
        effective bound of the fed-back values, noise included."""
        r = dset.inner_radius
        R = dset.outer_radius
        d = dset.dim
        rho = r * horizon ** -0.25
        xi = rho / r
        eta = R / ((d * loss_bound / rho) * math.sqrt(horizon))
        return eta, rho, xi

    def observe(self, feedback: float):
        grad = (self.d / self.rho) * float(feedback) * self.last_u
        self.y = project(self.y - self.eta * grad, self.dset, self.xi)

    def propose(self) -> np.ndarray:
        self.t += 1
        self.last_u = _uniform_unit_vector(self.d, self.rng)
        return self.y + self.rho * self.last_u


# ---------------------------------------------------------------------------
# two-query learner


class TwoPointBandit:
    """Gradient descent fed by two symmetric queries per round.

    Queries are y + rho*u and y - rho*u; the update uses
    g = (d / 2 rho) * (value difference) * u and projects back onto
    (1 - xi) * X.  With mu > 0 the step size is 1/(mu * t), otherwise the
    fixed eta is used.
    """

    def __init__(self, dset: DecisionSet, eta: float, rho: float, xi: float,
                 rng: np.random.Generator, mu: float = 0.0):
        if rho <= 0:
            raise ConfigurationError("rho must be positive")
        if not (0 <= xi < 1):
            raise ConfigurationError(f"xi must be in [0, 1), got {xi}")
        if rho > xi * dset.inner_radius + 1e-12:
            raise ConfigurationError(
                f"infeasible exploration radius: rho={rho} exceeds "
                f"xi * r = {xi * dset.inner_radius}"
            )
        if mu < 0:
            raise ConfigurationError("mu must be nonnegative")
        if mu == 0.0 and eta <= 0:
            raise ConfigurationError("eta must be positive in the convex mode")
        self.dset = dset
        self.d = dset.dim
        self.eta = float(eta)
        self.rho = float(rho)
        self.xi = float(xi)
        self.mu = float(mu)
        self.rng = rng
        self.y = np.zeros(self.d)
        self.u = np.zeros(self.d)
        self.t = 0
        self._pending = False

    def queries(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw a fresh unit direction and return (y + rho u, y - rho u)."""
        if self._pending:
            raise ContractViolation("queries() called twice without update()")
        self.t += 1
        self.u = _uniform_unit_vector(self.d, self.rng)
        step = self.rho * self.u
        self._pending = True
        return self.y + step, self.y - step

    def update(self, value_difference: float):
        """Descend along (d / 2 rho) * difference * u for the stored u."""
        if not self._pending:
            raise ContractViolation("update() called before queries()")
        self._pending = False
        eta_t = 1.0 / (self.mu * self.t) if self.mu > 0 else self.eta
        grad = (self.d / (2.0 * self.rho)) * float(value_difference) * self.u
        self.y = project(self.y - eta_t * grad, self.dset, self.xi)


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

    Bit-identical to ``w = 4.0 * inv_eta2 / (q * q)`` with ``q = lhat - z``
    and ``w.sum()``: the same per-element operations, summed in NumPy's order.
    """
    scale = 4.0 * inv_eta2
    w = [scale / ((v - z) * (v - z)) for v in values]
    return w, _pairwise_sum(w, 0, len(w))


def _pairwise_sum(values, lo, n):
    """Sum of values[lo:lo + n] in the order of float64 ``ndarray.sum``.

    A port of NumPy's pairwise_sum: left to right below 8 terms; up to 128,
    eight interleaved partial sums combined as a tree plus the remainder;
    above, the two halves (the first a multiple of 8 long) recursively.
    """
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        r = values[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


class TsallisInf:
    """Tsallis-INF with the 1/2-Tsallis regularizer and importance weighting.

    Learning rate eta_t = 2 / sqrt(t).  Loss estimates are the plain
    importance-weighted ones, lhat_i += loss * 1{i = arm} / p(arm); the
    reduced-variance variant is not implemented, so stochastic-regime
    constants may differ from the best known ones.
    """

    def __init__(self, n_arms: int, rng: np.random.Generator):
        if n_arms < 1:
            raise ConfigurationError("need at least one arm")
        self.k = n_arms
        self.rng = rng
        self.lhat = np.zeros(n_arms)
        self.t = 1
        self._z = None  # warm start for the weight solve

    def eta(self) -> float:
        return 2.0 / math.sqrt(self.t)

    def weights(self) -> list[float]:
        if self.k == 1:
            return [1.0]
        eta = self.eta()
        values = self.lhat.tolist()
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
        u = self.rng.random()
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
