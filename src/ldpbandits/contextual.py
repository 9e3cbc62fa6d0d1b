"""Locally private contextual bandits: linear and generalized-linear rewards.

Protocol per round t (user side): receive the server's current estimates,
play the optimistic arm, observe the reward, and send noisy sufficient
statistics; the server only ever sees the perturbed reports.

Linear rewards: the report is (x x^T + B_t, y x + xi_t) with a symmetric
Gaussian matrix B_t and xi_t ~ N(0, sigma^2 I), sigma = 6 sqrt(2 ln(2.5/delta)) / eps.
The server accumulates them and solves a regularized least squares
theta = (Vbar + c_t I)^{-1} u with c_t = 2 * Upsilon_t,
Upsilon_t = sigma sqrt(t) (4 sqrt(d) + 2 ln(2T/alpha)).

GLM rewards: a rough parameter estimate theta_hat is maintained by noisy
projected online gradient descent (gradient (g(x . theta_hat) - y) x plus
N(0, C^2 sigma^2 I) noise, step zeta); the user relabels the reward as
z = x . theta_hat and the server solves the same regularized least squares
on (x x^T + B_t, z x + xi_t).  Here sigma = 6 sqrt(2 ln(3.75/delta)) / eps.

Width formulas:
  linear: beta_t = 2 sigma sqrt(d ln T)
                   + (sqrt(3 Upsilon_t) + sigma sqrt(d t / Upsilon_t)) d ln T,
          used with the round t-1 regularized matrix;
  GLM:    beta_t^2 = kappa (C sigma / mu) sqrt(d t) ln(2T/alpha)  (the constant
          kappa is a config knob; only the order is prescribed), used with the
          round t-1 matrix and the round t-1 width.
Round zero is regularized by convention Upsilon_0 := Upsilon_1, c_0 := c_1,
beta_0 := beta_1 so the first index is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # NumPy < 2
    from numpy.core.multiarray import c_einsum

from .errors import ConfigurationError, ContractViolation, NumericalError
from .mechanisms import PrivacyParams, ReportNoise
# bound here for the benchmark's tracer, which wraps it as contextual calls it;
# the reports draw through ReportNoise, of which it is the one-round form
from .mechanisms import symmetric_gaussian_matrix  # noqa: F401

EIG_FLOOR = 1e-8


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float vector.

    The formula np.linalg.norm itself uses for such a vector (a BLAS dot,
    then sqrt), so the bits agree, without its dispatch cost on the
    per-round paths.
    """
    return math.sqrt(v.dot(v))


def linear_sigma(privacy: PrivacyParams | None) -> float:
    if privacy is None:
        return 0.0
    return 6.0 * math.sqrt(2.0 * math.log(2.5 / privacy.delta)) / privacy.epsilon


def glm_sigma(privacy: PrivacyParams | None) -> float:
    if privacy is None:
        return 0.0
    return 6.0 * math.sqrt(2.0 * math.log(3.75 / privacy.delta)) / privacy.epsilon


# ---------------------------------------------------------------------------
# link functions


@dataclass(frozen=True)
class LinkFunction:
    """A known strictly increasing reward link g with its constants.

    value_bound bounds |g| on [-1, 1] and curvature is inf g' over
    (-1, 1); the pointwise loss is l(a, y) = -a y + m(a) with m
    the antiderivative of g, so the parameter gradient is (g(x.theta) - y) x.
    """

    g: Callable[[float], float]
    m: Callable[[float], float]
    value_bound: float
    curvature: float

    def loss(self, a: float, y: float) -> float:
        return -a * y + self.m(a)

    def residual(self, a: float, y: float) -> float:
        """g(a) - y: the loss's derivative in a, the gradient's coefficient."""
        return self.g(a) - y


def _sigmoid(a: float) -> float:
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def logistic_link() -> LinkFunction:
    """Bernoulli-reward link g(a) = 1 / (1 + exp(-a)).

    On [-1, 1]: |g| <= 1 (value bound used for the gradient noise scale),
    max g' = 1/4, and inf g' = g'(1) = g'(-1) ~= 0.1966119.
    """
    g1 = _sigmoid(1.0)
    return LinkFunction(
        g=_sigmoid,
        m=lambda a: math.log1p(math.exp(-abs(a))) + max(a, 0.0),
        value_bound=1.0,
        curvature=g1 * (1.0 - g1),
    )


# ---------------------------------------------------------------------------
# confidence schedules


class LdpConfidence:
    """Noise-aware regularization and widths for the private algorithms."""

    def __init__(self, sigma: float, d: int, horizon: int, alpha: float,
                 kappa: float = 1.0):
        if not (0 < alpha < 1):
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if sigma < 0 or kappa <= 0:
            raise ConfigurationError("sigma must be >= 0 and kappa > 0")
        self.sigma = float(sigma)
        self.d = int(d)
        self.horizon = int(horizon)
        self.alpha = float(alpha)
        self.kappa = float(kappa)
        self._log_factor = 4.0 * math.sqrt(d) + 2.0 * math.log(2.0 * horizon / alpha)
        self._log_2t = math.log(2.0 * self.horizon / self.alpha)
        self._dlnt = self.d * math.log(self.horizon)
        self._beta_floor = 2.0 * self.sigma * math.sqrt(self._dlnt)
        self._glm_link = self._glm_factor = None

    def upsilon(self, t: int) -> float:
        """Upsilon_t = sigma sqrt(t) (4 sqrt(d) + 2 ln(2T/alpha)); t=0 maps to t=1."""
        t = max(int(t), 1)
        return self.sigma * math.sqrt(t) * self._log_factor

    def c(self, t: int) -> float:
        return 2.0 * self.upsilon(t)

    def beta_linear(self, t: int) -> float:
        t = max(int(t), 1)
        if self.sigma == 0.0:
            return 0.0
        ups = self.upsilon(t)
        return self._beta_floor + (
            math.sqrt(3.0 * ups) + self.sigma * math.sqrt(self.d * t / ups)) * self._dlnt

    def beta_glm(self, t: int, link: LinkFunction) -> float:
        t = max(int(t), 1)
        if self.sigma == 0.0:
            return 0.0
        if link is not self._glm_link:  # the factor before sqrt(d t), per link
            self._glm_link = link
            self._glm_factor = self.kappa * (link.value_bound * self.sigma / link.curvature)
        return math.sqrt(self._glm_factor * math.sqrt(self.d * t) * self._log_2t)


class BaselineConfidence:
    """Standard non-private width for sigma = 0 baseline runs: fixed ridge
    regularizer lam and an OFUL-style radius
    sqrt(lam) S + R sqrt(2 ln(1/alpha) + d ln(1 + t / (lam d))) with the
    parameter bound S and the noise proxy R both 1."""

    def __init__(self, d: int, horizon: int, alpha: float, lam: float = 1.0):
        if not (0 < alpha < 1) or lam <= 0:
            raise ConfigurationError(f"need alpha in (0, 1) and lam > 0, got {alpha}, {lam}")
        self.sigma = 0.0
        self.d = int(d)
        self.horizon = int(horizon)
        self.alpha = float(alpha)
        self.lam = float(lam)

    def c(self, t: int) -> float:
        return self.lam

    def _width(self, t: int) -> float:
        t = max(int(t), 1)
        return math.sqrt(self.lam) + math.sqrt(
            2.0 * math.log(1.0 / self.alpha) + self.d * math.log(1.0 + t / (self.lam * self.d))
        )

    def beta_linear(self, t: int) -> float:
        return self._width(t)

    def beta_glm(self, t: int, link: LinkFunction) -> float:
        return self._width(t)


# ---------------------------------------------------------------------------
# reports and server state


@dataclass(slots=True)
class LocalReport:
    """One user's perturbed message: noisy gram, noisy moment, and (GLM only)
    a noisy loss gradient."""

    gram: np.ndarray
    moment: np.ndarray
    gradient: np.ndarray | None = None

    def __post_init__(self):
        # np.array_equal(gram, gram.T) at any shape, in Python floats: a NaN
        # anywhere (the diagonal included) fails it, and 0.0 equals -0.0
        if self.gram.tolist() != self.gram.T.tolist():
            raise ContractViolation("report gram matrix must be symmetric")


def _report(x: np.ndarray, coefficients: list, sigma: float, scales: tuple,
            noise: ReportNoise) -> LocalReport:
    """The rows c_i x for c = (x_0, ..., x_{d-1}, *coefficients), plus one
    round of noise: the gram x x^T, then the vector c x of each coefficient,
    every entry one rounded product as in np.outer(x, x) and c * x.  The
    report's arrays are views of these rows."""
    d = x.size
    rows = np.array(x.tolist() + coefficients)[:, None] * x
    if sigma != 0.0:
        rows += noise.round(d, sigma, scales)
    gradient = rows[d + 1] if len(coefficients) > 1 else None
    return LocalReport(rows[:d], rows[d], gradient)


def linear_local_report(x, y: float, sigma: float, noise: ReportNoise) -> LocalReport:
    """(x x^T + B, y x + xi) with symmetric Gaussian B and xi ~ N(0, sigma^2 I)."""
    x = np.asarray(x, dtype=float)
    if _norm(x) > 1.0 + 1e-9:
        raise ContractViolation("context norm exceeds 1")
    if abs(y) > 2.0 + 1e-9:
        raise ContractViolation("linear reward outside [-2, 2]")
    return _report(x, [y], sigma, (sigma,), noise)


def glm_local_report(x, y: float, theta_hat, link: LinkFunction, sigma: float,
                     noise: ReportNoise) -> LocalReport:
    """(x x^T + B, z x + xi, grad + r) with z = x . theta_hat,
    grad = (g(z) - y) x and r ~ N(0, C^2 sigma^2 I)."""
    x = np.asarray(x, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    if _norm(x) > 1.0 + 1e-9:
        raise ContractViolation("context norm exceeds 1")
    if _norm(theta_hat) > 1.0 + 1e-9:
        raise ContractViolation("rough estimate left the unit ball")
    z = float(x.dot(theta_hat))
    return _report(x, [z, link.residual(z, y)], sigma, (sigma, link.value_bound * sigma),
                   noise)


def project_unit_ball(v: np.ndarray) -> np.ndarray:
    norm = _norm(v)
    return v if norm <= 1.0 else v / norm


class ServerState:
    """Accumulated noisy statistics and the current estimates.

    vbar / u are the running sums of gram / moment reports; theta_tilde is the
    regularized least-squares estimate, theta_hat the OGD rough estimate
    (GLM only), and reg is the current regularized matrix Vbar + c_t I after
    the eigenvalue floor.
    """

    def __init__(self, d: int, conf):
        self.d = int(d)
        self.conf = conf
        self.t = 0
        self.vbar = np.zeros((d, d))
        self.u = np.zeros(d)
        self.theta_tilde = np.zeros(d)
        self.theta_hat = np.zeros(d)
        self.clamp_count = 0
        self._eye = np.eye(d)
        self.reg = self._regularize(conf.c(0))

    def _regularize(self, c: float) -> np.ndarray:
        m = self.vbar + c * self._eye
        # Gershgorin lower bound screens out the common well-conditioned case;
        # the exact eigenvalue check runs only when the bound is inconclusive.
        if not self._gershgorin_below_floor(m):
            return m
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < EIG_FLOOR:
            m = m + (EIG_FLOOR - min_eig) * self._eye
            self.clamp_count += 1
        return m

    def _gershgorin_below_floor(self, m: np.ndarray) -> bool:
        """min_i m_ii - sum_{j != i} |m_ij| < EIG_FLOOR, each row sum of
        |m_ij| taken in Python floats, left to right."""
        for i, row in enumerate(m.tolist()):
            total = 0.0
            for v in row:
                total += abs(v)
            diag = row[i]
            if diag - (total - abs(diag)) < EIG_FLOOR:
                return True
        return False

    def _accumulate(self, report: LocalReport):
        self.t += 1
        self.vbar += report.gram
        self.u += report.moment
        self.reg = self._regularize(self.conf.c(self.t))
        try:
            self.theta_tilde = _solve(self.reg, self.u)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - floor prevents this
            raise NumericalError(f"regularized solve failed at t={self.t}: {exc}")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a float64 (d, d) matrix and a float64 (d,) or
    (d, k) right-hand side, raising np.linalg.LinAlgError when a is singular.

    It calls the LAPACK gufunc that np.linalg.solve dispatches to, so the
    result has the same bits, but skips the per-call type dispatch that is
    most of np.linalg.solve's cost at d = 3.  A singular a makes the gufunc
    fill its output with NaN and raise the floating-point invalid flag. Under
    NumPy's default error state the flag only warns, so a RuntimeWarning
    ("invalid value encountered in solve") comes before the LinAlgError that
    the NaN output decides. Where the caller's error state or warning filters
    turn the flag into a FloatingPointError or RuntimeWarning exception, that
    exception becomes the LinAlgError.
    """
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    try:
        x = gufunc(a, b, signature="dd->d")
    except (FloatingPointError, RuntimeWarning):
        raise np.linalg.LinAlgError("Singular matrix") from None
    first = x.item(0)
    if first != first:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _optimistic_argmax(theta: np.ndarray, reg: np.ndarray, beta: float,
                       arms: np.ndarray) -> int:
    """argmax of <theta, x> + beta * |x|_{reg^{-1}}; ties go to the lowest index."""
    arms = np.asarray(arms, dtype=float)
    # c_einsum is what np.einsum calls without optimize, minus its dispatch
    norms = c_einsum("kd,kd->k", arms, arms)
    if max(norms.tolist()) > 1.0 + 3e-9:
        raise ContractViolation("arm norms must be <= 1")
    try:
        solved = _solve(reg, arms.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"regularized matrix not invertible: {exc}")
    quad = c_einsum("kd,dk->k", arms, solved)
    lowest = min(quad.tolist())
    if lowest < -1e-10:
        raise NumericalError("regularized matrix lost positive definiteness")
    if lowest < 0.0:
        quad = np.maximum(quad, 0.0)
    index = arms.dot(theta) + beta * np.sqrt(quad)
    return int(index.argmax())


def linear_select_action(server: ServerState, arms) -> int:
    """Optimistic arm for round t = server.t + 1: the width uses the round
    t-1 matrix and the round-t linear beta."""
    beta = server.conf.beta_linear(server.t + 1)
    return _optimistic_argmax(server.theta_tilde, server.reg, beta, arms)


def linear_server_update(server: ServerState, report: LocalReport) -> ServerState:
    server._accumulate(report)
    return server


def glm_select_action(server: ServerState, arms, link: LinkFunction) -> int:
    """Optimistic arm for round t = server.t + 1: both the matrix and the GLM
    beta are the round t-1 quantities."""
    beta = server.conf.beta_glm(server.t, link)
    return _optimistic_argmax(server.theta_tilde, server.reg, beta, arms)


def glm_server_update(server: ServerState, report: LocalReport,
                      zeta: float) -> ServerState:
    if report.gradient is None:
        raise ContractViolation("GLM update needs a gradient report")
    server._accumulate(report)
    server.theta_hat = project_unit_ball(server.theta_hat - zeta * report.gradient)
    return server
