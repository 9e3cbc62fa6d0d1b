"""The per-round kernels against the NumPy expressions they replace.

Every comparison is bitwise: the kernels must emit the same bytes, not
nearly the same numbers.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpbandits import (
    ContextualEnv,
    ContractViolation,
    DrawAhead,
    LilUcb,
    LilUcbParams,
    NumericalError,
    ReportNoise,
    TsallisInf,
    derive_rng,
    symmetric_gaussian_matrix,
)
from ldpbandits import blackbox, mechanisms
from ldpbandits.blackbox import _tsallis_newton, _tsallis_unnormalized
from ldpbandits.contextual import (
    EIG_FLOOR,
    BaselineConfidence,
    LdpConfidence,
    LocalReport,
    ServerState,
    _norm,
    _optimistic_argmax,
    _solve,
    glm_local_report,
    linear_local_report,
    logistic_link,
)
from ldpbandits.environments import ContextualRound

SETTINGS = settings(max_examples=200, deadline=None)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def left_to_right_sum(values) -> float:
    total = 0.0
    for v in values:
        total += float(v)
    return total


# ---------------------------------------------------------------------------
# the 1-d norms: contextual's in BLAS order, blackbox's by the fixed rule


@SETTINGS
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(1e-6, 1e6))
def test_norm_matches_linalg_norm(d, seed, scale):
    v = np.random.default_rng(seed).standard_normal(d) * scale
    assert bits(_norm(v)) == bits(np.linalg.norm(v))


@SETTINGS
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(1e-6, 1e6))
def test_fixed_rule_norm_and_dot_sum_left_to_right(d, seed, scale):
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal(d) * scale for _ in range(2))
    assert bits(blackbox._norm(a.tolist())) == bits(math.sqrt(left_to_right_sum(a * a)))
    assert bits(blackbox._dot(a.tolist(), b.tolist())) == bits(left_to_right_sum(a * b))


# ---------------------------------------------------------------------------
# lil'UCB


def test_width_table_matches_width_on_three_arms():
    learner = LilUcb(3, gamma=0.1, variance_proxy=0.25 + 2.6**2)
    table = learner._width_table(100_002)
    for n in range(1, 100_001, 3):
        counts = np.array([n, n + 1, n + 2])
        assert bits(table[n - 1:n + 2]) == bits(learner._width(counts))


@SETTINGS
@given(
    st.floats(0.01, 0.99), st.floats(0.01, 50.0), st.floats(0.0, 0.5),
    st.floats(0.0, 2.0), st.lists(st.integers(1, 20_000), min_size=3, max_size=3),
)
def test_width_table_matches_width_for_any_constants(gamma, proxy, eps, beta, counts):
    learner = LilUcb(3, gamma, proxy, LilUcbParams(eps_lil=eps, beta_lil=beta))
    table = learner._width_table(max(counts))
    assert bits([table[n - 1] for n in counts]) == bits(learner._width(np.array(counts)))


class NumpyLilUcb(LilUcb):
    """lil'UCB's per-pull arithmetic as NumPy array expressions: the
    reference the scalar loops replace."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counts = np.zeros(self.k, dtype=np.int64)
        self.sums = np.zeros(self.k)

    def select(self) -> int:
        unexplored = np.flatnonzero(self.counts == 0)
        if unexplored.size:
            return int(unexplored[0])
        index = self.sums / self.counts + self._width(self.counts)
        return int(np.argmax(index))

    def update(self, arm: int, reward: float):
        self.counts[arm] += 1
        self.sums[arm] += float(reward)
        if np.all(self.counts > 0):
            total = int(self.counts.sum())
            leader = int(np.argmax(self.counts))
            if self.counts[leader] >= 1 + self.params.lam_lil * (total - self.counts[leader]):
                self.stopped = True
                self.best = leader


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.01, 0.9),
    st.floats(0.0, 3.0), st.floats(1.0, 12.0),
)
@example(3, 53_331, 0.1, 2.6, 9.0)
def test_lil_ucb_matches_numpy_reference(n_arms, seed, gamma, noise, lam):
    rng = np.random.default_rng(seed)
    means = rng.random(n_arms)
    params = LilUcbParams(lam_lil=lam)
    proxy = 0.25 + noise**2
    scalar = LilUcb(n_arms, gamma, proxy, params)
    reference = NumpyLilUcb(n_arms, gamma, proxy, params)
    for _ in range(3_000):
        arm = scalar.select()
        assert arm == reference.select()
        reward = float(rng.random() < means[arm]) - 0.5 + noise * rng.standard_normal()
        scalar.update(arm, reward)
        reference.update(arm, reward)
        assert scalar.stopped == reference.stopped
        if scalar.stopped:
            break
    assert scalar.counts == reference.counts.tolist()
    assert bits(scalar.sums) == bits(reference.sums)
    scalar.force_stop()
    assert scalar.best == (reference.best if reference.stopped
                           else int(np.argmax(reference.counts)))


# ---------------------------------------------------------------------------
# Tsallis-INF


def reference_weights(lhat: np.ndarray, z: float, inv_eta2: float) -> np.ndarray:
    q = lhat - z
    w = 4.0 * inv_eta2 / (q * q)
    return w / left_to_right_sum(w)


def reference_draw(w: np.ndarray, u: float) -> tuple[int, float]:
    arm = min(int(np.searchsorted(np.cumsum(w), u)), w.size - 1)
    return arm, float(w[arm])


class FixedDraw:
    """A stand-in for the learner's stream that returns a chosen u."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def random_state(k: int, seed: int) -> tuple[np.ndarray, int]:
    rng = np.random.default_rng(seed)
    lhat = rng.normal(0.0, rng.uniform(0.1, 100.0), k)
    return lhat, int(rng.integers(1, 10**6))


@SETTINGS
@given(st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_tsallis_weights_match_numpy_expression(k, seed):
    lhat, t = random_state(k, seed)
    eta = 2.0 / math.sqrt(t)
    inv_eta2 = 1.0 / (eta * eta)
    z = _tsallis_newton(lhat.tolist(), eta, lhat.min(), inv_eta2, 1e-12, 200)
    w, total = _tsallis_unnormalized(lhat.tolist(), z, inv_eta2)
    q = lhat - z
    # below 8 terms NumPy's sum is this left-to-right loop too
    assert bits(total) == bits(left_to_right_sum(4.0 * inv_eta2 / (q * q)))
    assert bits([x / total for x in w]) == bits(reference_weights(lhat, z, inv_eta2))


@SETTINGS
@given(st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0, exclude_max=True))
@example(300, 2, float(np.nextafter(1.0, 0.0)))  # rounding leaves the sum below u
@example(2, 7, 0.0)
def test_tsallis_sample_matches_numpy_draw(k, seed, u):
    lhat, t = random_state(k, seed)
    learner = TsallisInf(k, FixedDraw(u))
    learner.lhat[:] = lhat.tolist()
    learner.t = t
    if k == 1:
        assert learner.sample() == (0, 1.0)
        assert bits(learner.weights()) == bits(np.ones(1))
        return
    eta = learner.eta()
    inv_eta2 = 1.0 / (eta * eta)
    z = _tsallis_newton(lhat.tolist(), eta, lhat.min(), inv_eta2, 1e-12, 200)
    w = reference_weights(lhat, z, inv_eta2)
    arm, prob = learner.sample()
    ref_arm, ref_prob = reference_draw(w, u)
    assert arm == ref_arm
    assert bits(prob) == bits(ref_prob)
    learner._z = None  # sample() warm-starts the next solve; start cold again
    assert bits(learner.weights()) == bits(w)


def test_single_arm_sample_draws_nothing():
    rng = np.random.default_rng(5)
    learner = TsallisInf(1, DrawAhead(rng))
    before = rng.bit_generator.state
    assert learner.sample() == (0, 1.0)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# the contextual round: solve, symmetric noise, arm sets


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_solve_matches_linalg_solve(d, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a = a @ a.T + rng.uniform(1e-6, 10.0) * np.eye(d)
    b = rng.standard_normal((k, d))
    u = rng.standard_normal(d)
    assert bits(_solve(a, b.T)) == bits(np.linalg.solve(a, b.T))
    assert bits(_solve(a, u)) == bits(np.linalg.solve(a, u))


@pytest.mark.parametrize("rhs", [np.ones(3), np.ones((3, 4))])
def test_solve_rejects_singular_matrix(rhs):
    # the gufunc's invalid flag is not trapped: NumPy warns, then _solve raises
    for a in (np.zeros((3, 3)), np.ones((3, 3))):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(np.linalg.LinAlgError):
                _solve(a, rhs)
        # a caller that traps the flag still gets LinAlgError
        with np.errstate(invalid="raise"), pytest.raises(np.linalg.LinAlgError):
            _solve(a, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                _solve(a, rhs)


def reference_symmetric(d: int, sigma: float, rng) -> np.ndarray:
    m = np.zeros((d, d))
    iu = np.triu_indices(d)
    m[iu] = rng.normal(0.0, sigma, size=iu[0].size)
    m.T[iu] = m[iu]
    return m


@SETTINGS
@given(st.integers(1, 9), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_symmetric_noise_matches_mirrored_assignment(d, sigma, seed):
    ours, ref = derive_rng(seed, d), derive_rng(seed, d)
    for _ in range(3):
        assert bits(symmetric_gaussian_matrix(d, sigma, ours)) == bits(
            reference_symmetric(d, sigma, ref))
    assert ours.bit_generator.state == ref.bit_generator.state


def random_arms(k: int, d: int, rng) -> np.ndarray:
    """k points uniform in the d-ball: d of d + 2 normals over their norm."""
    g = rng.standard_normal((k, d + 2))
    return g[:, :d] / np.linalg.norm(g, axis=1)[:, None]


def unit_ball_point(d: int, seed: int) -> np.ndarray:
    return random_arms(1, d, np.random.default_rng(seed))[0]


@SETTINGS
@given(st.integers(1, 6), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_local_report_grams_match_outer(d, sigma, seed):
    x = unit_ball_point(d, seed)
    theta_hat = unit_ball_point(d, seed + 1)
    ref = derive_rng(seed, "reference")
    noise = reference_symmetric(d, sigma, ref) if sigma > 0 else np.zeros((d, d))
    linear = linear_local_report(x, 0.5, sigma, ReportNoise(derive_rng(seed, "reference")))
    assert bits(linear.gram) == bits(np.outer(x, x) + noise)
    glm = glm_local_report(x, 1.0, theta_hat, logistic_link(), sigma,
                           ReportNoise(derive_rng(seed, "reference")))
    assert bits(glm.gram) == bits(np.outer(x, x) + noise)


# NumPy copies of the server's and the index's per-round code as it was
# before the kernels moved to Python floats and direct gufunc calls.


def reference_solve(a, b):
    gufunc = np.linalg._umath_linalg.solve1 if b.ndim == 1 else np.linalg._umath_linalg.solve
    try:
        with np.errstate(invalid="raise"):
            return gufunc(a, b, signature="dd->d")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Singular matrix") from None


def absolute_row_sums(m) -> np.ndarray:
    """Each row's sum of |m_ij|, column by column, left to right (NumPy's
    sum(axis=1) is pairwise from 8 terms)."""
    absolute = np.abs(m)
    sums = absolute[:, 0]
    for j in range(1, m.shape[1]):
        sums = sums + absolute[:, j]
    return sums


def reference_screen(m) -> bool:
    diag = m.diagonal()
    gershgorin = diag - (absolute_row_sums(m) - np.abs(diag))
    return float(gershgorin.min()) < EIG_FLOOR


def reference_regularize(vbar, c):
    """(regularized matrix, whether it was clamped)."""
    eye = np.eye(vbar.shape[0])
    m = vbar + c * eye
    if reference_screen(m):
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < EIG_FLOOR:
            return m + (EIG_FLOOR - min_eig) * eye, True
    return m, False


def reference_argmax(theta, reg, beta, arms) -> int:
    arms = np.asarray(arms, dtype=float)
    if float(np.einsum("kd,kd->k", arms, arms).max()) > 1.0 + 3e-9:
        raise ContractViolation("arm norms must be <= 1")
    try:
        solved = reference_solve(reg, arms.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"regularized matrix not invertible: {exc}")
    quad = np.einsum("kd,dk->k", arms, solved)
    if float(quad.min()) < -1e-10:
        raise NumericalError("regularized matrix lost positive definiteness")
    index = arms @ theta + beta * np.sqrt(np.maximum(quad, 0.0))
    return int(index.argmax())


def outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def noisy_gram_sum(d: int, rounds: int, sigma: float, rng) -> np.ndarray:
    """A server's running sum of reports: outer products plus symmetric noise."""
    vbar = np.zeros((d, d))
    for _ in range(rounds):
        x = rng.standard_normal(d)
        x /= max(1.0, float(np.linalg.norm(x)))
        vbar += np.outer(x, x) + reference_symmetric(d, sigma, rng)
    return vbar


@SETTINGS
@given(st.integers(1, 10), st.integers(0, 40), st.floats(0.0, 50.0),
       st.floats(0.0, 100.0), st.integers(0, 2**32 - 1))
def test_regularize_matches_numpy_screen(d, rounds, sigma, c, seed):
    # from d = 8 on, a pairwise row sum would differ from the left-to-right one
    vbar = noisy_gram_sum(d, rounds, sigma, np.random.default_rng(seed))
    server = ServerState(d, BaselineConfidence(d, 100, 0.1))
    server.vbar = vbar
    ref, clamped = reference_regularize(vbar, c)
    assert bits(server._regularize(c)) == bits(ref)
    assert server.clamp_count == int(clamped)


@SETTINGS
@given(st.integers(1, 10), st.integers(1, 40), st.floats(0.1, 50.0),
       st.integers(-4, 4), st.integers(0, 2**32 - 1))
def test_screen_decides_as_numpy_at_its_edge(d, rounds, sigma, ulps, seed):
    # c puts the lowest Gershgorin bound within a few ulps of the floor, where
    # a row sum in another order would flip the decision
    vbar = noisy_gram_sum(d, rounds, sigma, np.random.default_rng(seed))
    diag = vbar.diagonal()
    bound = float((diag - (absolute_row_sums(vbar) - np.abs(diag))).min())
    c = EIG_FLOOR - bound
    c += ulps * float(np.spacing(c))
    server = ServerState(d, BaselineConfidence(d, 100, 0.1))
    server.vbar = vbar
    m = vbar + c * np.eye(d)
    assert server._gershgorin_below_floor(m) == reference_screen(m)
    ref, clamped = reference_regularize(vbar, c)
    assert bits(server._regularize(c)) == bits(ref)
    assert server.clamp_count == int(clamped)


def test_regularize_clamps_an_indefinite_sum():
    vbar = np.diag([-2.0, 1.0, 3.0])
    server = ServerState(3, BaselineConfidence(3, 100, 0.1))
    server.vbar = vbar
    ref, clamped = reference_regularize(vbar, 1.0)
    assert clamped
    assert bits(server._regularize(1.0)) == bits(ref)
    assert server.clamp_count == 1


@SETTINGS
@given(st.integers(1, 6), st.one_of(st.integers(1, 12), st.integers(30, 40)),
       st.integers(0, 2**32 - 1),
       st.sampled_from(["spd", "ties", "tiny_negative", "negative", "singular", "long_arm"]))
def test_optimistic_argmax_matches_numpy_reference(d, k, seed, case):
    # k from 30 to 40: more arms than the benchmark's 10
    rng = np.random.default_rng(seed)
    arms = random_arms(k, d, rng)
    theta = rng.standard_normal(d)
    beta = float(rng.uniform(0.0, 50.0))
    reg = noisy_gram_sum(d, 5, 0.0, rng) + float(rng.uniform(1e-3, 10.0)) * np.eye(d)
    if case == "ties":  # equal indices: the lowest index wins
        arms[rng.integers(k, size=k)] = arms[0]
        theta[:] = 0.0
    elif case in ("tiny_negative", "negative"):
        # one negative direction, so that quad < 0 along e_1: in [-1e-10, 0)
        # the index clips it to 0, below -1e-10 both raise; one arm lies on e_1
        reg = np.eye(d)
        reg[0, 0] = -1e12 if case == "tiny_negative" else -1e6
        arms[rng.integers(k), 1:] = 0.0
        arms[:, 0] = rng.uniform(-1.0, 1.0, k) * np.sqrt(1.0 - (arms[:, 1:] ** 2).sum(axis=1))
    elif case == "singular":
        reg = np.zeros((d, d))
    elif case == "long_arm":
        arms[-1] *= (1.0 + 1e-8) / float(np.linalg.norm(arms[-1]))
    expected = outcome(reference_argmax, theta, reg, beta, arms)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the singular solve warns
        assert outcome(_optimistic_argmax, theta, reg, beta, arms) == expected


def test_optimistic_argmax_clips_tiny_negative_quad():
    # arm 1's quad is -1e-14: clipped, it ties with arm 0 (unclipped, its
    # index would be NaN, which argmax would pick)
    arms = np.array([[0.0, 0.0], [1e-1, 0.0]])
    reg = np.diag([-1e12, 1.0])
    quad = np.einsum("kd,dk->k", arms, np.linalg.solve(reg, arms.T))
    assert -1e-10 <= quad.min() < 0.0
    assert _optimistic_argmax(np.zeros(2), reg, 1.0, arms) == reference_argmax(
        np.zeros(2), reg, 1.0, arms) == 0


def gram_cases(d: int, rng):
    """Square and non-square grams, symmetric or not, with signed zeros and NaN."""
    g = rng.standard_normal((d, d))
    sym = g + g.T
    yield sym
    yield g
    i, j = (0, d - 1)
    zeros = sym.copy()
    zeros[i, j], zeros[j, i] = 0.0, -0.0
    yield zeros
    for (a, b) in ((i, i), (i, j)):
        nan = sym.copy()
        nan[a, b] = nan[b, a] = np.nan
        yield nan
    one_nan = sym.copy()  # off the diagonal (d > 1), not mirrored
    one_nan[i, j] = np.nan
    yield one_nan
    yield rng.standard_normal((d, d + 1))
    yield sym[0]
    yield np.array(1.0)


@SETTINGS
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_local_report_rejects_what_array_equal_rejects(d, seed):
    for gram in gram_cases(d, np.random.default_rng(seed)):
        rejected = not np.array_equal(gram, gram.T)
        try:
            LocalReport(gram=gram, moment=np.zeros(d))
        except ContractViolation:
            assert rejected, gram
        else:
            assert not rejected, gram


def reference_upsilon(sigma, d, horizon, alpha, t):
    t = max(int(t), 1)
    return sigma * math.sqrt(t) * (4.0 * math.sqrt(d) + 2.0 * math.log(2.0 * horizon / alpha))


def reference_beta_linear(sigma, d, horizon, alpha, t):
    t = max(int(t), 1)
    if sigma == 0.0:
        return 0.0
    dlnt = d * math.log(horizon)
    ups = reference_upsilon(sigma, d, horizon, alpha, t)
    return (2.0 * sigma * math.sqrt(d * math.log(horizon))
            + (math.sqrt(3.0 * ups) + sigma * math.sqrt(d * t / ups)) * dlnt)


def reference_beta_glm(sigma, d, horizon, alpha, kappa, link, t):
    t = max(int(t), 1)
    if sigma == 0.0:
        return 0.0
    return math.sqrt(kappa * (link.value_bound * sigma / link.curvature)
                     * math.sqrt(d * t) * math.log(2.0 * horizon / alpha))


@SETTINGS
@given(st.floats(0.0, 100.0), st.integers(1, 6), st.integers(2, 10**7),
       st.floats(1e-6, 0.99), st.floats(1e-3, 10.0),
       st.lists(st.integers(0, 10**7), max_size=10))
def test_widths_match_their_formulas(sigma, d, horizon, alpha, kappa, ts):
    # the hoisted constants keep the formulas' bits
    link = logistic_link()
    ldp = LdpConfidence(sigma, d, horizon, alpha, kappa)
    for t in ts:
        assert bits(ldp.upsilon(t)) == bits(reference_upsilon(sigma, d, horizon, alpha, t))
        assert bits(ldp.c(t)) == bits(2.0 * reference_upsilon(sigma, d, horizon, alpha, t))
        assert bits(ldp.beta_linear(t)) == bits(
            reference_beta_linear(sigma, d, horizon, alpha, t))
        assert bits(ldp.beta_glm(t, link)) == bits(
            reference_beta_glm(sigma, d, horizon, alpha, kappa, link, t))


@SETTINGS
@given(st.integers(1, 6), st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_glm_report_matches_matmul_reference(d, sigma, y, seed):
    x = unit_ball_point(d, seed)
    theta_hat = unit_ball_point(d, seed + 1)
    link = logistic_link()
    report = glm_local_report(x, y, theta_hat, link, sigma,
                              ReportNoise(derive_rng(seed, "report")))
    ref = derive_rng(seed, "report")
    noise = reference_symmetric(d, sigma, ref) if sigma > 0 else np.zeros((d, d))
    z = float(x @ theta_hat)
    moment = z * x + (ref.normal(0.0, sigma, size=d) if sigma > 0 else 0.0)
    grad = (link.g(z) - y) * x
    grad = grad + ref.normal(0.0, sigma, size=d) if sigma > 0 else grad
    assert bits(report.gram) == bits(np.outer(x, x) + noise)
    assert bits(report.moment) == bits(moment)
    assert bits(report.gradient) == bits(grad)


def in_order_sum(terms) -> float:
    """terms summed left to right from the first one, as the environment's
    column sums are (left_to_right_sum's 0.0 + -0.0 would drop a sign)."""
    total = terms[0]
    for v in terms[1:]:
        total += v
    return total


class PerRoundContextualEnv(ContextualEnv):
    """The contextual environment drawing each round on its own and shaping
    it in Python floats, arm set at step and reward uniform at reward from a
    plain Generator: the reference the block drawing replaces."""

    def step(self, t: int) -> ContextualRound:
        theta = self.theta_star.tolist()
        arms, scores = [], []
        for g in self.rng.standard_normal((self.k, self.d + 2)).tolist():
            norm = math.sqrt(in_order_sum([v * v for v in g]))
            x = [v / norm for v in g[:self.d]]
            arms.append(x)
            scores.append(in_order_sum([a * b for a, b in zip(x, theta)]))
        self._open = scores
        return ContextualRound(arms=np.array(arms), scores=scores, best_score=max(scores) + 0.0)

    def reward(self, arm: int) -> float:
        a = self._open[arm]
        if self.link is None:
            return a + float(self.rewards.uniform(-1.0, 1.0))
        return float(self.rewards.random() < self.link.g(a))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1),
    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
)
def test_block_environment_matches_per_round_reference(d, k, glm, seed, theta):
    theta = np.array(theta[:d])
    theta /= max(1.0, float(np.linalg.norm(theta)) * (1.0 + 1e-15))
    link = logistic_link() if glm else None
    block = ContextualEnv(theta, k, np.random.default_rng(seed),
                          DrawAhead(derive_rng(seed, "reward")), link=link)
    reference = PerRoundContextualEnv(theta, k, np.random.default_rng(seed),
                                      derive_rng(seed, "reward"), link=link)
    with pytest.raises(ContractViolation):
        block.reward(0)  # no round is open yet
    played = np.random.default_rng(seed + 1).integers(k, size=4 * mechanisms.DRAW_AHEAD)
    kept = []
    # four whole blocks: three block boundaries crossed
    for t, arm in enumerate(played.tolist(), start=1):
        rnd, ref = block.step(t), reference.step(t)
        assert bits(rnd.arms) == bits(ref.arms)
        assert bits(rnd.scores) == bits(ref.scores)
        assert bits(rnd.best_score) == bits(ref.best_score)
        assert bits(block.instant_regret(rnd, arm)) == bits(reference.instant_regret(ref, arm))
        assert bits(block.reward(arm)) == bits(reference.reward(arm))
        if t % 97 == 1:
            kept.append((rnd.arms, rnd.arms.copy()))
    with pytest.raises(ContractViolation):
        block.reward(arm)  # the round's reward is used
    assert block.rng.bit_generator.state == reference.rng.bit_generator.state
    for arms, copy in kept:  # later blocks do not write into earlier rounds
        assert bits(arms) == bits(copy)


def test_large_environment_blocks_hold_at_most_the_float_cap():
    # K = 200, d = 40: 8,400 normals a round, so a block holds 65,536 // 8,400
    # = 7 rounds, not DRAW_AHEAD
    k, d, seed = 200, 40, 5
    assert mechanisms._block_rounds(k * (d + 2)) == 7
    theta = np.random.default_rng(seed).standard_normal(d)
    theta /= 2.0 * float(np.linalg.norm(theta))
    block = ContextualEnv(theta, k, np.random.default_rng(seed),
                          DrawAhead(derive_rng(seed, "reward")))
    reference = PerRoundContextualEnv(theta, k, np.random.default_rng(seed),
                                      derive_rng(seed, "reward"))
    twin = np.random.default_rng(seed)
    twin.standard_normal((7, k, d + 2))
    for t in range(1, 10):  # across the block edge after round 7
        rnd, ref = block.step(t), reference.step(t)
        if t == 1:
            assert block.rng.bit_generator.state == twin.bit_generator.state
        assert bits(rnd.arms) == bits(ref.arms)
        assert bits(rnd.scores) == bits(ref.scores)
        assert bits(rnd.best_score) == bits(ref.best_score)


# ---------------------------------------------------------------------------
# the adversarial MAB comparator


@SETTINGS
@given(st.integers(1, 2_000), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_prefix_best_matches_running_sum(horizon, n_arms, seed):
    # the best fixed arm's loss over rounds 1..t by its definition, a running
    # per-arm total, against the harness's cumulative sum over the table
    table = np.random.default_rng(seed).random((horizon, n_arms))
    running = np.zeros(n_arms)
    best = []
    for row in table:
        running += row
        best.append(float(running.min()))
    assert bits(np.cumsum(table, axis=0).min(axis=1)) == bits(best)
