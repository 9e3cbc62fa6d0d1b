"""The per-round kernels against the NumPy expressions they replace.

Every comparison is bitwise: the kernels must emit the same bytes, not
nearly the same numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpbandits import LilUcb, LilUcbParams, TsallisInf, derive_rng, symmetric_gaussian_matrix
from ldpbandits.blackbox import _norm, _tsallis_newton, _tsallis_unnormalized
from ldpbandits.contextual import _solve, glm_local_report, linear_local_report, logistic_link
from ldpbandits.environments import sample_unit_ball

SETTINGS = settings(max_examples=200, deadline=None)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# the 1-d norm


@SETTINGS
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(1e-6, 1e6))
def test_norm_matches_linalg_norm(d, seed, scale):
    v = np.random.default_rng(seed).standard_normal(d) * scale
    assert bits(_norm(v)) == bits(np.linalg.norm(v))


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
    assert scalar.total_pulls == int(reference.counts.sum())
    scalar.force_stop()
    assert scalar.best == (reference.best if reference.stopped
                           else int(np.argmax(reference.counts)))


# ---------------------------------------------------------------------------
# Tsallis-INF


def reference_weights(lhat: np.ndarray, z: float, inv_eta2: float) -> np.ndarray:
    q = lhat - z
    w = 4.0 * inv_eta2 / (q * q)
    return w / w.sum()


def reference_draw(w: np.ndarray, u: float) -> tuple[int, float]:
    arm = min(int(np.searchsorted(np.cumsum(w), u)), w.size - 1)
    return arm, float(w[arm])


class FixedDraw:
    """A stand-in for the learner's generator that returns a chosen u."""

    def __init__(self, u):
        self.u = u

    def random(self):
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
    assert bits(total) == bits((4.0 * inv_eta2 / (q * q)).sum())
    assert bits([x / total for x in w]) == bits(reference_weights(lhat, z, inv_eta2))


@SETTINGS
@given(st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0, exclude_max=True))
@example(300, 2, float(np.nextafter(1.0, 0.0)))  # rounding leaves the sum below u
@example(2, 7, 0.0)
def test_tsallis_sample_matches_numpy_draw(k, seed, u):
    lhat, t = random_state(k, seed)
    learner = TsallisInf(k, FixedDraw(u))
    learner.lhat[:] = lhat
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
    learner = TsallisInf(1, rng)
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
    with pytest.raises(np.linalg.LinAlgError):
        _solve(np.zeros((3, 3)), rhs)


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


@SETTINGS
@given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_unit_ball_matches_linalg_norm_rows(n, d, seed):
    ref_rng = np.random.default_rng(seed)
    g = ref_rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    ref = g * (ref_rng.random(n) ** (1.0 / d))[:, None]
    assert bits(sample_unit_ball(n, d, np.random.default_rng(seed))) == bits(ref)


@SETTINGS
@given(st.integers(1, 6), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_local_report_grams_match_outer(d, sigma, seed):
    x = sample_unit_ball(1, d, np.random.default_rng(seed))[0]
    theta_hat = sample_unit_ball(1, d, np.random.default_rng(seed + 1))[0]
    ref = derive_rng(seed, "reference")
    noise = reference_symmetric(d, sigma, ref) if sigma > 0 else np.zeros((d, d))
    linear = linear_local_report(x, 0.5, sigma, derive_rng(seed, "reference"))
    assert bits(linear.gram) == bits(np.outer(x, x) + noise)
    glm = glm_local_report(x, 1.0, theta_hat, logistic_link(), sigma,
                           derive_rng(seed, "reference"))
    assert bits(glm.gram) == bits(np.outer(x, x) + noise)


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
