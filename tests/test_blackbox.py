"""Projections, gradient estimators, Tsallis-INF weights, and lil'UCB."""

import math

import numpy as np
import pytest

from ldpbandits import (
    ConfigurationError,
    ContractViolation,
    DecisionSet,
    DrawAhead,
    FkmBandit,
    LilUcb,
    TsallisInf,
    TwoPointBandit,
    derive_rng,
    project,
)

UNIT_BALL_2D = DecisionSet.ball(1.0, dim=2)


def stream(*labels) -> DrawAhead:
    return DrawAhead(derive_rng(*labels))


class TestDecisionSet:
    def test_ball_radii(self):
        ball = DecisionSet.ball(2.0, dim=3)
        assert ball.radius == 2.0
        assert ball.dim == 3

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_1_rejected(self, dim):
        with pytest.raises(ConfigurationError):
            DecisionSet.ball(1.0, dim=dim)


class TestProject:
    def test_interior_point_unchanged(self):
        p = np.array([0.2, 0.1])
        assert np.array_equal(project(p, UNIT_BALL_2D), p)

    def test_radial_scaling(self):
        out = project(np.array([3.0, 0.0]), UNIT_BALL_2D)
        assert np.allclose(out, [1.0, 0.0])

    def test_shrunken_scaling(self):
        # the learners project onto (1 - xi) * X, here X = the unit ball, xi = 0.5
        out = project(np.array([3.0, 0.0]), DecisionSet.ball(0.5, dim=2))
        assert np.allclose(out, [0.5, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ball = DecisionSet.ball(0.7, dim=2)
        for _ in range(50):
            p = rng.normal(0, 2, 2)
            once = project(p, ball)
            assert np.allclose(project(once, ball), once, atol=1e-15)

    @pytest.mark.parametrize("dset", [DecisionSet.ball(1.5, dim=3)])
    def test_projection_optimality(self, dset):
        # the projection is closer to p than any feasible point
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = rng.normal(0, 3, 3)
            proj = project(p, dset)
            q = project(rng.normal(0, 3, 3), dset)  # a feasible point
            assert np.linalg.norm(proj - p) <= np.linalg.norm(q - p) + 1e-9


@pytest.mark.parametrize("learner", [FkmBandit, TwoPointBandit], ids=["fkm", "two_point"])
@pytest.mark.parametrize("rho, xi", [(0.3, 0.1), (0.1, 1.0)], ids=["rho_above_xi_r", "xi_1"])
def test_infeasible_rho_rejected(learner, rho, xi):
    # the checks both learners share: rho <= xi * r with xi in [0, 1)
    with pytest.raises(ConfigurationError):
        learner(UNIT_BALL_2D, 0.01, rho=rho, xi=xi, rng=stream(0, 0))


class TestFkm:
    def _learner(self, eta=0.01, rho=0.1, xi=0.1, seed=0):
        return FkmBandit(UNIT_BALL_2D, eta, rho, xi, stream(seed, 0, "learner"))

    def test_zero_loss_keeps_center(self):
        learner = self._learner()
        learner.propose()
        y_before = learner.y.copy()
        learner.observe(0.0)
        assert np.array_equal(learner.y, y_before)

    def test_hand_update(self):
        # (d/rho) * loss * u = (2/0.1) * 0.3 * (0,1) = (0,6); y moves by -eta * that
        learner = self._learner(eta=0.01, rho=0.1, xi=0.1)
        learner.u = np.array([0.0, 1.0])
        learner.observe(0.3)
        assert np.allclose(learner.y, [0.0, -0.06], atol=1e-15)

    def test_query_on_sphere_of_radius_rho(self):
        learner = self._learner()
        x = learner.propose()
        assert np.linalg.norm(np.subtract(x, learner.y)) == pytest.approx(0.1, abs=1e-12)

    def test_queries_stay_feasible(self):
        learner = self._learner(eta=0.05, rho=0.08, xi=0.1, seed=3)
        rng = np.random.default_rng(9)
        for _ in range(2000):
            learner.observe(rng.uniform(-1, 1))
            x = learner.propose()
            assert UNIT_BALL_2D.contains(x, tol=1e-9)

    def test_estimator_matches_smoothed_gradient(self):
        # E_u[(d/rho) f(y + rho u) u] is the gradient of the ball-smoothed f;
        # oracle: central finite differences of a Monte-Carlo estimate of the
        # smoothed function, common random numbers across evaluation points.
        d, rho = 2, 0.1
        y = np.array([0.3, 0.0])
        rng = np.random.default_rng(7)
        n = 1_000_000

        def f(points):
            return np.sum(points * points, axis=1)

        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        estimate = ((d / rho) * f(y + rho * u))[:, None] * u
        est_mean = estimate.mean(axis=0)

        ball = rng.standard_normal((n, d))
        ball /= np.linalg.norm(ball, axis=1)[:, None]
        ball *= rng.random(n)[:, None] ** (1.0 / d)
        h = 1e-3
        oracle = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            oracle[i] = (
                f(y + e + rho * ball).mean() - f(y - e + rho * ball).mean()
            ) / (2 * h)
        assert np.linalg.norm(est_mean - oracle) < 0.05


class TestTwoPoint:
    def _learner(self, eta=0.01, rho=0.1, xi=0.1, mu=0.0, seed=0):
        return TwoPointBandit(UNIT_BALL_2D, eta, rho, xi, stream(seed, 0, "learner"), mu=mu)

    def test_query_geometry(self):
        learner = self._learner()
        x1, x2 = map(np.array, learner.queries())
        assert np.array_equal((x1 + x2) / 2.0, learner.y)
        assert np.allclose(x1 - x2, 2 * 0.1 * np.array(learner.u), atol=1e-15)
        assert np.linalg.norm(learner.u) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 10])
    def test_query_separation(self, d):
        dset = DecisionSet.ball(1.0, dim=d)
        for seed in range(5):
            learner = TwoPointBandit(dset, 0.01, 0.1, 0.1, stream(seed, d))
            x1, x2 = map(np.array, learner.queries())
            assert np.linalg.norm(x1 - x2) == pytest.approx(0.2, abs=1e-12)
            learner.update(0.0)

    def test_zero_difference_keeps_center(self):
        learner = self._learner()
        learner.queries()
        y = learner.y.copy()
        learner.update(0.0)
        assert np.array_equal(learner.y, y)

    def test_hand_gradient(self):
        # (d / 2 rho) * diff * u = 10 * 0.2 * (1,0) = (2, 0)
        learner = self._learner(eta=0.01)
        learner.queries()
        learner.u = np.array([1.0, 0.0])
        learner.update(0.2)
        assert np.allclose(learner.y, [-0.02, 0.0], atol=1e-15)

    def test_feasibility_sweep(self):
        dset = DecisionSet.ball(1.0, dim=3)
        learner = TwoPointBandit(dset, 0.05, 0.05, 0.05, stream(2, 0))
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            x1, x2 = learner.queries()
            assert np.linalg.norm(x1) <= 1.0 + 1e-9
            assert np.linalg.norm(x2) <= 1.0 + 1e-9
            learner.update(rng.uniform(-0.02, 0.02))

    def test_ordering_enforced(self):
        learner = self._learner()
        with pytest.raises(ContractViolation):
            learner.update(0.0)
        learner.queries()
        with pytest.raises(ContractViolation):
            learner.queries()

    def test_noiseless_convergence_average_iterate(self):
        # f(x) = |x - x*|^2 in d=5; the averaged center approaches x*.
        d, horizon = 5, 100_000
        dset = DecisionSet.ball(1.0, dim=d)
        x_star = np.zeros(d)
        x_star[0] = 0.3
        learner = TwoPointBandit(dset, 1.0 / math.sqrt(horizon), 0.01, 0.01, stream(5, 0))
        total = np.zeros(d)
        for _ in range(horizon):
            x1, x2 = map(np.array, learner.queries())
            diff = float((x1 - x_star) @ (x1 - x_star) - (x2 - x_star) @ (x2 - x_star))
            learner.update(diff)
            total += learner.y
        assert np.linalg.norm(total / horizon - x_star) < 0.05

    def test_strongly_convex_step_size(self):
        learner = self._learner(mu=2.0)
        learner.queries()
        learner.u = np.array([1.0, 0.0])
        learner.update(0.2)  # eta_1 = 1/(2*1) = 0.5, step = 0.5 * (2,0) = (1,0) -> project
        assert np.allclose(learner.y, [-0.9, 0.0])  # projected onto (1-xi) ball


def tsallis_learner(lhat, eta: float) -> TsallisInf:
    """A Tsallis-INF learner whose next weights use the loss estimates lhat
    and the learning rate eta (eta_t = 2 / sqrt(t) at t = 4 / eta^2)."""
    learner = TsallisInf(len(lhat), stream(0, 0))
    learner.lhat = [float(v) for v in lhat]
    learner.t = 4.0 / (eta * eta)
    return learner


def bisection_weights(lhat, eta: float, tol: float = 1e-12, max_iter: int = 200):
    """Reference weights 4 / (eta^2 (lhat_i - z)^2) with z found by bisection.

    The residual h(z) = sum_i 4 / (eta^2 (lhat_i - z)^2) - 1 is increasing on
    z < min(lhat), and (min - 2K/eta, min) brackets its root.  Returns the
    weights normalised by their sum and that sum.
    """
    lhat = np.asarray(lhat, dtype=float)
    k = lhat.size
    lmin = float(lhat.min())

    def residual(z):
        q = lhat - z
        return 4.0 / (eta * eta) * np.sum(1.0 / (q * q)) - 1.0

    lo = lmin - 2.0 * k / eta
    hi = lmin - 1e-15 * max(1.0, abs(lmin))
    z = 0.5 * (lo + hi)
    for _ in range(max_iter):
        h = residual(z)
        if abs(h) <= tol:
            break
        if h > 0:
            hi = z
        else:
            lo = z
        z = 0.5 * (lo + hi)
    w = 4.0 / (eta * eta * (lhat - z) ** 2)
    return w / w.sum(), float(w.sum())


def newton_weights(lhat, eta: float):
    """TsallisInf.weights() at (lhat, eta), and the unnormalised sum at its root."""
    learner = tsallis_learner(lhat, eta)
    w = np.array(learner.weights())
    eta = learner.eta()
    return w, float(np.sum(4.0 / (eta * eta * (np.asarray(learner.lhat) - learner._z) ** 2)))


class TestTsallisWeights:
    def test_uniform_when_equal(self):
        w = tsallis_learner(np.zeros(4), eta=1.0).weights()
        assert np.allclose(w, 0.25, atol=1e-9)

    def test_degenerate_single_arm(self):
        assert tsallis_learner(np.zeros(1), eta=1.0).weights() == [1.0]

    @pytest.mark.parametrize("method", ["newton", "bisection"])
    def test_normalization_residual(self, method):
        solve = newton_weights if method == "newton" else bisection_weights
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            lhat = rng.normal(0, rng.uniform(0.5, 50), k)
            eta = float(rng.uniform(0.01, 2.0))
            w, total = solve(lhat, eta)
            assert abs(total - 1.0) < 1e-9
            assert abs(w.sum() - 1.0) < 1e-9
            assert np.all(w > 0)

    def test_methods_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            lhat = rng.normal(0, 10, 5)
            learner = tsallis_learner(lhat, float(rng.uniform(0.05, 1.0)))
            a = learner.weights()
            b, _ = bisection_weights(lhat, learner.eta())
            assert np.allclose(a, b, atol=1e-8)

    def test_normalization_many_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            _, total = newton_weights(rng.normal(0, 20, 5), eta=0.1)
            assert abs(total - 1.0) < 1e-9

    def test_lower_loss_gets_higher_weight(self):
        w = tsallis_learner(np.array([0.0, 5.0, 10.0]), eta=0.5).weights()
        assert w[0] > w[1] > w[2]


class TestTsallisInf:
    def test_sample_returns_probability(self):
        learner = TsallisInf(4, stream(0, 0))
        arm, prob = learner.sample()
        assert 0 <= arm < 4
        assert prob == pytest.approx(0.25, abs=1e-9)

    def test_single_arm(self):
        learner = TsallisInf(1, stream(0, 0))
        assert learner.sample() == (0, 1.0)

    def test_update_arithmetic(self):
        learner = TsallisInf(4, stream(0, 0))
        learner.update(2, 0.5, 0.25)
        assert learner.lhat[2] == pytest.approx(2.0)
        assert learner.lhat[0] == learner.lhat[1] == learner.lhat[3] == 0.0

    def test_zero_loss_no_change(self):
        learner = TsallisInf(4, stream(0, 0))
        learner.update(1, 0.0, 0.25)
        assert learner.lhat == [0.0] * 4

    def test_nonpositive_probability_rejected(self):
        learner = TsallisInf(4, stream(0, 0))
        with pytest.raises(ContractViolation):
            learner.update(0, 0.5, 0.0)

    def test_importance_weighting_unbiased(self):
        # with a fixed sampling distribution, E[lhat increment_i] = loss_i
        rng = np.random.default_rng(11)
        w = np.array([0.1, 0.6, 0.3])
        losses = np.array([0.2, -0.4, 0.5])
        n = 1_000_000
        arms = rng.choice(3, size=n, p=w)
        estimates = np.zeros(3)
        np.add.at(estimates, arms, losses[arms] / w[arms])
        assert np.allclose(estimates / n, losses, atol=0.01)


class TestLilUcb:
    def test_single_arm_immediately_stopped(self):
        learner = LilUcb(1, gamma=0.1, variance_proxy=0.25)
        assert learner.stopped
        assert learner.best == 0

    def test_deterministic_two_arms(self):
        # losses 0 vs 1 => rewards 1 vs 0; the reward-1 arm must be identified
        for seed in range(50):
            learner = LilUcb(2, gamma=0.1, variance_proxy=0.25)
            rewards = [1.0, 0.0]
            pulls = 0
            while not learner.stopped:
                arm = learner.select()
                learner.update(arm, rewards[arm])
                pulls += 1
                assert pulls < 1000
            assert learner.best == 0

    def test_bootstrap_pulls_each_arm_once(self):
        learner = LilUcb(3, gamma=0.1, variance_proxy=0.25)
        seen = []
        for _ in range(3):
            arm = learner.select()
            seen.append(arm)
            learner.update(arm, 0.5)
        assert sorted(seen) == [0, 1, 2]

    def test_stopped_flag_monotone(self):
        learner = LilUcb(2, gamma=0.1, variance_proxy=0.25)
        flags = []
        while not learner.stopped:
            arm = learner.select()
            learner.update(arm, 1.0 if arm == 0 else 0.0)
            flags.append(learner.stopped)
        assert flags == sorted(flags)  # False ... False True
        with pytest.raises(ContractViolation):
            learner.select()

    def test_success_rate_bernoulli(self):
        # 3-arm Bernoulli rewards, gaps 0.3/0.5, non-private proxy
        means = np.array([0.9, 0.6, 0.4])
        hits = 0
        for seed in range(60):
            rng = derive_rng(seed, 0, "environment")
            learner = LilUcb(3, gamma=0.1, variance_proxy=0.25)
            while not learner.stopped and sum(learner.counts) < 100_000:
                arm = learner.select()
                learner.update(arm, float(rng.random() < means[arm]))
            learner.force_stop()
            hits += learner.best == 0
        assert hits / 60 >= 0.9

    def test_force_stop_reports_most_pulled(self):
        learner = LilUcb(2, gamma=0.1, variance_proxy=0.25)
        for arm, reward in [(0, 1.0), (1, 0.0), (0, 1.0)]:
            learner.counts[arm] += 1  # direct bookkeeping for the cap path
            learner.sums[arm] += reward
        learner.force_stop()
        assert learner.stopped
        assert learner.best == 0
