"""Reduction calibrations, trajectory-equivalence identities, and the wraps.

The core identities: with the noise stream fixed, the private wrapped run is
exactly the bare black-box run on noise-shifted losses; with sigma = 0 the
wrapped run is bit-identical to the bare run.
"""

import math

import mpmath
import numpy as np
import pytest

from ldpbandits import (
    ContractViolation,
    DecisionSet,
    FkmBandit,
    LdpBaiLearner,
    LdpMabLearner,
    OnePointConfig,
    PerturbedValue,
    PrivacyParams,
    TsallisInf,
    TwoPointBandit,
    TwoPointConfig,
    derive_rng,
    effective_loss_bound,
    one_point_round,
    one_point_sigma,
    two_point_round,
    two_point_sigma,
)

mpmath.mp.dps = 50
PRIVACY = PrivacyParams(1.0, 1e-5)
BALL_3D = DecisionSet.ball(1.0, dim=3)


def quad_loss(x):
    x_star = np.array([0.3, 0.0, 0.0])
    return float((x - x_star) @ (x - x_star))


class TestSigmas:
    def test_one_point_formula(self):
        expected = float(
            2 * mpmath.mpf("0.7") * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mpmath.mpf("1e-5")))
        )
        assert one_point_sigma(PRIVACY, 0.7) == pytest.approx(expected, rel=1e-12)

    def test_two_point_formula(self):
        expected = float(
            2 * 3 * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mpmath.mpf("1e-5"))) / 2
        )
        assert two_point_sigma(PrivacyParams(2.0, 1e-5), 3.0) == pytest.approx(expected, rel=1e-12)

    def test_baseline_sigma_zero(self):
        assert one_point_sigma(None, 1.0) == 0.0
        assert two_point_sigma(None, 1.0) == 0.0

    def test_mab_sigma_example(self):
        # B = 0.5 gives sigma = sqrt(2 ln(1.25/delta)) / eps ~= 4.8448
        assert one_point_sigma(PRIVACY, 0.5) == pytest.approx(4.8448, abs=1e-4)

    def test_default_two_point_schedule(self):
        config = TwoPointConfig.for_horizon(PRIVACY, 1.0, 100_000, 1.0)
        assert config.eta == pytest.approx(1.0 / math.sqrt(100_000), rel=1e-12)
        assert config.rho == pytest.approx(math.log(100_000) / 100_000, rel=1e-12)
        assert config.xi == pytest.approx(config.rho, rel=1e-12)

    def test_effective_bound(self):
        assert effective_loss_bound(1.0, 0.0, 1000) == 1.0
        t = 1000
        expected = 1.0 + 2.0 * math.sqrt(2 * math.log(2.0 * t * t))
        assert effective_loss_bound(1.0, 2.0, t) == pytest.approx(expected, rel=1e-12)


def run_wrapped_one_point(seed, horizon, privacy):
    config = OnePointConfig(privacy=privacy, loss_bound=2.0)
    learner = FkmBandit(BALL_3D, 0.01, 0.05, 0.05, derive_rng(seed, 0, "learner"))
    noise_rng = derive_rng(seed, 0, "noise")
    trajectory = []
    for t in range(1, horizon + 1):
        result = one_point_round(learner, quad_loss, config, noise_rng)
        trajectory.append(np.asarray(result.action))
    return np.vstack(trajectory)


def run_bare_one_point_on_pseudo_losses(seed, horizon, noise_values):
    learner = FkmBandit(BALL_3D, 0.01, 0.05, 0.05, derive_rng(seed, 0, "learner"))
    trajectory = []
    for t in range(1, horizon + 1):
        x = learner.propose()
        trajectory.append(x)
        learner.observe(quad_loss(x) + noise_values[t - 1])
    return np.vstack(trajectory)


class TestOnePointEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_wrapped_equals_pseudo_loss_run(self, seed):
        horizon = 200
        wrapped = run_wrapped_one_point(seed, horizon, PRIVACY)
        sigma = one_point_sigma(PRIVACY, 2.0)
        noise_rng = derive_rng(seed, 0, "noise")
        noise = [noise_rng.normal(0.0, sigma) for _ in range(horizon)]
        bare = run_bare_one_point_on_pseudo_losses(seed, horizon, noise)
        assert np.array_equal(wrapped, bare)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_noise_is_bare_trajectory(self, seed):
        horizon = 200
        wrapped = run_wrapped_one_point(seed, horizon, None)
        bare = run_bare_one_point_on_pseudo_losses(seed, horizon, np.zeros(horizon))
        assert np.array_equal(wrapped, bare)

    def test_feedback_minus_true_loss_moments(self):
        config = OnePointConfig(privacy=PRIVACY, loss_bound=2.0)
        learner = FkmBandit(BALL_3D, 0.001, 0.05, 0.05, derive_rng(3, 0, "learner"))
        noise_rng = derive_rng(3, 0, "noise")
        diffs = []
        for _ in range(100_000):
            result = one_point_round(learner, quad_loss, config, noise_rng)
            diffs.append(result.feedback - result.true_loss)
        diffs = np.asarray(diffs)
        sigma = config.sigma
        assert abs(diffs.mean()) < 4 * sigma / math.sqrt(diffs.size)
        assert abs(diffs.var() / sigma**2 - 1.0) < 0.05

    def test_sensitivity_guard(self):
        # any first query has loss >= (0.3 - 0.05)^2 = 0.0625 > 0.01
        config = OnePointConfig(privacy=PRIVACY, loss_bound=0.01)
        learner = FkmBandit(BALL_3D, 0.01, 0.05, 0.05, derive_rng(0, 0, "learner"))
        with pytest.raises(ContractViolation):
            one_point_round(learner, quad_loss, config, derive_rng(0, 0, "noise"))

    def test_feedback_is_tainted(self):
        config = OnePointConfig(privacy=None, loss_bound=2.0)
        learner = FkmBandit(BALL_3D, 0.01, 0.05, 0.05, derive_rng(1, 0, "learner"))
        result = one_point_round(learner, quad_loss, config, derive_rng(1, 0, "noise"))
        assert isinstance(result.feedback, PerturbedValue)
        assert not isinstance(result.true_loss, PerturbedValue)


def make_two_point(seed, privacy, horizon=300):
    config = TwoPointConfig.for_horizon(privacy, 3.0, horizon, 1.0, rho=0.05, xi=0.05)
    learner = TwoPointBandit(BALL_3D, config.eta, config.rho, config.xi,
                             derive_rng(seed, 1, "learner"))
    return config, learner


class TestTwoPointEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_wrapped_equals_pseudo_loss_run(self, seed):
        horizon = 200
        config, learner = make_two_point(seed, PRIVACY, horizon)
        noise_rng = derive_rng(seed, 1, "noise")
        wrapped = []
        for t in range(1, horizon + 1):
            result = two_point_round(learner, quad_loss, config, noise_rng)
            wrapped.append(np.concatenate([result.x1, result.x2]))
        wrapped = np.vstack(wrapped)

        # bare run on pseudo-losses f(x) + n_t . x, sharing the learner stream;
        # the difference hook evaluates the same floating-point expression the
        # wrap produces, which is the pseudo-loss difference exactly.
        noise_rng = derive_rng(seed, 1, "noise")
        noise = [noise_rng.normal(0.0, config.sigma, size=3) for _ in range(horizon)]
        _, bare = make_two_point(seed, PRIVACY, horizon)
        trajectory = []
        for t in range(1, horizon + 1):
            x1, x2 = bare.queries()
            trajectory.append(np.concatenate([x1, x2]))
            diff = quad_loss(x1) - quad_loss(x2) + float(noise[t - 1] @ (x1 - x2))
            pseudo_direct = (quad_loss(x1) + float(noise[t - 1] @ x1)) - (
                quad_loss(x2) + float(noise[t - 1] @ x2)
            )
            assert diff == pytest.approx(pseudo_direct, abs=1e-12)
            bare.update(diff)
        assert np.array_equal(wrapped, np.vstack(trajectory))

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_noise_is_bare_trajectory(self, seed):
        horizon = 200
        config, learner = make_two_point(seed, None, horizon)
        noise_rng = derive_rng(seed, 1, "noise")
        wrapped = []
        for t in range(1, horizon + 1):
            result = two_point_round(learner, quad_loss, config, noise_rng)
            wrapped.append(np.concatenate([result.x1, result.x2]))

        _, bare = make_two_point(seed, None, horizon)
        for t in range(1, horizon + 1):
            x1, x2 = bare.queries()
            assert np.array_equal(np.concatenate([x1, x2]), wrapped[t - 1])
            bare.update(quad_loss(x1) - quad_loss(x2))

    def test_perturbation_variance(self):
        # n . (x1 - x2) has variance 4 rho^2 sigma^2
        config, learner = make_two_point(0, PRIVACY, 200_000)
        noise_rng = derive_rng(0, 1, "noise")
        vals = []
        for _ in range(100_000):
            result = two_point_round(learner, quad_loss, config, noise_rng)
            raw = result.true_loss_1 - result.true_loss_2
            vals.append(result.feedback - raw)
        expected = 4.0 * config.rho**2 * config.sigma**2
        assert np.var(vals) == pytest.approx(expected, rel=0.05)

    def test_lipschitz_guard(self):
        config = TwoPointConfig.for_horizon(PRIVACY, 0.01, 100, 1.0, rho=0.05, xi=0.05)
        learner = TwoPointBandit(BALL_3D, config.eta, config.rho, config.xi,
                                 derive_rng(0, 1, "learner"))
        with pytest.raises(ContractViolation):
            two_point_round(learner, quad_loss, config, derive_rng(0, 1, "noise"))


class TestWrapMab:
    def test_recentring(self):
        learner = LdpMabLearner(None, 2, derive_rng(0, 0, "learner"),
                                derive_rng(0, 0, "noise"))
        arm = learner.propose()
        learner.observe(1.0)
        assert learner.inner.lhat[arm] == pytest.approx(0.5 / 0.5)  # 0.5 / p with p=0.5
        learner2 = LdpMabLearner(None, 2, derive_rng(0, 0, "learner"),
                                 derive_rng(0, 0, "noise"))
        arm2 = learner2.propose()
        learner2.observe(0.0)
        assert learner2.inner.lhat[arm2] == pytest.approx(-0.5 / 0.5)

    def test_sigma_value(self):
        learner = LdpMabLearner(PRIVACY, 3, derive_rng(0, 0), derive_rng(0, 1))
        assert learner.sigma == pytest.approx(4.8448, abs=1e-4)

    def test_loss_range_contract(self):
        learner = LdpMabLearner(None, 2, derive_rng(0, 0), derive_rng(0, 1))
        learner.propose()
        with pytest.raises(ContractViolation):
            learner.observe(1.5)

    def test_zero_noise_matches_bare_tsallis(self):
        horizon = 500
        rng_env = derive_rng(5, 0, "environment")
        losses = rng_env.random(horizon)
        wrapped = LdpMabLearner(None, 3, derive_rng(5, 0, "learner"), derive_rng(5, 0, "noise"))
        bare = TsallisInf(3, derive_rng(5, 0, "learner"))
        for t in range(horizon):
            arm_w = wrapped.propose()
            arm_b, prob_b = bare.sample()
            assert arm_w == arm_b
            wrapped.observe(losses[t])
            bare.update(arm_b, losses[t] - 0.5, prob_b)
        assert np.array_equal(wrapped.inner.lhat, bare.lhat)

    def test_huge_epsilon_tracks_nonprivate_regret(self):
        # eps so large the noise is negligible: paired mean regret within 5%
        horizon = 100_000
        means = np.array([0.5, 0.3])
        reps = 16
        totals = {"private": 0.0, "bare": 0.0}
        weak = PrivacyParams(1e6, 1e-5)
        for rep in range(reps):
            env_rng = derive_rng(40 + rep, 0, "environment")
            draws = env_rng.random((horizon, 2))
            for label, privacy in (("private", weak), ("bare", None)):
                learner = LdpMabLearner(privacy, 2, derive_rng(40 + rep, 0, "learner"),
                                        derive_rng(40 + rep, 0, "noise"))
                regret = 0.0
                for t in range(horizon):
                    arm = learner.propose()
                    learner.observe(float(draws[t, arm] < means[arm]))
                    regret += means[arm] - means.min()
                totals[label] += regret
        assert totals["private"] == pytest.approx(totals["bare"], rel=0.05)


class TestWrapBai:
    def test_zero_noise_proxy(self):
        learner = LdpBaiLearner(None, 3, 0.1, derive_rng(0, 0, "noise"))
        assert learner.variance_proxy == 0.25

    def test_inflated_proxy_example(self):
        learner = LdpBaiLearner(PRIVACY, 3, 0.1, derive_rng(0, 0, "noise"))
        sigma_sq = one_point_sigma(PRIVACY, 0.5) ** 2
        assert learner.variance_proxy == pytest.approx(0.25 + sigma_sq, rel=1e-12)
        assert learner.variance_proxy == pytest.approx(23.72, abs=0.01)

    def test_reward_contract(self):
        learner = LdpBaiLearner(None, 2, 0.1, derive_rng(0, 0, "noise"))
        with pytest.raises(ContractViolation):
            learner.observe(0, -0.5)

    def test_stop_count_scales_with_proxy(self):
        # inflating the proxy 4x should scale pulls roughly 4x (ratio in [3, 5.5])
        means = np.array([0.9, 0.6, 0.4])
        pulls = {1.0: [], 4.0: []}
        from ldpbandits import LilUcb

        for factor in (1.0, 4.0):
            for seed in range(100):
                rng = derive_rng(seed, 17, "environment")
                learner = LilUcb(3, gamma=0.1, variance_proxy=0.25 * factor)
                while not learner.stopped and learner.total_pulls < 200_000:
                    arm = learner.select()
                    learner.update(arm, float(rng.random() < means[arm]))
                learner.force_stop()
                pulls[factor].append(learner.total_pulls)
        ratio = np.mean(pulls[4.0]) / np.mean(pulls[1.0])
        assert 3.0 <= ratio <= 5.5
