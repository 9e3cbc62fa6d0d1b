"""Confidence formulas, local reports, server updates and action selection."""

import math

import mpmath
import numpy as np
import pytest

from ldpbandits import (
    BaselineConfidence,
    ContractViolation,
    LdpConfidence,
    PrivacyParams,
    ReportNoise,
    ServerState,
    derive_rng,
    glm_local_report,
    glm_select_action,
    glm_server_update,
    glm_sigma,
    linear_local_report,
    linear_select_action,
    linear_server_update,
    linear_sigma,
    logistic_link,
)
from ldpbandits.contextual import LocalReport, project_unit_ball

mpmath.mp.dps = 50


def upsilon_oracle(sigma, t, d, horizon, alpha):
    s, t, d, T, a = map(mpmath.mpf, (sigma, t, d, horizon, alpha))
    return float(s * mpmath.sqrt(t) * (4 * mpmath.sqrt(d) + 2 * mpmath.log(2 * T / a)))


def beta_linear_oracle(sigma, t, d, horizon, alpha):
    s, t_, d_, T = map(mpmath.mpf, (sigma, t, d, horizon))
    ups = mpmath.mpf(upsilon_oracle(sigma, t, d, horizon, alpha))
    return float(
        2 * s * mpmath.sqrt(d_ * mpmath.log(T))
        + (mpmath.sqrt(3 * ups) + s * mpmath.sqrt(d_ * t_ / ups)) * d_ * mpmath.log(T)
    )


class TestSigmas:
    def test_linear_sigma(self):
        p = PrivacyParams(1.0, 1e-5)
        expected = float(6 * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("2.5") / mpmath.mpf("1e-5"))))
        assert linear_sigma(p) == pytest.approx(expected, rel=1e-12)

    def test_glm_sigma(self):
        p = PrivacyParams(2.0, 1e-3)
        expected = float(
            6 * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("3.75") / mpmath.mpf("1e-3"))) / 2
        )
        assert glm_sigma(p) == pytest.approx(expected, rel=1e-12)

    def test_baseline_zero(self):
        assert linear_sigma(None) == 0.0
        assert glm_sigma(None) == 0.0


class TestConfidenceParams:
    def test_c_is_twice_upsilon(self):
        conf = LdpConfidence(sigma=2.0, d=3, horizon=1000, alpha=0.1)
        for t in (1, 5, 100, 1000):
            assert conf.c(t) == pytest.approx(2.0 * conf.upsilon(t), rel=1e-15)

    def test_upsilon_matches_oracle_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sigma = float(rng.uniform(0.1, 40))
            d = int(rng.integers(1, 20))
            horizon = int(rng.integers(10, 10**6))
            alpha = float(rng.uniform(0.01, 0.5))
            t = int(rng.integers(1, horizon + 1))
            conf = LdpConfidence(sigma, d, horizon, alpha)
            assert conf.upsilon(t) == pytest.approx(
                upsilon_oracle(sigma, t, d, horizon, alpha), rel=1e-12
            )

    def test_round_zero_convention(self):
        conf = LdpConfidence(sigma=1.0, d=4, horizon=100, alpha=0.1)
        assert conf.upsilon(0) == conf.upsilon(1)
        assert conf.c(0) == conf.c(1)
        assert conf.beta_linear(0) == conf.beta_linear(1)

    def test_beta_linear_example(self):
        # sigma=1, t=4, d=4, T=10, alpha=1-epsilon: Upsilon = 2(8 + 2 ln 20)
        conf = LdpConfidence(sigma=1.0, d=4, horizon=10, alpha=1.0 - 1e-12)
        assert conf.upsilon(4) == pytest.approx(2 * (8 + 2 * math.log(20)), rel=1e-9)
        assert conf.upsilon(4) == pytest.approx(27.98293, abs=1e-4)
        # direct evaluation of the closed form (own high-precision oracle)
        assert conf.beta_linear(4) == pytest.approx(97.42258, abs=1e-4)
        assert conf.beta_linear(4) == pytest.approx(
            beta_linear_oracle(1.0, 4, 4, 10, 1.0 - 1e-12), rel=1e-9
        )

    def test_beta_linear_matches_oracle_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sigma = float(rng.uniform(0.1, 40))
            d = int(rng.integers(1, 20))
            horizon = int(rng.integers(10, 10**6))
            alpha = float(rng.uniform(0.01, 0.5))
            t = int(rng.integers(1, horizon + 1))
            conf = LdpConfidence(sigma, d, horizon, alpha)
            assert conf.beta_linear(t) == pytest.approx(
                beta_linear_oracle(sigma, t, d, horizon, alpha), rel=1e-12
            )

    def test_beta_linear_monotone_in_t(self):
        conf = LdpConfidence(sigma=3.0, d=3, horizon=10**4, alpha=0.1)
        betas = [conf.beta_linear(t) for t in range(1, 10_001, 37)]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))

    def test_beta_linear_sigma_scaling(self):
        for t in (1, 10, 100, 1000):
            b1 = LdpConfidence(1.0, 3, 10**4, 0.1).beta_linear(t)
            b2 = LdpConfidence(2.0, 3, 10**4, 0.1).beta_linear(t)
            assert 1.0 < b2 / b1 <= 2.0

    def test_beta_glm_example(self):
        # kappa=1, C=1, sigma=1, mu=0.25, d=4, t=4 and ln(2T/alpha) = 1
        # (T=1, alpha=2/e) give beta^2 = (1/0.25) * sqrt(16) * 1 = 16, beta = 4.
        from ldpbandits import LinkFunction

        link = LinkFunction(g=lambda a: a, m=lambda a: 0.5 * a * a,
                            value_bound=1.0, curvature=0.25)
        conf = LdpConfidence(sigma=1.0, d=4, horizon=1, alpha=2.0 / math.e)
        assert conf.beta_glm(4, link) == pytest.approx(4.0, rel=1e-12)

    def test_beta_glm_monotone_and_zero_sigma(self):
        link = logistic_link()
        conf = LdpConfidence(sigma=2.0, d=3, horizon=10**4, alpha=0.1)
        betas = [conf.beta_glm(t, link) for t in range(1, 5000, 13)]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
        assert LdpConfidence(0.0, 3, 100, 0.1).beta_glm(10, link) == 0.0

    def test_beta_glm_matches_oracle_randomized(self):
        link = logistic_link()
        rng = np.random.default_rng(3)
        for _ in range(100):
            sigma = float(rng.uniform(0.1, 40))
            d = int(rng.integers(1, 20))
            horizon = int(rng.integers(10, 10**6))
            alpha = float(rng.uniform(0.01, 0.5))
            kappa = float(rng.uniform(0.1, 5.0))
            t = int(rng.integers(1, horizon + 1))
            conf = LdpConfidence(sigma, d, horizon, alpha, kappa=kappa)
            expected = float(
                mpmath.sqrt(
                    mpmath.mpf(kappa)
                    * (mpmath.mpf(sigma) / mpmath.mpf(link.curvature))
                    * mpmath.sqrt(mpmath.mpf(d) * t)
                    * mpmath.log(2 * mpmath.mpf(horizon) / mpmath.mpf(alpha))
                )
            )
            assert conf.beta_glm(t, link) == pytest.approx(expected, rel=1e-12)


class TestLogisticLink:
    def test_values(self):
        link = logistic_link()
        assert link.g(0.0) == pytest.approx(0.5)
        assert link.g(1.0) == pytest.approx(0.7310585786300049, rel=1e-12)
        assert link.curvature == pytest.approx(0.19661193324148185, rel=1e-12)
        assert link.m(0.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # (g(x.theta) - y) x vs central differences of the loss in theta
        link = logistic_link()
        rng = np.random.default_rng(4)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 6))
            x = rng.normal(0, 0.5, d)
            x /= max(np.linalg.norm(x), 1.0)
            theta = rng.normal(0, 0.5, d)
            theta /= max(np.linalg.norm(theta), 1.0)
            y = float(rng.integers(0, 2))
            grad = link.gradient(x, y, theta)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                num = (
                    link.loss(float(x @ (theta + e)), y) - link.loss(float(x @ (theta - e)), y)
                ) / (2 * h)
                worst = max(worst, abs(num - grad[i]))
        assert worst < 1e-6

    def test_glm_gradient_example(self):
        link = logistic_link()
        grad = link.gradient(np.array([1.0, 0.0]), 1.0, np.zeros(2))
        assert np.allclose(grad, [-0.5, 0.0], atol=1e-12)


class TestLocalReports:
    def test_linear_noiseless(self):
        x = np.array([0.6, 0.8])
        report = linear_local_report(x, 1.5, 0.0, ReportNoise(derive_rng(0, 0)))
        assert np.array_equal(report.gram, np.outer(x, x))
        assert np.array_equal(report.moment, 1.5 * x)
        assert report.gradient is None

    def test_linear_bounds(self):
        rng = ReportNoise(derive_rng(0, 0))
        with pytest.raises(ContractViolation):
            linear_local_report(np.array([1.2, 0.0]), 1.0, 1.0, rng)
        with pytest.raises(ContractViolation):
            linear_local_report(np.array([0.5, 0.0]), 2.5, 1.0, rng)

    def test_gram_symmetry(self):
        rng = ReportNoise(derive_rng(1, 0))
        for _ in range(200):
            report = linear_local_report(np.array([0.3, -0.4, 0.1]), 0.7, 1.0, rng)
            assert np.array_equal(report.gram, report.gram.T)

    def test_report_unbiased(self):
        x = np.array([0.6, -0.3])
        y = 0.8
        rng = ReportNoise(derive_rng(2, 0))
        n = 100_000
        gram_sum = np.zeros((2, 2))
        moment_sum = np.zeros(2)
        for _ in range(n):
            report = linear_local_report(x, y, 1.0, rng)
            gram_sum += report.gram
            moment_sum += report.moment
        assert np.allclose(gram_sum / n, np.outer(x, x), atol=0.02)
        assert np.allclose(moment_sum / n, y * x, atol=0.02)

    def test_glm_report(self):
        link = logistic_link()
        x = np.array([1.0, 0.0])
        report = glm_local_report(x, 1.0, np.zeros(2), link, 0.0, ReportNoise(derive_rng(0, 0)))
        assert np.array_equal(report.gram, np.outer(x, x))
        assert np.array_equal(report.moment, 0.0 * x)
        assert np.allclose(report.gradient, [-0.5, 0.0])

    def test_glm_relabel_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            d = 3
            x = rng.normal(0, 1, d)
            x /= max(np.linalg.norm(x), 1.0)
            theta = rng.normal(0, 1, d)
            theta /= max(np.linalg.norm(theta), 1.0)
            assert abs(float(x @ theta)) <= 1.0 + 1e-12

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ContractViolation):
            LocalReport(gram=np.array([[1.0, 2.0], [0.0, 1.0]]), moment=np.zeros(2))


class FixedConfidence:
    """Confidence stub with a constant regularizer, for hand-checkable updates."""

    def __init__(self, c_value, beta=1.0):
        self.c_value = c_value
        self.beta = beta
        self.sigma = 0.0

    def c(self, t):
        return self.c_value

    def beta_linear(self, t):
        return self.beta

    def beta_glm(self, t, link):
        return self.beta


class TestServerUpdates:
    def test_single_noiseless_observation(self):
        server = ServerState(2, FixedConfidence(1.0))
        report = linear_local_report(np.array([1.0, 0.0]), 1.0, 0.0, ReportNoise(derive_rng(0, 0)))
        linear_server_update(server, report)
        assert np.allclose(server.theta_tilde, [0.5, 0.0], atol=1e-12)

    def test_zero_observations(self):
        server = ServerState(3, FixedConfidence(2.0))
        assert np.array_equal(server.theta_tilde, np.zeros(3))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        reports = []
        noise_rng = ReportNoise(derive_rng(3, 0))
        for _ in range(10):
            x = rng.normal(0, 0.4, 3)
            x /= max(np.linalg.norm(x), 1.0)
            reports.append(linear_local_report(x, float(rng.uniform(-1, 1)), 0.5, noise_rng))
        thetas = []
        for order in (range(10), reversed(range(10)), np.random.default_rng(0).permutation(10)):
            server = ServerState(3, FixedConfidence(1.0))
            for i in order:
                linear_server_update(server, reports[i])
            thetas.append(server.theta_tilde.copy())
        assert np.allclose(thetas[0], thetas[1], atol=1e-10)
        assert np.allclose(thetas[0], thetas[2], atol=1e-10)

    def test_glm_ogd_step(self):
        # noiseless logistic, x = e1, y = 1: theta_hat after one step is 0.5 zeta e1
        link = logistic_link()
        server = ServerState(2, FixedConfidence(1.0))
        report = glm_local_report(np.array([1.0, 0.0]), 1.0, server.theta_hat, link, 0.0,
                                  ReportNoise(derive_rng(0, 0)))
        zeta = 0.2
        glm_server_update(server, report, zeta)
        assert np.allclose(server.theta_hat, [0.5 * zeta, 0.0], atol=1e-12)

    def test_zero_gradient_keeps_theta_hat(self):
        link = logistic_link()
        server = ServerState(2, FixedConfidence(1.0))
        report = LocalReport(gram=np.zeros((2, 2)), moment=np.zeros(2), gradient=np.zeros(2))
        glm_server_update(server, report, 0.5)
        assert np.array_equal(server.theta_hat, np.zeros(2))

    def test_theta_hat_stays_in_ball(self):
        link = logistic_link()
        server = ServerState(3, FixedConfidence(1.0))
        rng = ReportNoise(derive_rng(7, 0))
        data_rng = np.random.default_rng(8)
        for _ in range(500):
            x = data_rng.normal(0, 1, 3)
            x /= max(np.linalg.norm(x), 1.0)
            report = glm_local_report(x, float(data_rng.integers(0, 2)), server.theta_hat,
                                      link, 2.0, rng)
            glm_server_update(server, report, 0.3)
            assert np.linalg.norm(server.theta_hat) <= 1.0 + 1e-12

    def test_relabel_uses_pre_update_estimate(self):
        # z_t must come from the rough estimate before the OGD step, so a
        # report built from the server state and then applied reproduces the
        # moment z * x with the old theta_hat
        link = logistic_link()
        server = ServerState(2, FixedConfidence(1.0))
        server.theta_hat = np.array([0.5, 0.0])
        x = np.array([0.8, 0.0])
        report = glm_local_report(x, 1.0, server.theta_hat, link, 0.0,
                                  ReportNoise(derive_rng(0, 0)))
        assert np.allclose(report.moment, (0.8 * 0.5) * x)
        glm_server_update(server, report, 0.5)
        assert not np.allclose(server.theta_hat, [0.5, 0.0])

    def test_gradient_required_for_glm(self):
        server = ServerState(2, FixedConfidence(1.0))
        report = LocalReport(gram=np.zeros((2, 2)), moment=np.zeros(2))
        with pytest.raises(ContractViolation):
            glm_server_update(server, report, 0.1)

    def test_vbar_symmetric_along_run(self):
        server = ServerState(3, FixedConfidence(1.0))
        rng = ReportNoise(derive_rng(9, 0))
        for _ in range(50):
            report = linear_local_report(np.array([0.5, 0.1, -0.2]), 0.3, 1.5, rng)
            linear_server_update(server, report)
            assert np.array_equal(server.vbar, server.vbar.T)


class TestSelectAction:
    def test_round_zero_picks_largest_norm(self):
        server = ServerState(2, FixedConfidence(1.0, beta=1.0))
        arms = np.array([[0.2, 0.0], [0.0, 0.9], [0.1, 0.1]])
        assert linear_select_action(server, arms) == 1

    def test_pure_exploitation(self):
        server = ServerState(2, FixedConfidence(1.0, beta=0.0))
        server.theta_tilde = np.array([1.0, 0.0])
        arms = np.eye(2)
        assert linear_select_action(server, arms) == 0

    def test_hand_index(self):
        # theta = (0.5, 0), reg = diag(2, 1), beta = 1:
        # index(e1) = 0.5 + 1/sqrt(2) ~= 1.207 beats index(e2) = 1.0
        server = ServerState(2, FixedConfidence(1.0, beta=1.0))
        server.theta_tilde = np.array([0.5, 0.0])
        server.reg = np.diag([2.0, 1.0])
        arms = np.eye(2)
        assert linear_select_action(server, arms) == 0
        assert glm_select_action(server, arms, logistic_link()) == 0

    def test_tie_breaks_to_lowest_index(self):
        server = ServerState(2, FixedConfidence(1.0, beta=1.0))
        arms = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.0]])
        assert linear_select_action(server, arms) == 0

    def test_argmax_invariant_under_common_scaling(self):
        # with theta = 0 the index is beta |x|_Minv: scaling all arms preserves argmax
        server = ServerState(3, FixedConfidence(2.0, beta=1.0))
        rng = np.random.default_rng(10)
        for _ in range(50):
            arms = rng.normal(0, 0.2, (6, 3))
            pick = linear_select_action(server, arms)
            assert linear_select_action(server, 0.5 * arms) == pick

    def test_arm_norm_contract(self):
        server = ServerState(2, FixedConfidence(1.0))
        with pytest.raises(ContractViolation):
            linear_select_action(server, np.array([[2.0, 0.0]]))


class TestProjection:
    def test_project_unit_ball(self):
        v = np.array([3.0, 4.0])
        out = project_unit_ball(v)
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
        inside = np.array([0.3, 0.1])
        assert np.array_equal(project_unit_ball(inside), inside)


class TestBaselineConfidence:
    def test_constant_regularizer(self):
        conf = BaselineConfidence(d=3, horizon=1000, alpha=0.1, lam=1.5)
        assert conf.c(0) == 1.5
        assert conf.c(500) == 1.5

    def test_width_grows_logarithmically(self):
        conf = BaselineConfidence(d=3, horizon=10**5, alpha=0.1)
        assert conf.beta_linear(10) < conf.beta_linear(10_000)
        assert conf.beta_linear(10_000) < 10.0
