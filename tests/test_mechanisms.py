"""Calibration formulas, sampler distributions, and stream determinism."""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpbandits import (
    CalibrationError,
    ContractViolation,
    DecisionSet,
    DrawAhead,
    LdpBaiLearner,
    LdpMabLearner,
    OnePointConfig,
    PrivacyParams,
    ReportNoise,
    TwoPointBandit,
    TwoPointConfig,
    calibrate_gaussian,
    derive_rng,
    glm_local_report,
    glm_sigma,
    linear_local_report,
    linear_sigma,
    logistic_link,
    one_point_round,
    perturb_scalar,
    symmetric_gaussian_matrix,
    two_point_round,
)
from ldpbandits import mechanisms

mpmath.mp.dps = 50


def stream(*labels) -> DrawAhead:
    return DrawAhead(derive_rng(*labels))


def gaussian_sigma_oracle(epsilon, delta, sensitivity):
    """High-precision evaluation of sensitivity * sqrt(2 ln(1.25/delta)) / epsilon."""
    return float(
        mpmath.mpf(sensitivity)
        * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mpmath.mpf(delta)))
        / mpmath.mpf(epsilon)
    )


class TestGaussianCalibration:
    def test_example_eps1(self):
        sigma = calibrate_gaussian(PrivacyParams(1.0, 1e-5), 2.0)
        assert sigma == pytest.approx(9.6896, abs=1e-4)
        assert sigma == pytest.approx(gaussian_sigma_oracle(1.0, 1e-5, 2.0), rel=1e-12)

    def test_example_eps2_halves(self):
        s1 = calibrate_gaussian(PrivacyParams(1.0, 1e-5), 2.0)
        s2 = calibrate_gaussian(PrivacyParams(2.0, 1e-5), 2.0)
        assert s2 == pytest.approx(4.8448, abs=1e-4)
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-12)

    def test_zero_sensitivity(self):
        assert calibrate_gaussian(PrivacyParams(1.0, 0.5), 0.0) == 0.0

    def test_randomized_triples_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            eps = float(rng.uniform(0.05, 20.0))
            delta = float(rng.uniform(1e-9, 0.9))
            sens = float(rng.uniform(0.0, 50.0))
            got = calibrate_gaussian(PrivacyParams(eps, delta), sens)
            assert got == pytest.approx(gaussian_sigma_oracle(eps, delta, sens), rel=1e-12)

    @given(
        eps=st.floats(0.05, 20.0),
        delta=st.floats(1e-9, 0.9),
        sens=st.floats(0.01, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, eps, delta, sens):
        base = calibrate_gaussian(PrivacyParams(eps, delta), sens)
        assert calibrate_gaussian(PrivacyParams(eps * 1.5, delta), sens) < base
        assert calibrate_gaussian(PrivacyParams(eps, delta), sens * 1.5) > base

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5)])
    def test_invalid_params_rejected(self, eps, delta):
        with pytest.raises(CalibrationError):
            PrivacyParams(eps, delta)


def exact_gaussian_delta(epsilon, sigma, sensitivity=1.0):
    """The smallest delta that the Gaussian mechanism with this sigma delivers
    at epsilon: its exact privacy profile (Balle & Wang, "Improving the
    Gaussian Mechanism for Differential Privacy", arXiv:1805.06530),
    Phi(D/2s - e s/D) - exp(e) Phi(-D/2s - e s/D)."""
    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    a, b = sensitivity / (2.0 * sigma), epsilon * sigma / sensitivity
    return cdf(a - b) - math.exp(epsilon) * cdf(-a - b)


# Every scalar (epsilon, delta) the configs and the suites calibrate at, with
# the exact delta its classical sigma delivers.  The classical formula's
# analysis assumes epsilon <= 1; the exact profile shows that it holds at the
# larger budgets too.
BUDGETS = [
    (1.0, 1e-5, 4.114e-8),
    (1.0, 1e-2, 1.364e-4),
    (2.0, 1e-2, 4.349e-4),
    (2.5, 1e-2, 6.806e-4),
    (2.81, 0.1, 1.855e-2),
]


class TestExactGaussianProfile:
    @pytest.mark.parametrize("eps,delta,exact", BUDGETS)
    def test_classical_sigma_delivers_its_delta(self, eps, delta, exact):
        sigma = calibrate_gaussian(PrivacyParams(eps, delta), 1.0)
        delta_exact = exact_gaussian_delta(eps, sigma)
        assert delta_exact <= delta
        assert delta_exact == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("eps,delta,exact", BUDGETS)
    def test_profile_matches_high_precision(self, eps, delta, exact):
        sigma = calibrate_gaussian(PrivacyParams(eps, delta), 1.0)
        s, e = mpmath.mpf(sigma), mpmath.mpf(eps)
        oracle = mpmath.ncdf(1 / (2 * s) - e * s) - mpmath.exp(e) * mpmath.ncdf(-1 / (2 * s) - e * s)
        assert exact_gaussian_delta(eps, sigma) == pytest.approx(float(oracle), rel=1e-9)
        # the profile depends on sigma / sensitivity alone
        assert exact_gaussian_delta(eps, 3.0 * sigma, 3.0) == pytest.approx(float(oracle), rel=1e-9)

    def test_budgets_cover_the_configs(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        budgets = {(eps, delta) for eps, delta, _ in BUDGETS}
        for path in sorted(configs.glob("*.json")):
            privacy = json.loads(path.read_text()).get("privacy")
            if privacy is not None:
                assert (privacy["epsilon"], privacy["delta"]) in budgets, path.name


class TestPerturbScalar:
    def test_zero_noise_identity(self):
        rng = stream(0, 0)
        state = rng.rng.bit_generator.state
        assert perturb_scalar(0.5, 0.0, rng) == 0.5
        assert perturb_scalar(0.5, 0.0, rng, direction=np.ones(3)) == 0.5
        assert rng.rng.bit_generator.state == state

    def test_deterministic_given_seed(self):
        a = perturb_scalar(0.5, 9.6896, stream(7, 3, "noise"))
        b = perturb_scalar(0.5, 9.6896, stream(7, 3, "noise"))
        assert a == b
        assert a != 0.5

    def test_two_moment_check(self):
        # |mean| < 4 sigma/sqrt(n) and |var/sigma^2 - 1| < 0.05 at n = 1e5
        rng = stream(11, 0, "noise")
        n = 100_000
        samples = np.fromiter(
            (perturb_scalar(0.0, 1.0, rng) for _ in range(n)), dtype=float, count=n
        )
        assert abs(samples.mean()) < 4.0 / math.sqrt(n)
        assert abs(samples.var() - 1.0) < 0.05

    def test_direction_draws_one_vector(self):
        # value + n . direction with n ~ N(0, sigma^2 I): one draw of
        # direction's shape, so the added scalar is N(0, sigma^2 |direction|^2);
        # the dot is summed left to right
        direction = [0.3, -0.4, 1.2]
        ours, ref = stream(19, 0, "noise"), derive_rng(19, 0, "noise")
        for _ in range(5):
            got = perturb_scalar(0.25, 2.0, ours, direction=direction)
            dot = 0.0
            for n, v in zip(ref.normal(0.0, 2.0, size=3).tolist(), direction):
                dot += n * v
            assert got == 0.25 + dot
        n = 50_000
        samples = np.fromiter(
            (perturb_scalar(0.0, 2.0, ours, direction=direction) for _ in range(n)),
            dtype=float, count=n,
        )
        assert samples.var() == pytest.approx(4.0 * float(np.dot(direction, direction)), rel=0.05)


class TestSymmetricMatrix:
    def test_zero_sigma_is_zero_matrix(self):
        rng = derive_rng(0, 0)
        state = rng.bit_generator.state
        assert np.array_equal(symmetric_gaussian_matrix(3, 0.0, rng), np.zeros((3, 3)))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("d", [1, 2, 8, 32, 128])
    def test_exact_symmetry(self, d):
        for seed in range(3):
            m = symmetric_gaussian_matrix(d, 1.7, derive_rng(seed, d))
            assert np.array_equal(m, m.T)

    def test_entry_variance(self):
        rng = derive_rng(23, 0, "noise")
        n = 20_000
        vals = np.fromiter(
            (symmetric_gaussian_matrix(3, 3.0, rng)[1, 2] for _ in range(n)), dtype=float
        )
        assert vals.var() == pytest.approx(9.0, rel=0.05)

    def test_off_diagonal_pairs_equal_and_diagonal_free(self):
        m = symmetric_gaussian_matrix(5, 1.0, derive_rng(5, 0))
        assert m[0, 1] == m[1, 0]
        assert m[3, 4] == m[4, 3]


def per_call_round(twin, d, sigma, scales):
    """One round of report noise drawn per call, as the reports drew it before
    the block sampler: the mirrored triangle, then each vector, each group by
    one Generator.normal call and none at scale 0."""
    triangle = np.zeros((d, d))
    if sigma:
        rows, cols = np.triu_indices(d)
        triangle[rows, cols] = triangle[cols, rows] = twin.normal(0.0, sigma, size=rows.size)
    vectors = [twin.normal(0.0, s, size=d) if s else np.zeros(d) for s in scales]
    return np.vstack([triangle, *vectors])


class TestReportNoise:
    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
    @pytest.mark.parametrize("d, sigma, scales", [
        (3, 1.7, (1.7, 0.4)), (2, 0.9, (0.9,)), (1, 2.5, (2.5, 2.5)), (3, 1.1, (0.0,)),
    ])
    def test_rounds_are_per_call_draws_across_block_edges(self, block, d, sigma, scales,
                                                          monkeypatch):
        if block:
            monkeypatch.setattr(mechanisms, "DRAW_AHEAD", block)
        rng, twin = derive_rng(41, d, "noise"), derive_rng(41, d, "noise")
        noise = ReportNoise(rng)
        n = 2 * mechanisms.DRAW_AHEAD + 5
        for _ in range(n):
            assert noise.round(d, sigma, scales).tobytes() == per_call_round(
                twin, d, sigma, scales).tobytes()
        for _ in range(-n % mechanisms.DRAW_AHEAD):  # the rest of the last block
            per_call_round(twin, d, sigma, scales)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_zero_scales_draw_nothing(self):
        rng = derive_rng(42, 0)
        state = rng.bit_generator.state
        noise = ReportNoise(rng)
        assert rng.bit_generator.state == state  # nothing before the first request
        round_ = noise.round(3, 0.0, (0.0, 0.0))
        assert round_.shape == (5, 3) and not round_.any()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("report", ["linear", "glm"])
    def test_reports_at_zero_sigma_draw_nothing(self, report):
        rng = derive_rng(43, 0)
        state = rng.bit_generator.state
        if report == "linear":
            linear_local_report(X, 0.7, 0.0, ReportNoise(rng))
        else:
            glm_local_report(X, 1.0, THETA_HAT, logistic_link(), 0.0, ReportNoise(rng))
        assert rng.bit_generator.state == state

    def test_vector_row_variance(self):
        noise = ReportNoise(derive_rng(17, 0, "noise"))
        n = 20_000
        rows = np.vstack([noise.round(1, 0.0, (2.0,) * 4)[1:, 0] for _ in range(n)])
        assert np.allclose(rows.var(axis=0), 4.0, atol=0.15)

    def test_one_layout_per_sampler(self):
        noise = ReportNoise(derive_rng(44, 0))
        noise.round(3, 1.0, (1.0,))
        noise.round(3, 1.0, (1.0,))
        with pytest.raises(ContractViolation):
            noise.round(3, 1.0, (1.0, 2.0))

    def test_rounds_are_read_only(self):
        round_ = ReportNoise(derive_rng(45, 0)).round(2, 1.0, (1.0,))
        with pytest.raises(ValueError):
            round_[0, 0] = 0.0

    def test_large_rounds_take_smaller_blocks(self):
        d = 64
        rng, twin = derive_rng(46, d), derive_rng(46, d)
        ReportNoise(rng).round(d, 1.0, (1.0,))
        rounds = 0
        while twin.bit_generator.state != rng.bit_generator.state:
            per_call_round(twin, d, 1.0, (1.0,))
            rounds += 1
            assert rounds <= mechanisms.DRAW_AHEAD
        assert 1 <= rounds and rounds * (d + 1) * d <= mechanisms._BLOCK_FLOATS


class TestStreams:
    def test_identical_labels_identical_stream(self):
        a = derive_rng(99, 4, "noise").standard_normal(8)
        b = derive_rng(99, 4, "noise").standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_roles_differ(self):
        a = derive_rng(99, 4, "noise").standard_normal(8)
        b = derive_rng(99, 4, "learner").standard_normal(8)
        c = derive_rng(99, 5, "noise").standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# DrawAhead: block draws are the per-call draws


@pytest.fixture(params=[1, 7, mechanisms.DRAW_AHEAD], ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(mechanisms, "DRAW_AHEAD", request.param)
    return request.param


class TestDrawAhead:
    def test_uniforms_match_per_call_random(self, block):
        ours, ref = stream(3, 0, "environment"), derive_rng(3, 0, "environment")
        for _ in range(3 * mechanisms.DRAW_AHEAD + 5):  # across several block edges
            assert ours.uniform() == ref.random()

    def test_scalar_noise_matches_per_call_normal(self, block):
        ours, ref = stream(4, 0, "noise"), derive_rng(4, 0, "noise")
        for _ in range(3 * mechanisms.DRAW_AHEAD + 5):
            assert perturb_scalar(0.0, 2.5, ours) == ref.normal(0.0, 2.5)

    @pytest.mark.parametrize("d", [1, 3, 5, 300])
    def test_vectors_match_per_call_normal_size_d(self, block, d):
        # d = 5 against a block of 7 straddles an edge on the second draw;
        # d = 300 spans whole blocks of any size here
        ours, ref = stream(5, d, "noise"), derive_rng(5, d, "noise")
        direction = [1.0] + [0.0] * (d - 1)
        for _ in range(4):
            # with direction e_1 the report adds the first of d draws, scaled
            assert perturb_scalar(0.0, 1.5, ours, direction=direction) == (
                ref.normal(0.0, 1.5, size=d)[0] * 1.0)
            assert ours.normals(d) == ref.standard_normal(d).tolist()

    def test_mixed_sizes_keep_the_stream_order(self, block):
        ours, ref = stream(6, 0, "noise"), derive_rng(6, 0, "noise")
        for n in (1, 5, 2, 7, 1, 11, 3):
            got = [ours.normal()] if n == 1 else ours.normals(n)
            assert got == ref.standard_normal(n).tolist()

    def test_unit_vector_redraws_a_null_direction(self):
        class Scripted:
            """A generator whose normals are a null 3-vector, then (3, 4, 0)."""

            def standard_normal(self, n):
                return np.array([0.0, 1e-13, 0.0, 3.0, 4.0, 0.0] + [1.0] * (n - 6))

        learner = TwoPointBandit(DecisionSet.ball(1.0, dim=3), 0.01, 0.1, 0.1,
                                 DrawAhead(Scripted()))
        learner.queries()
        assert learner.u == [3.0 / 5.0, 4.0 / 5.0, 0.0]

    @pytest.mark.parametrize("first, second", [
        ("uniform", "normal"), ("uniform", "normals"),
        ("normal", "uniform"), ("normals", "uniform"),
    ])
    def test_one_kind_per_stream(self, block, first, second):
        draws = {"uniform": lambda s: s.uniform(), "normal": lambda s: s.normal(),
                 "normals": lambda s: s.normals(3)}
        s = stream(8, 0)
        draws[first](s)
        with pytest.raises(ContractViolation):
            draws[second](s)

    def test_draws_nothing_before_the_first_request(self):
        rng = derive_rng(9, 0)
        state = rng.bit_generator.state
        s = DrawAhead(rng)
        assert rng.bit_generator.state == state
        s.uniform()
        assert rng.bit_generator.state != state


# ---------------------------------------------------------------------------
# every local report draws its noise through the sampler family


class FedRecorder:
    """A stand-in black box with fixed queries and arm draws that keeps the
    values a private wrapper hands it (the fed value is update's second
    argument for the MAB and BAI learners, the only one otherwise)."""

    def __init__(self, x1=None, x2=None):
        self.x1, self.x2 = x1, x2
        self.fed = []

    def propose(self):
        return self.x1

    def queries(self):
        return self.x1, self.x2

    def sample(self):
        return 1, 0.4

    def observe(self, value):
        self.fed.append(value)

    def update(self, *args):
        self.fed.append(args[1] if len(args) > 1 else args[0])


# Each path runs one report on rng and returns what reached the learner or
# server, the clean values, and a function that rebuilds the report from the
# clean values and per-call draws on a twin stream, in the report's order.
# The scalar reports take rng through a DrawAhead.  The contextual ones take it
# through a one-round ReportNoise, so that rng ends where the twin's per-call
# Generator.normal draws end; other block sizes are checked in TestReportNoise.


def one_point_path(privacy, rng):
    config = OnePointConfig(privacy=privacy, loss_bound=2.0)
    learner = FedRecorder(np.array([0.3, -0.2]))
    rnd = one_point_round(learner, lambda x: float(x @ x), config, DrawAhead(rng))
    clean = (rnd.true_loss,)
    return learner.fed, clean, lambda twin: (
        perturb_scalar(clean[0], config.sigma, DrawAhead(twin)),)


def two_point_path(privacy, rng):
    config = TwoPointConfig.for_horizon(privacy, 3.0, 100, 1.0, rho=0.05, xi=0.05)
    x1, x2 = np.array([0.1, 0.2, 0.3]), np.array([0.05, 0.1, 0.3])
    learner = FedRecorder(x1, x2)
    rnd = two_point_round(learner, lambda x: float(x.sum()), config, DrawAhead(rng))
    clean = (rnd.true_loss_1 - rnd.true_loss_2,)
    return learner.fed, clean, lambda twin: (
        perturb_scalar(clean[0], config.sigma, DrawAhead(twin), direction=(x1 - x2).tolist()),)


def mab_path(privacy, rng):
    learner = LdpMabLearner(privacy, 3, stream(31, 0, "learner"), DrawAhead(rng))
    learner.inner = FedRecorder()
    learner.propose()
    learner.observe(0.8)
    clean = (0.8 - 0.5,)
    return learner.inner.fed, clean, lambda twin: (
        perturb_scalar(clean[0], learner.sigma, DrawAhead(twin)),)


def bai_path(privacy, rng):
    learner = LdpBaiLearner(privacy, 3, 0.1, DrawAhead(rng))
    learner.inner = FedRecorder()
    learner.observe(2, 0.9)
    clean = (0.9 - 0.5,)
    return learner.inner.fed, clean, lambda twin: (
        perturb_scalar(clean[0], learner.sigma, DrawAhead(twin)),)


X = np.array([0.3, -0.5, 0.4])
THETA_HAT = np.array([-0.2, 0.1, 0.6])


def plus_per_call_noise(clean, twin, sigma, *scales):
    """A d = 3 report's clean (gram, vector, ...) plus per_call_round's noise."""
    noise = per_call_round(twin, 3, sigma, scales)
    return (clean[0] + noise[:3], *(c + n for c, n in zip(clean[1:], noise[3:])))


def linear_path(privacy, rng):
    sigma = linear_sigma(privacy)
    report = linear_local_report(X, 0.7, sigma, ReportNoise(rng))
    clean = (np.outer(X, X), 0.7 * X)
    return (report.gram, report.moment), clean, lambda twin: plus_per_call_noise(
        clean, twin, sigma, sigma)


def glm_path(privacy, rng):
    sigma, link = glm_sigma(privacy), logistic_link()
    report = glm_local_report(X, 1.0, THETA_HAT, link, sigma, ReportNoise(rng))
    z = float(X @ THETA_HAT)
    clean = (np.outer(X, X), z * X, (link.g(z) - 1.0) * X)
    return (report.gram, report.moment, report.gradient), clean, lambda twin: plus_per_call_noise(
        clean, twin, sigma, sigma, link.value_bound * sigma)


REPORT_PATHS = {
    "one_point": one_point_path, "two_point": two_point_path, "mab": mab_path,
    "bai": bai_path, "linear": linear_path, "glm": glm_path,
}


def as_bits(values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


@pytest.mark.parametrize("private", [True, False], ids=["sigma_positive", "sigma_zero"])
@pytest.mark.parametrize("path", list(REPORT_PATHS))
def test_report_draws_through_the_sampler_family(path, private, monkeypatch):
    # blocks of one round: the twin's per-call draws leave its Generator
    # where one report's block leaves ours
    monkeypatch.setattr(mechanisms, "DRAW_AHEAD", 1)
    rng = derive_rng(31, 0, "noise")
    state = rng.bit_generator.state
    privacy = PrivacyParams(1.0, 1e-2) if private else None
    fed, clean, through_family = REPORT_PATHS[path](privacy, rng)
    if private:
        twin = derive_rng(31, 0, "noise")
        assert as_bits(fed) == as_bits(through_family(twin))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert as_bits(fed) != as_bits(clean)
    else:
        assert rng.bit_generator.state == state
        assert as_bits(fed) == as_bits(clean)
