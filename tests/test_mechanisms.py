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
    NoiseSpec,
    PrivacyParams,
    calibrate_gaussian,
    calibrate_laplace,
    derive_rng,
    perturb_scalar,
    perturb_vector,
    symmetric_gaussian_matrix,
)

mpmath.mp.dps = 50


def gaussian_sigma_oracle(epsilon, delta, sensitivity):
    """High-precision evaluation of sensitivity * sqrt(2 ln(1.25/delta)) / epsilon."""
    return float(
        mpmath.mpf(sensitivity)
        * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mpmath.mpf(delta)))
        / mpmath.mpf(epsilon)
    )


class TestGaussianCalibration:
    def test_example_eps1(self):
        spec = calibrate_gaussian(PrivacyParams(1.0, 1e-5), 2.0)
        assert spec.kind == "gaussian"
        assert spec.sigma == pytest.approx(9.6896, abs=1e-4)
        assert spec.sigma == pytest.approx(gaussian_sigma_oracle(1.0, 1e-5, 2.0), rel=1e-12)

    def test_example_eps2_halves(self):
        s1 = calibrate_gaussian(PrivacyParams(1.0, 1e-5), 2.0).sigma
        s2 = calibrate_gaussian(PrivacyParams(2.0, 1e-5), 2.0).sigma
        assert s2 == pytest.approx(4.8448, abs=1e-4)
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-12)

    def test_zero_sensitivity(self):
        assert calibrate_gaussian(PrivacyParams(1.0, 0.5), 0.0).sigma == 0.0

    def test_randomized_triples_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            eps = float(rng.uniform(0.05, 20.0))
            delta = float(rng.uniform(1e-9, 0.9))
            sens = float(rng.uniform(0.0, 50.0))
            got = calibrate_gaussian(PrivacyParams(eps, delta), sens).sigma
            assert got == pytest.approx(gaussian_sigma_oracle(eps, delta, sens), rel=1e-12)

    @given(
        eps=st.floats(0.05, 20.0),
        delta=st.floats(1e-9, 0.9),
        sens=st.floats(0.01, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, eps, delta, sens):
        base = calibrate_gaussian(PrivacyParams(eps, delta), sens).sigma
        assert calibrate_gaussian(PrivacyParams(eps * 1.5, delta), sens).sigma < base
        assert calibrate_gaussian(PrivacyParams(eps, delta), sens * 1.5).sigma > base

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
        sigma = calibrate_gaussian(PrivacyParams(eps, delta), 1.0).sigma
        delta_exact = exact_gaussian_delta(eps, sigma)
        assert delta_exact <= delta
        assert delta_exact == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("eps,delta,exact", BUDGETS)
    def test_profile_matches_high_precision(self, eps, delta, exact):
        sigma = calibrate_gaussian(PrivacyParams(eps, delta), 1.0).sigma
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


class TestLaplaceCalibration:
    def test_examples(self):
        assert calibrate_laplace(1.0, 2.0).scale == 2.0
        assert calibrate_laplace(4.0, 2.0).scale == 0.5
        assert calibrate_laplace(1.0, 0.0).scale == 0.0

    def test_kind(self):
        assert calibrate_laplace(1.0, 2.0).kind == "laplace"

    def test_invalid_epsilon(self):
        with pytest.raises(CalibrationError):
            calibrate_laplace(0.0, 1.0)
        with pytest.raises(CalibrationError):
            calibrate_laplace(1.0, -1.0)


class TestPerturbScalar:
    def test_zero_noise_identity(self):
        spec = NoiseSpec(kind="gaussian", sigma=0.0)
        assert perturb_scalar(0.5, spec, derive_rng(0, 0)) == 0.5

    def test_deterministic_given_seed(self):
        spec = NoiseSpec(kind="gaussian", sigma=9.6896)
        a = [perturb_scalar(0.5, spec, derive_rng(7, 3, "noise")) for _ in range(1)]
        b = [perturb_scalar(0.5, spec, derive_rng(7, 3, "noise")) for _ in range(1)]
        assert a == b
        assert a[0] != 0.5

    def test_two_moment_check(self):
        # |mean| < 4 sigma/sqrt(n) and |var/sigma^2 - 1| < 0.05 at n = 1e5
        spec = NoiseSpec(kind="gaussian", sigma=1.0)
        rng = derive_rng(11, 0, "noise")
        n = 100_000
        samples = np.fromiter(
            (perturb_scalar(0.0, spec, rng) for _ in range(n)), dtype=float, count=n
        )
        assert abs(samples.mean()) < 4.0 / math.sqrt(n)
        assert abs(samples.var() - 1.0) < 0.05

    def test_laplace_variance(self):
        spec = NoiseSpec(kind="laplace", scale=2.0)
        rng = derive_rng(13, 0, "noise")
        samples = np.fromiter(
            (perturb_scalar(0.0, spec, rng) for _ in range(100_000)), dtype=float
        )
        # Laplace(b) variance is 2 b^2
        assert samples.var() == pytest.approx(8.0, rel=0.05)


class TestPerturbVector:
    @pytest.mark.parametrize("d", [1, 5, 64])
    def test_shape_preserved(self, d):
        spec = NoiseSpec(kind="gaussian", sigma=1.0)
        out = perturb_vector(np.zeros(d), spec, derive_rng(0, d))
        assert out.shape == (d,)

    def test_zero_noise_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        spec = NoiseSpec(kind="gaussian", sigma=0.0)
        assert np.array_equal(perturb_vector(v, spec, derive_rng(0, 0)), v)

    def test_coordinate_variance(self):
        spec = NoiseSpec(kind="gaussian", sigma=2.0)
        rng = derive_rng(17, 0, "noise")
        d, n = 4, 50_000
        samples = np.vstack([perturb_vector(np.zeros(d), spec, rng) for _ in range(n)])
        assert np.allclose(samples.var(axis=0), 4.0, atol=0.1)


class TestSymmetricMatrix:
    def test_zero_sigma_is_zero_matrix(self):
        assert np.array_equal(symmetric_gaussian_matrix(3, 0.0, derive_rng(0, 0)), np.zeros((3, 3)))

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
