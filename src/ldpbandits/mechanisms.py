"""Noise calibration and sampling for local-privacy perturbations.

Implements the Gaussian mechanism (sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon)
and the Laplace mechanism (scale = sensitivity / epsilon) together with the
samplers used by the bandit algorithms: scalar noise, i.i.d. vector noise and
symmetric Gaussian matrices.

Note on the Gaussian calibration: the closed form is the standard one and its
analysis assumes epsilon is not large (the usual caveat is epsilon <= 1).  The
formula is applied as written for any epsilon > 0.  At every budget the configs
and suites use (epsilon up to 2.81), tests/test_mechanisms.py
(TestExactGaussianProfile) checks the resulting sigma against the mechanism's
exact privacy profile: each delivers its delta.  For a pure epsilon guarantee
use the Laplace calibration instead.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CalibrationError

GAUSSIAN = "gaussian"
LAPLACE = "laplace"


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy budget.

    epsilon must be positive and delta must lie strictly in (0, 1); delta = 0
    is rejected because the Gaussian calibration diverges there (the Laplace
    variant is the supported pure-epsilon path).
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise CalibrationError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0 < self.delta < 1):
            raise CalibrationError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class NoiseSpec:
    """A calibrated noise distribution: Gaussian (sigma) or Laplace (scale)."""

    kind: str
    sigma: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, LAPLACE):
            raise CalibrationError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0 or self.scale < 0:
            raise CalibrationError("noise parameters must be nonnegative")


def calibrate_gaussian(privacy: PrivacyParams, sensitivity: float) -> NoiseSpec:
    """Gaussian mechanism: sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon."""
    if sensitivity < 0:
        raise CalibrationError(f"sensitivity must be >= 0, got {sensitivity}")
    sigma = sensitivity * math.sqrt(2.0 * math.log(1.25 / privacy.delta)) / privacy.epsilon
    return NoiseSpec(kind=GAUSSIAN, sigma=sigma)


def calibrate_laplace(epsilon: float, sensitivity: float) -> NoiseSpec:
    """Laplace mechanism for pure epsilon: scale = sensitivity / epsilon."""
    if not (epsilon > 0):
        raise CalibrationError(f"epsilon must be > 0, got {epsilon}")
    if sensitivity < 0:
        raise CalibrationError(f"sensitivity must be >= 0, got {sensitivity}")
    return NoiseSpec(kind=LAPLACE, scale=sensitivity / epsilon)


def _draw(spec: NoiseSpec, rng: np.random.Generator, size=None):
    if spec.kind == GAUSSIAN:
        return rng.normal(0.0, spec.sigma, size=size)
    return rng.laplace(0.0, spec.scale, size=size)


def _is_silent(spec: NoiseSpec) -> bool:
    # Zero-width noise is an exact identity and consumes nothing from the
    # stream, so a zero-noise run is bit-identical to a non-private one.
    return (spec.kind == GAUSSIAN and spec.sigma == 0.0) or (
        spec.kind == LAPLACE and spec.scale == 0.0
    )


def perturb_scalar(value: float, spec: NoiseSpec, rng: np.random.Generator) -> float:
    """Return value + Z with Z drawn once from spec's distribution."""
    if _is_silent(spec):
        return float(value)
    return float(value + _draw(spec, rng))


def perturb_vector(v: np.ndarray, spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Return v + xi with i.i.d. coordinates from spec's distribution."""
    v = np.asarray(v, dtype=float)
    if _is_silent(spec):
        return v.copy()
    return v + _draw(spec, rng, size=v.shape)


@lru_cache(maxsize=None)
def _mirror_index(d: int) -> np.ndarray:
    """(d, d) positions into the row-major upper triangle's draws: entries
    (i, j) and (j, i) both read the draw of cell (min(i, j), max(i, j))."""
    rows, cols = np.triu_indices(d)
    index = np.empty((d, d), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return index


def symmetric_gaussian_matrix(d: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """A d x d matrix with i.i.d. N(0, sigma^2) upper triangle mirrored exactly.

    Entries (i, j) for i <= j are drawn independently, in row-major order;
    (j, i) is set to the same float, so the result is symmetric bit-for-bit.
    """
    if d < 1:
        raise CalibrationError(f"dimension must be >= 1, got {d}")
    if sigma == 0.0:
        return np.zeros((d, d))
    return rng.normal(0.0, sigma, size=d * (d + 1) // 2)[_mirror_index(d)]


def derive_rng(base_seed: int, *labels) -> np.random.Generator:
    """A named, independent random stream for (replication, role) labels.

    Streams derived from the same base seed with different labels are
    statistically independent; the same (seed, labels) always yields the
    same stream.  Integer labels are used directly, strings are hashed.
    Each stream must be owned by one logical actor at a time.
    """
    key = tuple(
        label if isinstance(label, (int, np.integer)) else zlib.crc32(str(label).encode())
        for label in labels
    )
    return np.random.default_rng(np.random.SeedSequence(int(base_seed), spawn_key=key))
