"""Gaussian noise calibration, the one sampler family every local report
uses, and the named streams every replication draws from.

Calibration is the Gaussian mechanism,
sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon.  The samplers are the
only code that draws report noise: perturb_scalar (optionally along a
direction, for the two-point report n . (x1 - x2)), perturb_vector and
symmetric_gaussian_matrix.  Each draws nothing at sigma = 0, so a zero-noise
run consumes the same stream as a non-private one and its reports carry the
clean values.  perturb_scalar draws from a DrawAhead stream: a derive_rng
Generator's uniforms or standard normals, drawn a block ahead in the
Generator's own order, so a sample is the same float a per-call draw would
give.  perturb_vector and symmetric_gaussian_matrix return arrays and draw
from their Generator per call: one Generator.normal(size=k) call costs less
than scaling a drawn-ahead block with NumPy's per-call overhead.

Note on the Gaussian calibration: the closed form is the standard one and its
analysis assumes epsilon is not large (the usual caveat is epsilon <= 1).  The
formula is applied as written for any epsilon > 0.  At every budget the configs
and suites use (epsilon up to 2.81), tests/test_mechanisms.py
(TestExactGaussianProfile) checks the resulting sigma against the mechanism's
exact privacy profile: each delivers its delta.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, ContractViolation


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy budget.

    epsilon must be positive and delta must lie strictly in (0, 1); delta = 0
    is rejected because the Gaussian calibration diverges there and the
    library has no pure-epsilon mechanism.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise CalibrationError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0 < self.delta < 1):
            raise CalibrationError(f"delta must be in (0, 1), got {self.delta}")


def calibrate_gaussian(privacy: PrivacyParams, sensitivity: float) -> float:
    """Gaussian mechanism: sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon."""
    if sensitivity < 0:
        raise CalibrationError(f"sensitivity must be >= 0, got {sensitivity}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / privacy.delta)) / privacy.epsilon


# Draws a DrawAhead stream takes from its Generator at a time.  Any block size
# gives the same floats in the same order.
DRAW_AHEAD = 256


class DrawAhead:
    """A Generator's uniforms or standard normals, handed out from a block
    drawn ahead.

    Generator.random(n) and Generator.standard_normal(n) give the floats that
    n single calls would give, in the same order, so uniform() is
    Generator.random(), normal() is Generator.standard_normal() and
    normals(n) is Generator.standard_normal(n), here as Python floats.  A
    stream serves one kind only: a block of one kind leaves the Generator
    where single draws of the other kind would not, so asking for the second
    kind raises.  Nothing is drawn before the first request.
    """

    __slots__ = ("rng", "_kind", "_uniforms", "_u_next", "_normals", "_n_next")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._kind = None
        self._uniforms: list[float] = []
        self._u_next = 0
        self._normals: list[float] = []
        self._n_next = 0

    def _block(self, kind: str) -> list[float]:
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise ContractViolation(f"a stream of {self._kind}s cannot serve a {kind}")
        draw = self.rng.random if kind == "uniform" else self.rng.standard_normal
        return draw(DRAW_AHEAD).tolist()

    def uniform(self) -> float:
        i = self._u_next
        if i == len(self._uniforms):
            self._uniforms = self._block("uniform")
            i = 0
        self._u_next = i + 1
        return self._uniforms[i]

    def normal(self) -> float:
        i = self._n_next
        if i == len(self._normals):
            self._normals = self._block("normal")
            i = 0
        self._n_next = i + 1
        return self._normals[i]

    def normals(self, n: int) -> list[float]:
        i = self._n_next
        j = i + n
        if j <= len(self._normals):
            self._n_next = j
            return self._normals[i:j]
        out = self._normals[i:]  # the rest of this block, then the next ones
        while True:
            draws = self._normals = self._block("normal")
            need = n - len(out)
            if need <= len(draws):
                self._n_next = need
                return out + draws[:need]
            out += draws


def perturb_scalar(value: float, sigma: float, stream: DrawAhead,
                   direction=None) -> float:
    """value + Z with one draw Z ~ N(0, sigma^2); with a direction (a
    sequence of d floats), value + n . direction for one vector
    n ~ N(0, sigma^2 I), the dot summed left to right.  sigma = 0 returns
    value and draws nothing.  A draw is scaled as Generator.normal(0, sigma)
    scales it, 0.0 + sigma * z."""
    if sigma == 0.0:
        return value
    if direction is None:
        return value + (0.0 + sigma * stream.normal())
    total = 0.0
    for z, v in zip(stream.normals(len(direction)), direction):
        total += (0.0 + sigma * z) * v
    return value + total


def perturb_vector(v: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """v + xi with xi ~ N(0, sigma^2 I) of v's shape; sigma = 0 returns v and
    draws nothing."""
    if sigma == 0.0:
        return v
    return v + rng.normal(0.0, sigma, size=v.shape)


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
    sigma = 0 returns the zero matrix and draws nothing.
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
