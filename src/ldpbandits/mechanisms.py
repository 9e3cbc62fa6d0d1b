"""Gaussian noise calibration, the one sampler family every local report
uses, and the named streams every replication draws from.

Calibration is the Gaussian mechanism,
sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon.  The samplers are the
only code that draws report noise: perturb_scalar (optionally along a
direction, for the two-point report n . (x1 - x2)) for the scalar reports and
ReportNoise for the contextual ones, with symmetric_gaussian_matrix as its
one-round matrix form.  Each draws nothing at sigma = 0, so a zero-noise run
consumes the same stream as a non-private one and its reports carry the clean
values.  Both draw a block ahead in the Generator's own order and scale a
draw as Generator.normal(0, sigma) scales it, 0.0 + sigma * z, so a sample is
the same float a per-call draw would give.  perturb_scalar takes a DrawAhead
stream: a derive_rng Generator's uniforms or standard normals as Python
floats.  ReportNoise keeps its block as one array and hands out a round of a
report's matrix and vector noise as a view of it, so a round makes no
Generator call and builds no array.  One rule sizes every block: DRAW_AHEAD
draws, or _block_rounds rounds (ReportNoise's and the contextual
environment's), and any block size gives the same floats in the same order.

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


DRAW_AHEAD = 256
_BLOCK_FLOATS = 1 << 16


def _block_rounds(floats_per_round: int) -> int:
    """Rounds a block holds: at most DRAW_AHEAD and _BLOCK_FLOATS floats."""
    return max(1, min(DRAW_AHEAD, _BLOCK_FLOATS // floats_per_round))


class DrawAhead:
    """A Generator's uniforms or standard normals, handed out from a block
    drawn ahead.

    Generator.random(n) and Generator.standard_normal(n) give the floats that
    n single calls would give, in the same order, so uniform() is
    Generator.random(), normal() is Generator.standard_normal() and
    normals(n) is Generator.standard_normal(n), here as Python floats.  A
    stream serves one kind only: a block of one kind leaves the Generator
    where single draws of the other kind would not, so asking for the second
    kind raises, also while a block of the first is left (every request
    checks the kind).  Nothing is drawn before the first request.
    """

    __slots__ = ("rng", "_kind", "_draws", "_next")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._kind = None
        self._draws: list[float] = []  # the current block, of the stream's kind
        self._next = 0

    def _block(self, kind: str) -> list[float]:
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise ContractViolation(f"a stream of {self._kind}s cannot serve a {kind}")
        draw = self.rng.random if kind == "uniform" else self.rng.standard_normal
        return draw(DRAW_AHEAD).tolist()

    def uniform(self) -> float:
        i = self._next
        if i == len(self._draws) or self._kind != "uniform":
            self._draws = self._block("uniform")
            i = 0
        self._next = i + 1
        return self._draws[i]

    def normal(self) -> float:
        i = self._next
        if i == len(self._draws) or self._kind != "normal":
            self._draws = self._block("normal")
            i = 0
        self._next = i + 1
        return self._draws[i]

    def normals(self, n: int) -> list[float]:
        i = self._next
        j = i + n
        if j <= len(self._draws) and self._kind == "normal":
            self._next = j
            return self._draws[i:j]
        out = self._draws[i:]  # the rest of this block, then the next ones
        while True:
            draws = self._draws = self._block("normal")
            need = n - len(out)
            if need <= len(draws):
                self._next = need
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


class ReportNoise:
    """A contextual report's Gaussian noise, round by round, from a block of
    rounds drawn ahead.

    round(d, sigma, scales) is a (d + m, d) array for m = len(scales): rows
    0..d-1 a d x d matrix whose upper triangle is i.i.d. N(0, sigma^2) and
    mirrored exactly, row d + j i.i.d. N(0, scales[j]^2).  A round takes its
    d(d+1)/2 + m d standard normals from rng in that order, the triangle
    row-major first, as one Generator.normal call per group would, and a
    group whose scale is 0 draws nothing and reads 0.0.  One standard_normal
    call draws a block of _block_rounds rounds, scaled once and mirrored
    once; a round is a read-only view of it.  A sampler serves one
    (d, sigma, scales) layout: asking for another raises.  Nothing is drawn
    before the first request.
    """

    __slots__ = ("rng", "_layout", "_rounds", "_next")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._layout = None
        self._rounds = ()
        self._next = 0

    def round(self, d: int, sigma: float, scales: tuple[float, ...]) -> np.ndarray:
        i = self._next
        if i < len(self._rounds) and (d, sigma, scales) == self._layout:
            self._next = i + 1
            return self._rounds[i]
        layout = (d, sigma, scales)
        if self._layout is not None and layout != self._layout:
            raise ContractViolation(f"a sampler of {self._layout} rounds cannot serve {layout}")
        self._layout = layout
        rounds = _block_rounds((d + len(scales)) * d)  # the floats a round reads
        self._rounds = _noise_rounds(self.rng, d, sigma, scales, rounds)
        self._next = 1
        return self._rounds[0]


def _noise_rounds(rng: np.random.Generator, d: int, sigma: float,
                  scales: tuple[float, ...], rounds: int) -> np.ndarray:
    """A read-only (rounds, d + m, d) block of rounds, one standard_normal call."""
    groups = ((sigma, d * (d + 1) // 2),) + tuple((s, d) for s in scales)
    index = _round_index(d, tuple(s != 0.0 for s, _ in groups))
    column_scales = np.array([s for s, n in groups if s != 0.0 for _ in range(n)])
    k = column_scales.size
    scaled = np.zeros((rounds, k + 1))  # the last column serves zero scales
    scaled[:, :k] = 0.0 + rng.standard_normal((rounds, k)) * column_scales
    block = scaled[:, index]
    block.flags.writeable = False
    return block


@lru_cache(maxsize=64)
def _round_index(d: int, drawn: tuple[bool, ...]) -> np.ndarray:
    """A round's (d + m, d) positions into its row of draws, for the groups
    (matrix, then m vectors) that drawn marks as taking draws.  The matrix
    reads the row-major triangle mirrored: entries (i, j) and (j, i) both read
    the draw of cell (min(i, j), max(i, j)).  A group that takes no draws
    reads the zero column after them."""
    rows, cols = np.triu_indices(d)
    sizes = (rows.size,) + (d,) * (len(drawn) - 1)
    starts = np.cumsum((0,) + tuple(n for n, on in zip(sizes, drawn) if on))
    index = np.full((d + len(drawn) - 1, d), starts[-1], dtype=np.intp)
    start = iter(starts.tolist())
    if drawn[0]:
        index[rows, cols] = index[cols, rows] = next(start) + np.arange(rows.size)
    for j, on in enumerate(drawn[1:]):
        if on:
            index[d + j] = next(start) + np.arange(d)
    index.flags.writeable = False  # shared by every sampler of this layout
    return index


def symmetric_gaussian_matrix(d: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """A d x d matrix with i.i.d. N(0, sigma^2) upper triangle mirrored exactly.

    Entries (i, j) for i <= j are drawn independently, in row-major order;
    (j, i) is set to the same float, so the result is symmetric bit-for-bit.
    It is one ReportNoise round with no vectors.  sigma = 0 returns the zero
    matrix and draws nothing.
    """
    if d < 1:
        raise CalibrationError(f"dimension must be >= 1, got {d}")
    return _noise_rounds(rng, d, sigma, (), 1)[0].copy()


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
