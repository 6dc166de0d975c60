"""Numerical kernels: Student distribution functions and reproducible RNG streams.

Everything here is pure: a given ``RngStream`` yields bit-identical draws
with one numpy build on one CPU dispatch target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocScaleStudent",
    "RngStream",
    "student_cdf",
    "student_tail",
    "student_sf",
    "student_quantile",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class LocScaleStudent:
    """Location-scale Student distribution with ``dof`` degrees of freedom.

    Parameterised by the squared scale; ``scale2 == 0`` denotes the
    degenerate point mass at ``loc`` (used for zero-variance data).
    """

    dof: float
    loc: float
    scale2: float

    def __post_init__(self) -> None:
        if not self.dof > 0:
            raise ValueError(f"dof must be positive, got {self.dof}")
        if self.scale2 < 0:
            raise ValueError(f"scale2 must be non-negative, got {self.scale2}")

    @property
    def scale(self) -> float:
        return math.sqrt(self.scale2)

    @property
    def degenerate(self) -> bool:
        return self.scale2 == 0.0


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by ``(seed, stream_id)``.

    Identical keys produce identical draw sequences with one numpy build on
    one CPU dispatch target.
    Sub-streams for the comparisons of a run and for chains are derived with
    :meth:`spawn`.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def spawn(self, index: int) -> "RngStream":
        """Derive the ``index``-th child stream (deterministic mixing)."""
        if index < 0:
            raise ValueError("stream index must be non-negative")
        child = _splitmix64((self.stream_id & _MASK64) ^ _splitmix64(index + 1))
        return RngStream(self.seed, child)


def student_tail(t, dof):
    """P(T > |t|) for the standardized Student distribution (vectorized)."""
    from scipy import special
    return 0.5 * special.betainc(0.5 * dof, 0.5, dof / (dof + t * t))


def _student_below_array(dx, dof, scale):
    """P(T - loc <= dx) for Student variables T of positive ``scale`` (vectorized), through
    the regularized incomplete beta function; absolute error is about 1e-15."""
    t = dx / scale
    tail = student_tail(t, dof)
    return np.where(t < 0, tail, 1.0 - tail)


def _student_below(dx: float, d: LocScaleStudent) -> float:
    """P(T - loc <= dx) for a location-scale Student variable T, which may be
    the point mass at ``loc``."""
    if d.degenerate:
        if dx < 0:
            return 0.0
        if dx > 0:
            return 1.0
        return 0.5
    return float(_student_below_array(dx, d.dof, d.scale))


def student_cdf(x: float, d: LocScaleStudent) -> float:
    """P(T <= x) for a location-scale Student variable T."""
    return _student_below(x - d.loc, d)


def student_sf(x: float, d: LocScaleStudent) -> float:
    """P(T > x), which is P(T - loc <= loc - x) by symmetry; keeps full
    precision in the upper tail, where ``1 - student_cdf(x, d)`` would cancel."""
    return _student_below(d.loc - x, d)


def student_quantile(p: float, d: LocScaleStudent) -> float:
    """Inverse of :func:`student_cdf`; ``p`` must lie in the open unit interval."""
    from scipy import special
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    if d.degenerate or p == 0.5:
        return d.loc
    tail = 2.0 * min(p, 1.0 - p)
    w = special.betaincinv(0.5 * d.dof, 0.5, tail)
    t = math.sqrt(d.dof * (1.0 - w) / w)
    return d.loc - d.scale * t if p < 0.5 else d.loc + d.scale * t
