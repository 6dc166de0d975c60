"""Numerical kernels shared by all tests.

Student distribution functions, the Gamma log density, the
compound-symmetry Gaussian log-likelihood and reproducible RNG streams.
Everything here is pure: a given ``RngStream`` yields bit-identical draws
on every platform.
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
    "student_logpdf",
    "gamma_logpdf",
    "cs_loglik",
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

    Identical keys produce identical draw sequences on every platform.
    Sub-streams for Monte-Carlo chunks and chains are derived with
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


def student_logpdf(x, dof, loc, scale):
    """Log density of the location-scale Student distribution (vectorized)."""
    from scipy import special
    z = (np.asarray(x, dtype=float) - loc) / scale
    return (
        special.gammaln(0.5 * (dof + 1.0))
        - special.gammaln(0.5 * dof)
        - 0.5 * np.log(np.pi * dof)
        - np.log(scale)
        - 0.5 * (dof + 1.0) * np.log1p(z * z / dof)
    )


def gamma_logpdf(x, shape, rate):
    """Log density of Gamma(shape, rate); -inf for x <= 0 (vectorized)."""
    from scipy import special
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = shape * np.log(rate) - special.gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x
    return np.where(x > 0, out, -np.inf) if out.ndim else (float(out) if x > 0 else -math.inf)


def cs_loglik(mean_i, ss_i, n: int, mu, sigma2, rho: float):
    """Gaussian log-likelihood under a compound-symmetry covariance.

    The covariance has diagonal ``sigma2`` and off-diagonal ``rho * sigma2``;
    its eigenvalues ``lam1 = sigma2 * (1 + (n-1) rho)`` (multiplicity one) and
    ``lam2 = sigma2 * (1 - rho)`` (multiplicity n-1) give the closed form

        -(n/2) log 2pi - log(lam1)/2 - (n-1)/2 log(lam2)
        - ss_i / (2 lam2) - n (mean_i - mu)^2 / (2 lam1)

    evaluated from the sufficient statistics (sample mean ``mean_i`` and
    centred sum of squares ``ss_i``).  Accepts arrays for the per-dataset
    arguments and broadcasts.
    """
    mean_i = np.asarray(mean_i, dtype=float)
    ss_i = np.asarray(ss_i, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(ss_i < 0):
        raise ValueError("sum of squares must be non-negative")
    if np.any(sigma2 <= 0):
        raise ValueError("sigma2 must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    lam1 = sigma2 * (1.0 + (n - 1) * rho)
    lam2 = sigma2 * (1.0 - rho)
    out = (
        -0.5 * n * math.log(2.0 * math.pi)
        - 0.5 * np.log(lam1)
        - 0.5 * (n - 1) * np.log(lam2)
        - ss_i / (2.0 * lam2)
        - n * (mean_i - mu) ** 2 / (2.0 * lam1)
    )
    return float(out) if out.ndim == 0 else out
