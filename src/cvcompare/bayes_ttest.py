"""Bayesian correlated t-test: closed-form Student posterior with ROPE queries.

The test uses one prior, the matching Normal-Gamma prior (mu0 = 0,
k0 -> inf, a = -1/2, b = 0).  Under it the posterior of the mean
difference is

    St(mu; n - 1, mean, (1/n + rho/(1-rho)) sd^2)

and numerically coincides with the sampling distribution of the frequentist
correlated t-test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import DiffSeries, Rope
from .kernels import LocScaleStudent, student_cdf, student_quantile, student_sf

__all__ = [
    "TrinomialProbs",
    "HdiSet",
    "posterior",
    "rope_probs",
    "direction_prob",
    "hdis",
]

DEFAULT_HDI_LEVELS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class TrinomialProbs:
    """Probabilities of the three ROPE outcomes for differences x = A - B.

    ``p_left`` is the probability that the mean difference lies below the
    rope (classifier A practically worse), ``p_right`` that it lies above
    (A practically better).  ``mc_stderr`` carries Monte-Carlo standard
    errors when the probabilities were estimated by sampling.
    """

    p_left: float
    p_rope: float
    p_right: float
    mc_stderr: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        for p in (self.p_left, self.p_rope, self.p_right):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability {p} outside [0, 1]")
        if abs(self.p_left + self.p_rope + self.p_right - 1.0) > 1e-9:
            raise ValueError("trinomial probabilities must sum to 1")

    def swapped(self) -> "TrinomialProbs":
        """The same outcome probabilities with the classifier roles exchanged."""
        se = self.mc_stderr
        return TrinomialProbs(
            p_left=self.p_right,
            p_rope=self.p_rope,
            p_right=self.p_left,
            mc_stderr=None if se is None else (se[2], se[1], se[0]),
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_left, self.p_rope, self.p_right)


@dataclass(frozen=True)
class HdiSet:
    """Nested highest-density intervals, one per coverage level."""

    levels: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]


def posterior(d: DiffSeries) -> LocScaleStudent:
    """Posterior of the mean difference for one dataset's paired differences.

    Zero-variance data yields the degenerate point mass at the observed
    mean (``scale2 == 0``), flagged through ``LocScaleStudent.degenerate``.
    """
    scale2 = (1.0 / d.n + d.rho / (1.0 - d.rho)) * d.sd * d.sd
    return LocScaleStudent(dof=d.n - 1, loc=d.mean, scale2=scale2)


def rope_probs(post: LocScaleStudent, rope: Rope) -> TrinomialProbs:
    """Posterior mass below, inside, and above the rope.

    Both outer tails are evaluated directly (no 1 - cdf cancellation), so
    swapping the classifier roles mirrors the triple bit-exactly for a
    symmetric rope.
    """
    if post.degenerate:
        if post.loc < rope.lower:
            return TrinomialProbs(1.0, 0.0, 0.0)
        if post.loc > rope.upper:
            return TrinomialProbs(0.0, 0.0, 1.0)
        return TrinomialProbs(0.0, 1.0, 0.0)
    left = student_cdf(rope.lower, post)
    right = student_sf(rope.upper, post)
    rope_mass = max(1.0 - (left + right), 0.0)
    return TrinomialProbs(p_left=left, p_rope=rope_mass, p_right=right)


def direction_prob(post: LocScaleStudent) -> float:
    """Posterior probability that the mean difference is positive."""
    return student_sf(0.0, post)


def hdis(post: LocScaleStudent, levels=DEFAULT_HDI_LEVELS) -> HdiSet:
    """Highest-density intervals of the posterior.

    The posterior is symmetric and unimodal, so each HDI equals the
    equal-tailed interval loc +- scale * t((1 + level) / 2).
    """
    intervals = []
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"HDI level must be in (0, 1), got {level}")
        hi = student_quantile(0.5 * (1.0 + level), post)
        intervals.append((2.0 * post.loc - hi, hi))
    return HdiSet(levels=tuple(levels), intervals=tuple(intervals))
