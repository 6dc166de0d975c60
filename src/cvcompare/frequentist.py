"""Frequentist baselines: correlated t-test and Wilcoxon signed-rank test.

The correlated t-test inflates the variance of the classic one-sample
t-test by rho / (1 - rho) to account for the overlap of cross-validation
training sets; rho = 0 recovers the textbook test.  It reads one dataset's
differences.  The signed-rank test reads the per-dataset mean differences
(``PairDifferences.means``) of every dataset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import PairDifferences
from .errors import DegenerateDataError
from .kernels import LocScaleStudent, student_sf

__all__ = [
    "TTestResult",
    "WilcoxonResult",
    "correlated_ttest",
    "wilcoxon_signed_rank",
]


@dataclass(frozen=True)
class TTestResult:
    t: float
    p_two_sided: float
    p_one_sided_greater: float
    dof: int


@dataclass(frozen=True)
class WilcoxonResult:
    t_stat: float
    w: float
    p_two_sided: float
    tie_adjust: float
    exact: bool


def correlated_ttest(d: PairDifferences, mu0: float = 0.0) -> TTestResult:
    """Correlated t-test of H0: mu = mu0 for the one dataset of ``d``.

    The statistic is (mean - mu0) / sqrt(sd^2 (1/n + rho/(1-rho))) with
    n - 1 degrees of freedom.
    """
    dataset, mean, sd, rho = d.series()
    if sd == 0.0:
        raise DegenerateDataError(
            f"dataset {dataset!r}: zero variance, t statistic undefined"
        )
    se = sd * np.sqrt(1.0 / d.n + rho / (1.0 - rho))
    t = (mean - mu0) / se
    dist = LocScaleStudent(dof=d.n - 1, loc=0.0, scale2=1.0)
    return TTestResult(
        t=float(t),
        p_two_sided=2.0 * student_sf(abs(t), dist),
        p_one_sided_greater=student_sf(t, dist),
        dof=d.n - 1,
    )


def _rank_abs(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Average ranks of |values| plus the tie adjustment sum(t^3 - t) / 2."""
    _, group, counts = np.unique(np.abs(values), return_inverse=True, return_counts=True)
    # the group of t tied values after `start` smaller ones holds ranks start+1..start+t
    ends = np.cumsum(counts)
    starts = ends - counts
    ranks = (0.5 * (starts + ends - 1) + 1.0)[group]
    t = counts.astype(float)  # t^3 in int64 would wrap for t > 2^21
    tie_adjust = float(np.sum((t**3 - t) / 2.0))
    return ranks, tie_adjust


def _exact_two_sided_p(ranks: np.ndarray, t_stat: float) -> float:
    """Exact null distribution of the positive-rank sum, built one rank at a
    time over doubled ranks (integers even for tied average ranks), halving
    the probabilities at each step so that nothing overflows.  It is
    symmetric about q(q+1)/4 even with tied ranks, so the two-sided p-value
    is the probability of being at least as far from the centre as observed.
    """
    q = ranks.size
    centre = q * (q + 1) / 4.0
    observed = abs(t_stat - centre)
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    prob = np.zeros(int(doubled.sum()) + 1)
    prob[0] = 1.0
    top = 0  # the largest doubled sum reached so far
    for r in doubled.tolist():
        prob[r : top + r + 1] += prob[: top + 1]  # numpy buffers the overlap
        top += r
        prob[: top + 1] *= 0.5
    sums = np.arange(top + 1) / 2.0
    return float(prob[np.abs(sums - centre) >= observed - 1e-12].sum())


def wilcoxon_signed_rank(z: PairDifferences, exact: bool | None = None) -> WilcoxonResult:
    """Wilcoxon signed-rank test on per-dataset mean differences.

    Zero differences are discarded before ranking (the classic treatment;
    it reproduces the published rank sums for this benchmark family) and
    tied absolute values receive average ranks.  For q <= 10 the exact
    p-value is used instead of the normal approximation unless
    ``exact=False`` forces the approximation; ``exact=True`` gives the
    exact p-value for any q.
    """
    values = z.means[z.means != 0.0]
    q = values.size
    if q == 0:
        # all-zero input: no evidence either way
        return WilcoxonResult(t_stat=0.0, w=0.0, p_two_sided=1.0, tie_adjust=0.0, exact=True)
    ranks, tie_adjust = _rank_abs(values)
    t_stat = float(ranks[values > 0].sum())
    # tie_adjust <= (q^3 - q) / 2, so 24 variance >= 3q(q+1)^2 / 2 > 0
    variance = (q * (q + 1) * (2 * q + 1) - tie_adjust) / 24.0
    w = (t_stat - q * (q + 1) / 4.0) / np.sqrt(variance)
    if exact is None:
        exact = q <= 10
    if exact:
        p = _exact_two_sided_p(ranks, t_stat)
    else:
        if q <= 10:
            warnings.warn(
                f"normal approximation is unreliable for q = {q} <= 10",
                stacklevel=2,
            )
        # erfc keeps the tail's relative precision, where 1 - cdf cancels to 0
        p = math.erfc(abs(w) / math.sqrt(2.0))
    return WilcoxonResult(
        t_stat=t_stat, w=float(w), p_two_sided=min(p, 1.0), tie_adjust=tie_adjust, exact=exact
    )

