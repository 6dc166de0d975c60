"""Numerical kernels: Student distribution functions and reproducible RNG streams.

Everything here is pure: a given ``RngStream`` yields bit-identical draws
with one numpy build on one CPU dispatch target.

The Student tail P(T > |t|) is half the regularized incomplete beta
function I_x(dof/2, 1/2) at x = dof / (dof + t^2), computed with numpy and
``math`` alone: from its positive-term hypergeometric series where that
converges quickly and from a continued fraction (modified Lentz) elsewhere,
split as in DiDonato & Morris (1992, ACM TOMS 18:360); log Γ(a + 1/2) -
log Γ(a) comes from its asymptotic series.  Quantiles are Halley steps on
that tail from Hill's approximation (1970, CACM 13:619, Algorithm 396).
Against a 40-digit oracle, the tail's relative error is below 1e-13 for
dof <= 1e3 and 1e-12 above, down to tails of 1e-300; it is 1/2 exactly at
t = 0 and 0 at |t| = inf.  A quantile's distance from the centre has that
error divided by the tail's log-log slope, which tends to dof far out, so
it meets the same bounds from 1 degree of freedom up and at the levels of
the highest-density intervals.  These functions take and return floats,
with one code path; their logarithms come from numpy rather than ``math``,
whose last bits would change every pinned output that reads a Student tail.
"""

from __future__ import annotations

import math
import sys
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
    Sub-streams are derived with :meth:`spawn`: every ``sign`` and
    ``signed-rank`` comparison of a run reads ``spawn(0)`` of its seed, and a
    hierarchical fit reads one child per chain.
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


# The tail P(T > |t|) is I_x(a, 1/2) / 2, the regularized incomplete beta
# function at a = dof / 2 and x = dof / (dof + t^2); y = 1 - x is formed as
# t^2 / (dof + t^2), never by subtraction.  With k = x^a y^(1/2) / B(a, 1/2),
# which is |t| times the density at t,
#
#   I_x(a, 1/2) = (k / a) sum_n (a + 1/2)_n / (a + 1)_n x^n   (positive terms)
#               = (k / a) / (1 + d_1 / (1 + d_2 / (1 + ...)))  (continued fraction)
#   I_y(1/2, a) = 2 k sum_n (a + 1/2)_n / (3/2)_n y^n          (positive terms)
#
# and I_x(a, 1/2) + I_y(1/2, a) = 1.  Below the mode-side split
# x < (a + 1) / (a + 5/2) (DiDonato & Morris 1992, ACM TOMS 18:360) the tail
# is I_x(a, 1/2) / 2 itself, from the first series where x is small and from
# the continued fraction (modified Lentz) elsewhere; above it, the tail is
# 1/2 - I_y(1/2, a) / 2, which is at least 0.04 there.  The logarithms of x
# come from numpy's log1p and log: a · log x turns one ulp of log x into up to
# 700 ulps of the tail, and numpy's SIMD loops can round differently from
# libm's in the last bit, so ``math.log`` would change the ``freq-ttest`` and
# ``bayes-ttest`` outputs that the golden files pin.  exp, pow and sqrt come
# from ``math``, at one ulp's cost.

_EPS = 2.0**-53
# x below which the first series converges faster than the continued fraction
_SERIES_X = 0.5
# a from which the asymptotic series of log Γ(a + 1/2) - log Γ(a) has converged
_ASYMPTOTIC_A = 10.0
# dof above which a Student law is taken as its normal limit: they agree to
# double precision, and the squares of dof/2 that the fraction forms stay finite
_MAX_DOF = 1e150
# x below which x^a is formed by pow rather than from log x
_POW_X = 0.25
_MIN_NORMAL = sys.float_info.min
_SQRT_PI = math.sqrt(math.pi)
_MAX_FLOAT = sys.float_info.max
_LOG_MAX = math.log(_MAX_FLOAT)
_MAX_QUANTILE_STEPS = 60
# the largest change of log t in one quantile step
_MAX_LOG_STEP = 50.0


def _iterate(step, params, state):
    """Run ``state = step(n, params, state)`` for n = 0, 1, ... until the step's
    error is at most one rounding unit of its scale, and return ``state[0]``.

    ``step`` returns the new state, the error and the scale.  A NaN error
    stops at once.
    """
    n = 0.0
    while True:
        state, err, scale = step(n, params, state)
        n += 1.0
        if not err > _EPS * scale:
            return state[0]


def _gamma_ratio(a):
    """(g, f) with Γ(a + 1/2) / Γ(a) = f exp(g).

    For large ``a``, g is the asymptotic series of log Γ(a + 1/2) - log Γ(a)
    - log(a) / 2 and f = a^(1/2), so no two large log-gammas cancel; a
    smaller ``a`` is first stepped up by ones through
    Γ(z + 1/2) / Γ(z) = Γ(z + 3/2) / Γ(z + 1) · z / (z + 1/2).
    """
    z, f = a, 1.0
    while z < _ASYMPTOTIC_A:
        f *= z / (z + 0.5)
        z += 1.0
    r = 1.0 / (z * z)
    g = (((((691 / 180224 * r - 31 / 18432) * r + 17 / 14336) * r - 1 / 640) * r + 1 / 192) * r - 1 / 8) / z
    return g, f * math.sqrt(z)


def _density_term(a, x, y, log_x):
    """k = x^a y^(1/2) / B(a, 1/2), |t| times the Student density at t.

    x^a is pow(x, a) for normal x below 1/4, which has ``a`` times the error
    of x, and exp(a log x) elsewhere, which has the error of a log x.
    """
    g, f = _gamma_ratio(a)
    power = x**a if _MIN_NORMAL <= x < _POW_X else math.exp(a * log_x)
    return power * math.exp(g) * f * math.sqrt(y / math.pi)


def _series_x_step(n, params, state):
    """One term of sum_n (a + 1/2)_n / (a + 1)_n x^n; each is below x times the one before."""
    a, x = params
    total, term = state
    term = term * ((a + 0.5 + n) / (a + 1.0 + n) * x)
    total = total + term
    return (total, term), term, total


def _series_y_step(n, params, state):
    """One term of sum_n (a + 1/2)_n / (3/2)_n y^n, for y (a + 5/2) <= 3/2."""
    a, y = params
    total, term = state
    term = term * ((a + 0.5 + n) / (1.5 + n) * y)
    total = total + term
    return (total, term), term, total


def _fraction_start(a, y):
    """The state (h, c, d) of :func:`_fraction_step` after d_1: h = d = 1 / (1 + d_1)."""
    d = (a + 1.0) / (0.5 + (a + 0.5) * y)
    return d, 1.0, d


def _fraction_step(n, params, state):
    """One step of a B(a, 1/2) I_x(a, 1/2) / (x^a y^(1/2)) by its continued
    fraction 1 / (1 + d_1 / (1 + d_2 / (1 + ...))), evaluated forwards by the
    modified Lentz method; it converges for x < (a + 1) / (a + 5/2).

    Each step takes the even d_2m and the odd d_(2m+1) together.  As x nears
    1 with ``a`` large, every odd d_(2m+1) nears -1, so 1 + d_(2m+1) is formed
    from y = 1 - x with positive terms only, and the two-step update needs no
    other difference of nearly equal numbers.
    """
    a, x, y = params
    h, c, d = state
    m = n + 1.0
    even = m * (0.5 - m) * x / ((a - 1.0 + 2.0 * m) * (a + 2.0 * m))
    odd_plus_one = (a * (2.0 * m + 0.5) + m * (3.0 * m + 1.5) + y * (a + m) * (a + m + 0.5)) / (
        (a + 2.0 * m) * (a + 2.0 * m + 1.0)
    )
    ed, ec = even * d, even / c
    delta = (odd_plus_one + ec) / (odd_plus_one + ed)
    state = (h * delta, (odd_plus_one + ec) / (1.0 + ec), (1.0 + ed) / (odd_plus_one + ed))
    return state, abs(delta - 1.0), 1.0


def _tail_parts(t: float, dof: float) -> tuple[float, float, float, float]:
    """(tail, centre, k, y) at finite t > 0: tail = P(T > t), centre = P(0 < T <= t)
    = 1/2 - tail, k = t times the density at t and y = t^2 / (dof + t^2).  Of
    tail and centre, the one that is computed (the other is 1/2 minus it) is
    the smaller, or else above 0.04."""
    a = 0.5 * dof
    tt = t * t
    u = tt / dof
    if u < math.inf:
        s = dof + tt
        x, y = dof / s, tt / s
        log_x = -float(np.log1p(u))
    else:  # |t| beyond 1e154 or so: x = w / (1 + w) with w = dof / t^2
        w = dof / t / t
        x, y = w / (1.0 + w), 1.0 / (1.0 + w)
        log_x = float(np.log(dof) - 2.0 * np.log(t) - np.log1p(w))
    k = _density_term(a, x, y, log_x)
    if y * (a + 2.5) > 1.5:
        if x <= _SERIES_X:
            tail = k * _iterate(_series_x_step, (a, x), (1.0, 1.0)) / dof
        else:
            tail = k * _iterate(_fraction_step, (a, x, y), _fraction_start(a, y)) / dof
        return tail, 0.5 - tail, k, y
    centre = k * _iterate(_series_y_step, (a, y), (1.0, 1.0))
    return 0.5 - centre, centre, k, y


def student_tail(t, dof):
    """P(T > |t|), a float, for the standardized Student distribution with
    ``dof`` degrees of freedom.  It is exactly 1/2 at t = 0 and 0 at |t| = inf;
    elsewhere its relative error is below 1e-13 for dof <= 1e3 and 1e-12 above."""
    t, dof = abs(float(t)), min(float(dof), _MAX_DOF)
    if not (dof > 0.0 and t < math.inf):
        return 0.0 if dof > 0.0 and t == math.inf else math.nan
    return 0.5 if t == 0.0 else _tail_parts(t, dof)[0]


def _student_below(dx: float, d: LocScaleStudent) -> float:
    """P(T - loc <= dx) for a location-scale Student variable T, which may be
    the point mass at ``loc``."""
    if d.degenerate:
        if dx < 0:
            return 0.0
        if dx > 0:
            return 1.0
        return 0.5
    t = dx / d.scale
    tail = student_tail(t, d.dof)
    return tail if t < 0 else 1.0 - tail


def student_cdf(x: float, d: LocScaleStudent) -> float:
    """P(T <= x) for a location-scale Student variable T."""
    return _student_below(x - d.loc, d)


def student_sf(x: float, d: LocScaleStudent) -> float:
    """P(T > x), which is P(T - loc <= loc - x) by symmetry; keeps full
    precision in the upper tail, where ``1 - student_cdf(x, d)`` would cancel."""
    return _student_below(d.loc - x, d)


def _quantile_start(q: float, dof: float) -> float:
    """A first guess at the t > 0 with P(T > t) = q < 1/2: Hill's approximation
    (1970, CACM 13:619, Algorithm 396) from 1 degree of freedom up, and the
    leading power law of the tail below, where Hill's does not apply."""
    if dof < 1.0:
        g, f = _gamma_ratio(0.5 * dof)
        log_t = 0.5 * math.log(dof) + (math.log(f / (dof * _SQRT_PI * q)) + g) / dof
        return math.exp(min(log_t, _LOG_MAX))
    from statistics import NormalDist

    p = 2.0 * q
    a = 1.0 / (dof - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * dof
    log_y = 2.0 / dof * math.log(d * p)
    y = math.exp(log_y)
    if y > 0.05 + a or (dof < 2.1 and p > 0.5):
        x = NormalDist().inv_cdf(q)
        y = x * x
        if dof < 5.0:
            c += 0.3 * (dof - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        return math.sqrt(dof * math.expm1(a * y * y))
    if y < _EPS:  # then t^2 is dof / y to working precision
        return math.sqrt(dof) * math.exp(min(-0.5 * log_y, _LOG_MAX))
    y = ((1.0 / (((dof + 6.0) / (dof * y) - 0.089 * d - 0.822) * (dof + 2.0) * 3.0) + 0.5 / (dof + 4.0)) * y
         - 1.0) * (dof + 1.0) / (dof + 2.0) + 1.0 / y
    return math.sqrt(dof * y)


def _t_quantile(q: float, dof: float) -> float:
    """The t > 0 with P(T > t) = q, for 0 < q < 1/2; inf when t exceeds the
    largest float.

    Halley steps in log t on log P(T > t) = log q, or on log P(0 < T <= t)
    = log(1/2 - q) when q > 1/4, so that the equation is solved to the
    relative precision of whichever of the two masses is the smaller.
    With k = t times the density and y = t^2 / (dof + t^2), the first
    derivative of either logarithm is s = -k / tail or s = k / centre, and
    the second is s (1 - (dof + 1) y - s).
    """
    centre_side = q > 0.25
    target = 0.5 - q if centre_side else q
    t = last = min(_quantile_start(q, dof), _MAX_FLOAT)
    for _ in range(_MAX_QUANTILE_STEPS):
        tail, centre, k, y = _tail_parts(t, dof)
        value, slope = (centre, k / centre) if centre_side else (tail, -k / tail)
        if value == 0.0:  # a step went past the last representable mass: go half way back
            t = math.sqrt(t) * math.sqrt(last)
            continue
        last = t
        # a tail below _MIN_NORMAL moves in units of math.ulp(0.0); where one unit is more
        # than the step test below resolves, the steps would only oscillate about the target
        if target < _MIN_NORMAL and abs(value - target) <= math.ulp(0.0):
            break
        miss = math.log(value / target)
        if t == _MAX_FLOAT and miss > 0.0:
            return math.inf
        newton = -miss / slope
        bend = 0.5 * newton * (1.0 - (dof + 1.0) * y - slope)
        step = newton / (1.0 + bend) if abs(bend) < 0.5 else newton
        step = min(max(step, -_MAX_LOG_STEP), _MAX_LOG_STEP)
        t = min(t * math.exp(step), _MAX_FLOAT)
        if abs(step) < 1e-10:
            break
    return t


def student_quantile(p: float, d: LocScaleStudent) -> float:
    """Inverse of :func:`student_cdf`; ``p`` must lie in the open unit interval.
    The distance to ``loc`` has the relative error of :func:`student_tail`
    divided by the tail's log-log slope, which tends to ``dof`` far out."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    if d.degenerate or p == 0.5:
        return d.loc
    t = _t_quantile(min(p, 1.0 - p), min(d.dof, _MAX_DOF))
    return d.loc - d.scale * t if p < 0.5 else d.loc + d.scale * t
