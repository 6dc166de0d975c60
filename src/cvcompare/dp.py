"""Dirichlet-process Bayesian sign and signed-rank tests.

The DP posterior over the distribution of per-dataset mean differences is
a mixture of point masses at the observations plus one prior
pseudo-observation whose weight vector is Dirichlet(s, 1, ..., 1).  The
sign test has a closed-form Dirichlet posterior over the three rope
outcomes; the signed-rank test pushes the sampled weights through the
pairwise-sum statistic and is evaluated by Monte Carlo.

Conventions (differences are x = A - B for the pair "A vs B"):

* data pairs (i, j >= 1) are classified by their sum against the doubled
  rope bounds, closed inside: left if z_i + z_j < 2 * lower, rope if
  2 * lower <= z_i + z_j <= 2 * upper, right otherwise;
* pairs involving the prior pseudo-observation carry no rope width of
  their own and are classified by the sign of their sum, so the in-rope
  placement contributes to the rope only through its self-pair while the
  placements at -inf / +inf force their pairs left / right;
* the pseudo-observation placement is a categorical flag, never a
  floating-point infinity entering arithmetic.

The signed-rank masses are evaluated without a pair matrix.  With the
observations sorted ascending, the partners j of each i with
z_i + z_j < 2 * lower form a prefix of length k_i; floating-point addition
is monotone, so this holds for the computed sums too.  The left mass of a
draw is then sum_i w_i P[k_i], where P is the running sum of the weights in
sorted order, plus the pseudo-observation's pairs read off the same P.  The
right mass is the same computation on -z below -2 * upper, so negating the
data swaps the two masses bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .bayes_ttest import TrinomialProbs
from .data import MeanDiffVector, Rope
from .kernels import RngStream

__all__ = [
    "DpPrior",
    "DirichletParams",
    "TrinomialSamples",
    "sign_test_params",
    "sign_test_samples",
    "sign_test_probs",
    "signed_rank_samples",
    "simplex_region_probs",
]

Placement = Literal["left", "rope", "right"]

DEFAULT_SAMPLE_COUNT = 150_000
_BLOCK = 2048  # signed-rank draws per block: a (q, _BLOCK) weight block stays in L2 cache


@dataclass(frozen=True)
class DpPrior:
    """Dirichlet-process prior: strength ``s`` and pseudo-observation placement."""

    s: float = 0.5
    z0: Placement = "rope"

    def __post_init__(self) -> None:
        if not self.s > 0:
            raise ValueError(f"prior strength must be positive, got {self.s}")
        if not math.isfinite(self.s):
            raise ValueError(f"prior strength must be finite, got {self.s}")
        if self.z0 not in ("left", "rope", "right"):
            raise ValueError(f"z0 placement must be left/rope/right, got {self.z0!r}")


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet posterior parameters of the sign test (left, rope, right)."""

    a_left: float
    a_rope: float
    a_right: float

    def __post_init__(self) -> None:
        if min(self.a_left, self.a_rope, self.a_right) < 0:
            raise ValueError("Dirichlet parameters must be non-negative")
        if not all(map(math.isfinite, (self.a_left, self.a_rope, self.a_right))):
            raise ValueError("Dirichlet parameters must be finite")
        if self.a_left + self.a_rope + self.a_right <= 0:
            raise ValueError("Dirichlet parameters must not all be zero")

    def as_array(self) -> np.ndarray:
        return np.array([self.a_left, self.a_rope, self.a_right])


@dataclass(frozen=True)
class TrinomialSamples:
    """Monte-Carlo draws of (theta_left, theta_rope, theta_right)."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 2 or s.shape[1] != 3 or s.shape[0] == 0:
            raise ValueError("samples must be a non-empty (count, 3) matrix")
        if not s.min() >= 0.0:  # NaN fails this test too
            raise ValueError("theta draws must be non-negative")
        if not np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12:
            raise ValueError("theta draws must sum to one")

    @property
    def count(self) -> int:
        return int(self.samples.shape[0])


def sign_test_params(z: MeanDiffVector, rope: Rope, prior: DpPrior) -> DirichletParams:
    """Closed-form Dirichlet parameters of the DP sign test.

    Counts the observations below, inside (closed interval), and above the
    rope, then adds the prior strength to the component holding the
    pseudo-observation.
    """
    n_left = int(np.sum(z.z < rope.lower))
    n_right = int(np.sum(z.z > rope.upper))
    n_rope = z.q - n_left - n_right
    a = [float(n_left), float(n_rope), float(n_right)]
    a[("left", "rope", "right").index(prior.z0)] += prior.s
    return DirichletParams(a_left=a[0], a_rope=a[1], a_right=a[2])


def sign_test_samples(params: DirichletParams, count: int, rng: RngStream) -> TrinomialSamples:
    """Sample the sign-test Dirichlet posterior.

    The draws are normalised gamma variates.  Zero parameters are legal
    (that outcome was never observed and holds no prior mass): the
    corresponding coordinate is identically zero.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    alpha = params.as_array()
    w = rng.generator().standard_gamma(alpha, size=(count, alpha.size))
    w /= w.sum(axis=1, keepdims=True)
    return TrinomialSamples(samples=w)


def sign_test_probs(params: DirichletParams, count: int, rng: RngStream) -> TrinomialProbs:
    """Simplex-region probabilities of the sign test (Monte Carlo)."""
    return simplex_region_probs(sign_test_samples(params, count, rng))


class _Side(NamedTuple):
    """The ordered pairs on one side of the rope, as prefixes of one sort order.

    ``order`` sorts the datasets ascending; the partners of ``order[i]`` on
    this side are ``order[:k[i]]``; the pseudo-observation pairs with
    ``order[:n_pseudo]``, and with itself when ``self_pair``.
    """

    order: np.ndarray
    k: np.ndarray
    n_pseudo: int
    self_pair: bool


def _side(v: np.ndarray, bound: float, placed: int) -> _Side:
    """The side holding the data pairs with ``v_i + v_j < bound``.

    ``placed`` is 1 when the pseudo-observation sits on this side, -1 when
    it sits on the other one and 0 when it sits in the rope; there its pairs
    fall on this side when ``v_j < 0``.  For a fixed i the partners j form a
    prefix of the ascending order because floating-point addition is
    monotone, so ``k`` counts the computed sums and is exact.
    """
    order = np.argsort(v, kind="stable")
    vs = v[order]
    k = np.count_nonzero(vs[:, None] + vs[None, :] < bound, axis=1)
    n_pseudo = v.size if placed > 0 else int(np.count_nonzero(v < 0.0)) if placed == 0 else 0
    return _Side(order, k, n_pseudo, placed > 0)


def _pair_sides(z: np.ndarray, rope: Rope, placement: Placement) -> tuple[_Side, _Side]:
    """The left and right sides of the signed-rank statistic.

    The right side is the left side of ``-z`` below ``-2 * upper``.
    Negation is exact, so it holds exactly the pairs with
    ``z_i + z_j > 2 * upper``, and negating ``z`` swaps the two sides bit
    for bit.
    """
    placed = {"left": 1, "rope": 0, "right": -1}[placement]
    return _side(z, 2.0 * rope.lower, placed), _side(-z, -2.0 * rope.upper, -placed)


def _side_mass(side: _Side, w0: np.ndarray, w: np.ndarray, running: np.ndarray) -> np.ndarray:
    """Unnormalised weight of the ordered pairs on ``side``, per draw.

    ``w0`` holds the pseudo-observation's weight of each draw and ``w``
    the (datasets, draws) data weights.  The mass sum_ij w_i w_j over the
    side's pairs is read off a running sum of the weights in sort order,
    built in ``running``, a (datasets + 1, draws) buffer.
    """
    running[0] = 0.0
    for j, d in enumerate(side.order):
        np.add(running[j], w[d], out=running[j + 1])
    mass = 2.0 * w0 * running[side.n_pseudo]
    if side.self_pair:
        mass += w0 * w0
    product = np.empty_like(mass)
    for d, k in zip(side.order, side.k):
        if k == 0:  # k falls along the order, so no later row has partners
            break
        np.multiply(w[d], running[k], out=product)
        mass += product
    return mass


def signed_rank_samples(
    z: MeanDiffVector,
    rope: Rope,
    prior: DpPrior,
    count: int = DEFAULT_SAMPLE_COUNT,
    rng: RngStream | None = None,
) -> TrinomialSamples:
    """Monte-Carlo draws of the signed-rank theta triple.

    For each Dirichlet weight vector (w_0, ..., w_q) ~ Dir(s, 1, ..., 1)
    the thetas are the weight mass of ordered observation pairs whose sums
    fall left of, inside, and right of the doubled rope; theta_rope is
    computed as the complement so each triple sums to one by construction.
    The weights are drawn unnormalised, in blocks of at most ``_BLOCK``
    draws: a Gamma(s) pseudo-observation weight per draw, then a
    (q, draws) block of unit exponentials.
    """
    if rng is None:
        raise ValueError("an RngStream is required (no silent nondeterminism)")
    if count < 1:
        raise ValueError("count must be at least 1")
    left, right = _pair_sides(z.z, rope, prior.z0)
    gen = rng.generator()
    out = np.empty((count, 3))
    # every block reuses these buffers: fresh pages per block cost more than its arithmetic
    size = min(count, _BLOCK)
    w_buf, running_buf = np.empty(z.q * size), np.empty((z.q + 1) * size)
    for start in range(0, count, _BLOCK):
        th = out[start:start + _BLOCK]
        b = th.shape[0]
        w0 = gen.standard_gamma(prior.s, size=b)
        w = gen.standard_exponential(out=w_buf[: z.q * b].reshape(z.q, b))
        running = running_buf[: (z.q + 1) * b].reshape(z.q + 1, b)
        total = w0 + w.sum(axis=0)
        norm = total * total
        th[:, 0] = _side_mass(left, w0, w, running) / norm
        th[:, 2] = _side_mass(right, w0, w, running) / norm
        th[:, 1] = np.maximum(1.0 - (th[:, 0] + th[:, 2]), 0.0)
    return TrinomialSamples(samples=out)


def simplex_region_probs(samples: TrinomialSamples) -> TrinomialProbs:
    """Fraction of draws in each argmax region of the simplex.

    A draw belongs to region i when theta_i >= max of the others; ties
    are resolved toward the rope, then toward the left region.  Reports
    binomial Monte-Carlo standard errors alongside the fractions.
    """
    t = samples.samples
    rope_win = (t[:, 1] >= t[:, 0]) & (t[:, 1] >= t[:, 2])
    left_win = ~rope_win & (t[:, 0] >= t[:, 2])
    n = samples.count
    n_rope = int(np.count_nonzero(rope_win))
    n_left = int(np.count_nonzero(left_win))
    n_right = n - n_rope - n_left
    p_left, p_rope, p_right = n_left / n, n_rope / n, n_right / n
    se = tuple(float(np.sqrt(p * (1.0 - p) / n)) for p in (p_left, p_rope, p_right))
    return TrinomialProbs(p_left=p_left, p_rope=p_rope, p_right=p_right, mc_stderr=se)

