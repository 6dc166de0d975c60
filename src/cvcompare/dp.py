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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

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
_CHUNK = 50_000


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


def _dirichlet_draws(
    alpha: np.ndarray, count: int, rng: RngStream, reduce: Callable[[np.ndarray], np.ndarray]
) -> TrinomialSamples:
    """``count`` weight vectors from Dirichlet(alpha), each reduced to a theta triple.

    The weights are normalised gamma draws, made in chunks of at most
    ``_CHUNK`` rows with chunk ``i`` taken from ``rng.spawn(i)``.  The chunk
    layout depends only on ``count``, so a given ``rng`` always yields the
    same draws.  Zero parameters are legal: that coordinate is identically
    zero.  ``reduce`` maps a chunk's (rows, len(alpha)) weights to its
    (rows, 3) thetas and may overwrite the weights.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    chunks = []
    for i in range((count + _CHUNK - 1) // _CHUNK):
        m = min(_CHUNK, count - i * _CHUNK)
        w = rng.spawn(i).generator().standard_gamma(alpha, size=(m, alpha.size))
        w /= w.sum(axis=1, keepdims=True)
        chunks.append(reduce(w))
        del w  # so that two chunks' weights are never held at once
    return TrinomialSamples(samples=np.concatenate(chunks, axis=0))


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

    Zero parameters are legal (that outcome was never observed and holds
    no prior mass): the corresponding coordinate is identically zero.
    """
    return _dirichlet_draws(params.as_array(), count, rng, lambda w: w)


def sign_test_probs(params: DirichletParams, count: int, rng: RngStream) -> TrinomialProbs:
    """Simplex-region probabilities of the sign test (Monte Carlo)."""
    return simplex_region_probs(sign_test_samples(params, count, rng))


def _pair_category_masks(
    z: np.ndarray, rope: Rope, placement: Placement
) -> tuple[np.ndarray, np.ndarray]:
    """Left/right 0-1 masks over all ordered index pairs, pseudo-observation first."""
    zz = np.concatenate([[0.0], z])
    sums = zz[:, None] + zz[None, :]
    left = sums < 2.0 * rope.lower
    right = sums > 2.0 * rope.upper
    # pairs with the pseudo-observation fall on its placement's side, or in the rope
    # placement on the sign of their sum, so the self-pair (sign 0) is in neither mask
    if placement == "rope":
        side = np.sign(zz)
    else:
        side = np.full_like(zz, -1.0 if placement == "left" else 1.0)
    left[0, :] = left[:, 0] = side < 0
    right[0, :] = right[:, 0] = side > 0
    return left.astype(float), right.astype(float)


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
    """
    if rng is None:
        raise ValueError("an RngStream is required (no silent nondeterminism)")
    left, right = _pair_category_masks(z.z, rope, prior.z0)
    alpha = np.full(z.q + 1, 1.0)
    alpha[0] = prior.s

    def thetas(w: np.ndarray) -> np.ndarray:
        th_l = np.einsum("ij,ij->i", w @ left, w)
        th_r = np.einsum("ij,ij->i", w @ right, w)
        th_e = np.maximum(1.0 - (th_l + th_r), 0.0)
        return np.column_stack([th_l, th_e, th_r])

    return _dirichlet_draws(alpha, count, rng, thetas)


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

