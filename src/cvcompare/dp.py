"""Dirichlet-process Bayesian sign and signed-rank tests.

The DP posterior over the distribution of per-dataset mean differences is
a mixture of point masses at the observations plus one prior
pseudo-observation whose weight vector is Dirichlet(s, 1, ..., 1).  The
sign test has a closed-form Dirichlet posterior over the three rope
outcomes, and ``sign_test_probs`` integrates it exactly; its draws
(``sign_test_samples``) serve only plots.  The signed-rank test pushes the
sampled weights through the pairwise-sum statistic and is evaluated by
Monte Carlo.  Both samplers return ``decisions.TrinomialSamples``.

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

A Dirichlet(a_left, a_rope, a_right) vector is the normalised vector of
independent Gamma(a_k, 1) variables G_k, so an outcome wins the argmax
exactly when its G_k is the largest: P(rope wins) is the integral of
f_rope(g) F_left(g) F_right(g) dg over g > 0, with f and F the Gamma
densities and CDFs.  A zero parameter is a point mass at 0, whose CDF is
1 for g >= 0, which keeps the tie rule of ``simplex_region_probs``.  The
integral runs on Gauss-Legendre panels, in s = log g below g = 1 and in
v = sqrt(g) above, where every Gamma density is close to a normal one
with standard deviation 1/2 whatever its shape.  The CDFs are integrated
from the densities on the same panels, so the sign test needs no special
function beyond ``math.lgamma``.

The signed-rank masses are evaluated without a pair matrix.  With the
observations sorted ascending, the partners j of each i with
z_i + z_j < 2 * lower form a prefix of length k_i; floating-point addition
is monotone, so this holds for the computed sums too.  The left mass of a
draw is then sum_i w_i P[k_i], where P is the running sum of the weights in
sorted order, plus the pseudo-observation's pairs read off the same P.  The
right mass is the same computation on -z below -2 * upper, so negating the
data swaps the two masses bit for bit.

The weight posterior Dir(s, 1, ..., 1) depends only on q and s, not on the
differences, so ``signed_rank_batch`` draws each block of weights once and
passes it through the pair sides of every vector it is given: one vector's
draws are the same whatever vectors are sampled with it.  Every sampler
takes its draw count and ``RngStream`` as required arguments, so its draws
depend only on the stream, the prior and the differences it is given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .data import PairDifferences, Rope
from .decisions import TrinomialProbs, TrinomialSamples
from .kernels import RngStream

__all__ = [
    "DpPrior",
    "DirichletParams",
    "sign_test_params",
    "sign_test_samples",
    "sign_test_probs",
    "signed_rank_batch",
    "signed_rank_samples",
]

Placement = Literal["left", "rope", "right"]

DEFAULT_SAMPLE_COUNT = 150_000
# signed-rank draws per block; every vector's pair sides read each block.  For ten vectors
# at q = 54 (2 cores), 8192 took 0.66 s against 0.85 s at 2048; 16384 took 0.58 s but
# raised a ten-pair CLI run's peak RSS from 89 to 96 MB
_BLOCK = 8192


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


def sign_test_params(z: PairDifferences, rope: Rope, prior: DpPrior) -> DirichletParams:
    """Closed-form Dirichlet parameters of the DP sign test.

    Counts the observations below, inside (closed interval), and above the
    rope, then adds the prior strength to the component holding the
    pseudo-observation.
    """
    n_left = int(np.sum(z.means < rope.lower))
    n_right = int(np.sum(z.means > rope.upper))
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


# The exact sign-test integral.  Every panel has _NODES Gauss-Legendre nodes.  Below
# g0 = exp(_LOG_G0) each Gamma density is a pure power of g to double precision, so that
# part of the integral is closed-form.  A CDF below exp(_LOG_NEGLIGIBLE) counts as zero, a
# panel in s may change a present variable's log-density by at most _RATE_WIDTH, and the
# panels in v reach _V_MARGIN (twelve standard deviations) either side of sqrt(a).
_NODES = 20
_LOG_G0 = -40.0
_LOG_NEGLIGIBLE = math.log(1e-17)
_RATE_WIDTH = 8.0
_V_MARGIN = 6.0


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], and the matrix that maps
    a polynomial's values at the nodes to its integral from -1 to each node."""
    from numpy.polynomial import legendre  # a few ms to import, and only the sign test needs it

    x, w = legendre.leggauss(_NODES)
    to_coefficients = np.linalg.inv(legendre.legvander(x, _NODES - 1))
    return x, w, legendre.legvander(x, _NODES) @ legendre.legint(to_coefficients, lbnd=-1)


def _gamma_argmax_probs(alpha: tuple[float, float, float]) -> tuple[float, float, float]:
    """P(G_k is the largest) for independent G_k ~ Gamma(alpha_k, 1), ties
    to the rope (k = 1), then to the left (k = 0); a zero shape is a point
    mass at 0.

    The panels cover g0 <= g <= 1 in s = log g, from where the first CDF
    leaves zero, each at most ``_RATE_WIDTH / rate`` wide, where rate sums
    the shapes present (their log-densities change at most that fast); and
    unit steps in v = sqrt(g) within ``_V_MARGIN`` of each sqrt(a).  Each
    CDF is F(g0) plus the integral of its density from g0, taken on the
    panels.  Below g0 every density is proportional to g^(a - 1), so the
    chance that k wins with every variable below g0 is a_k / A times the
    product of the F(g0), A being the sum of the shapes.
    """
    x, w, cumulative = _panel_rule()
    shapes = [a for a in alpha if a > 0.0]
    # below its start a CDF is under e^(a s) / Gamma(a + 1), which is negligible there
    starts = [(_LOG_NEGLIGIBLE + math.lgamma(a + 1.0)) / a for a in shapes]
    edges = [0.0]
    floor = max(min(starts), _LOG_G0)
    while edges[-1] > floor:
        right = edges[-1]
        rate = sum(a for a, start in zip(shapes, starts) if start < right)
        edges.append(max(right - min(max(1.0, -right), _RATE_WIDTH / rate), floor))
    edges = np.array(edges[::-1])
    half = np.diff(edges)[:, None] / 2.0
    s = edges[:-1, None] + half * (x + 1.0)
    steps = np.unique(np.concatenate([
        np.arange(math.floor(max(1.0, root - _V_MARGIN)), root + _V_MARGIN) for root in map(math.sqrt, shapes)
    ]))
    v = (steps + 0.5)[:, None] + 0.5 * x
    n_left = len(s)
    log_g = np.concatenate([s, 2.0 * np.log(v)])
    g = np.concatenate([np.exp(s), v * v])
    # d(log g) per unit of the panel's own variable, times the panel's half-width
    scale = np.concatenate([np.broadcast_to(half, s.shape), 1.0 / v])

    cdfs, wins = [], []
    for a in alpha:
        if a == 0.0:
            cdfs.append(1.0)
            wins.append(None)
            continue
        log_density = a * (log_g - math.log(a)) - (g - a)  # log(g^a e^-g) up to a constant
        if a > 1.0:  # near g = a, through y = g/a - 1, so its rounding does not grow with a
            y = (g[n_left:] - a) / a
            log_density[n_left:] = -a * (y - np.log1p(y))
        density = scale * np.exp(log_density)
        mass = density * w
        panels = mass.sum(axis=1)
        total = float(mass.sum())
        below = math.exp(a * _LOG_G0 - math.lgamma(a + 1.0))  # F(g0)
        earlier = (np.cumsum(panels) - panels)[:, None]
        cdfs.append(below + (1.0 - below) * (earlier + density @ cumulative.T) / total)
        wins.append((mass, total, below))
    all_below = math.exp(_LOG_G0 * sum(shapes) - sum(math.lgamma(a + 1.0) for a in shapes))

    def win(k: int, i: int, j: int) -> float:
        if wins[k] is None:
            return 0.0
        mass, total, below = wins[k]
        above_g0 = float((mass * cdfs[i] * cdfs[j]).sum()) / total
        return (1.0 - below) * above_g0 + alpha[k] / sum(shapes) * all_below

    p_rope, p_left = win(1, 0, 2), win(0, 1, 2)
    return p_left, p_rope, max(1.0 - p_rope - p_left, 0.0)


def sign_test_probs(params: DirichletParams) -> TrinomialProbs:
    """Exact simplex-region probabilities of the sign test.

    The probability that each Dirichlet coordinate is the largest, ties to
    the rope and then to the left as in ``simplex_region_probs``; P(right)
    is the complement, clipped at 0.  The absolute error is below 1e-12.
    Nothing is sampled, so ``mc_stderr`` is None.
    """
    p_left, p_rope, p_right = _gamma_argmax_probs((params.a_left, params.a_rope, params.a_right))
    return TrinomialProbs(p_left=p_left, p_rope=p_rope, p_right=p_right)


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
    built in ``running``, a (datasets + 1, draws) buffer, up to the longest
    prefix the side reads.
    """
    running[0] = 0.0
    # k falls along the order, so k[0] is the longest data prefix
    for j, d in enumerate(side.order[:max(side.k[0], side.n_pseudo)]):
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


def signed_rank_batch(
    vectors: list[PairDifferences],
    rope: Rope,
    prior: DpPrior,
    count: int,
    rng: RngStream,
) -> list[TrinomialSamples]:
    """Monte-Carlo draws of the signed-rank theta triple for the ``means`` of each of ``vectors``.

    For each Dirichlet weight vector (w_0, ..., w_q) ~ Dir(s, 1, ..., 1)
    the thetas are the weight mass of ordered observation pairs whose sums
    fall left of, inside, and right of the doubled rope; theta_rope is
    computed as the complement so each triple sums to one by construction.
    The weights are drawn unnormalised, in blocks of at most ``_BLOCK``
    draws: a Gamma(s) pseudo-observation weight per draw, then a
    (q, draws) block of unit exponentials.

    The weight posterior depends only on q and s, not on the differences,
    so every vector (all of one length q) reads the same blocks: each
    block is drawn once and passed through every vector's pair sides.  A
    vector's draws therefore equal ``signed_rank_samples`` of it on the
    same ``rng`` bit for bit, whatever the other vectors are.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    lengths = {z.q for z in vectors}
    if len(lengths) != 1:
        raise ValueError("need at least one vector, all of one length")
    (q,) = lengths
    sides = [_pair_sides(z.means, rope, prior.z0) for z in vectors]
    gen = rng.generator()
    outs = [np.empty((count, 3)) for _ in vectors]
    # every block reuses these buffers: fresh pages per block cost more than its arithmetic
    size = min(count, _BLOCK)
    w_buf, running_buf = np.empty(q * size), np.empty((q + 1) * size)
    for start in range(0, count, _BLOCK):
        b = min(_BLOCK, count - start)
        w0 = gen.standard_gamma(prior.s, size=b)
        w = gen.standard_exponential(out=w_buf[: q * b].reshape(q, b))
        running = running_buf[: (q + 1) * b].reshape(q + 1, b)
        total = w0 + w.sum(axis=0)
        norm = total * total
        for (left, right), out in zip(sides, outs):
            th = out[start:start + b]
            th[:, 0] = _side_mass(left, w0, w, running) / norm
            th[:, 2] = _side_mass(right, w0, w, running) / norm
            th[:, 1] = np.maximum(1.0 - (th[:, 0] + th[:, 2]), 0.0)
    return [TrinomialSamples(samples=out) for out in outs]


def signed_rank_samples(
    z: PairDifferences, rope: Rope, prior: DpPrior, count: int, rng: RngStream
) -> TrinomialSamples:
    """Monte-Carlo draws of the signed-rank theta triple: ``signed_rank_batch`` of ``z`` alone."""
    return signed_rank_batch([z], rope, prior, count, rng)[0]
