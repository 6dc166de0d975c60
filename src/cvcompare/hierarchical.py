"""Hierarchical Bayesian correlated t-test across datasets.

Model, for datasets i = 1..q with cross-validation differences x_i:

    x_i    ~ MVN(1 * mu_i, Sigma_i)      compound symmetry: sigma_i^2, rho
    mu_i   ~ Student(nu, mu0, sigma0)
    sigma_i ~ unif(0, sigma_bar),        sigma_bar = max(1000 * mean(sd_i), 1e-3)
    mu0    ~ unif(-1, 1)
    sigma0 ~ unif(0, sigma0_bar),        sigma0_bar = max(1000 * std(mean_i), 1e-3)
    nu     ~ Gamma(alpha, beta)
    alpha  ~ unif(0.5, 5),  beta ~ unif(0.05, 0.15)

The scale bounds are the paper's and are not settable: std(mean_i) uses
divisor q - 1, and the 1e-3 floors keep the uniform supports proper for
constant data.

Fitted by Gibbs sampling with the Student level written as a normal scale
mixture, mu_i ~ N(mu0, sigma0^2 / lambda_i) with lambda_i ~ Gamma(nu/2, nu/2)
(Gelman et al., BDA3 section 17.2).  Every conditional is then an exact
draw, except those of nu and alpha, which take slice updates (Neal 2003).
Each sweep draws (mu0, sigma0) in the centred parameterisation and again in
the non-centred one, u_i = (mu_i - mu0) / sigma0 (ancillarity-sufficiency
interweaving, Yu & Meng 2011), so the chain also mixes when the dataset
means barely spread, where the centred sampler alone sticks in a funnel.
Nothing is tuned: warmup is plain burn-in.  Runs are deterministic given
the seed, byte for byte on one numpy build and CPU dispatch target: numpy's
SIMD ``log1p`` and ``power`` can differ from libm in the last bit (on an
AVX-512 host, on 7.3% and 6.5% of 200k uniform inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .data import PairDifferences, Rope, _csv_text
from .decisions import TrinomialSamples
from .kernels import LocScaleStudent, RngStream, student_cdf, student_sf

__all__ = [
    "HierConfig",
    "Diagnostic",
    "HierDraws",
    "ShrinkageRow",
    "ShrinkageReport",
    "fit",
    "next_dataset_probs",
    "shrinkage_report",
    "split_rhat",
    "effective_sample_size",
]

_EPS = 1e-6
_SCALARS = ("mu0", "sigma0", "nu", "alpha", "beta")
_PARAMS = _SCALARS + ("mu", "sigma")
# initial slice bracket on log nu; stepping out widens it as needed
_LOG_NU_WIDTH = 1.0
# scale supports are truncated at a tiny floor: a zero-variance dataset makes
# the density of sigma_i unbounded at 0, and the floor keeps it proper
_SIGMA_FLOOR = 1e-10
# supports of the uniform hyper-priors on alpha and beta
_ALPHA_LO, _ALPHA_HI = 0.5, 5.0
_BETA_LO, _BETA_HI = 0.05, 0.15
RHAT_THRESHOLD = 1.05


@dataclass(frozen=True)
class HierConfig:
    """Sampler configuration."""

    seed: int
    chains: int = 4
    warmup: int = 1000
    draws: int = 1000

    def __post_init__(self) -> None:
        if self.chains < 2:
            raise ValueError("need at least two chains for convergence diagnostics")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.draws < 4:
            raise ValueError("need at least four kept draws")


@dataclass(frozen=True)
class Diagnostic:
    rhat: float
    ess: float


@dataclass(frozen=True)
class HierDraws:
    """Posterior draws organised by chain, plus convergence diagnostics."""

    mu0: np.ndarray      # (chains, draws)
    sigma0: np.ndarray
    nu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    mu: np.ndarray       # (chains, draws, q)
    sigma: np.ndarray
    diagnostics: dict[str, Diagnostic] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return all(d.rhat <= RHAT_THRESHOLD for d in self.diagnostics.values())

    def pooled(self, name: str) -> np.ndarray:
        """Draws of a scalar parameter pooled across chains, chain-major."""
        return getattr(self, name).reshape(-1)

    def to_csv(self) -> str:
        """One row per draw: chain, iteration, mu0, sigma0, nu, alpha, beta, mu_i..., sigma_i...."""
        params = _columns(vars(self))
        columns = np.indices(self.mu.shape[:2]).reshape(2, -1).tolist()
        columns += [x.reshape(-1).tolist() for _, x in params]
        return _csv_text(["chain", "iteration"] + [name for name, _ in params], columns)


@dataclass(frozen=True)
class ShrinkageRow:
    dataset: str
    sample_mean: float
    posterior_mean: float
    posterior_sd: float


@dataclass(frozen=True)
class ShrinkageReport:
    """Per-dataset pooling summary (reported, not asserted)."""

    rows: tuple[ShrinkageRow, ...]
    pooled_abs_dev: float    # sum_i |E[mu_i] - median(sample means)|
    sample_abs_dev: float    # sum_i |sample mean_i - median(sample means)|


def _columns(params) -> list[tuple[str, np.ndarray]]:
    """Every model parameter as ``(name, (chains, draws) array)``, in the order
    and under the names of the draws CSV; ``params`` maps each ``_PARAMS`` name
    to its stacked draws."""
    columns = [(name, params[name]) for name in _SCALARS]
    for name in ("mu", "sigma"):
        draws = params[name]
        columns += [(f"{name}_{i + 1}", draws[:, :, i]) for i in range(draws.shape[2])]
    return columns


class _Problem:
    """Sufficient statistics and prior bounds shared by the sampler."""

    def __init__(self, data: PairDifferences):
        self.rho = data.within()
        if data.q < 2:
            raise ValueError("the hierarchical model needs at least two datasets")
        self.means = data.means
        self.ss = data.ss
        self.n = data.n
        self.q = data.q
        self.sds = data.sds
        self.s_mean = float(np.std(self.means, ddof=1))
        # the floors keep the uniform supports proper for constant data, and
        # put half of each bound above the scale floor for the initial state
        self.sigma_bar = max(1000.0 * float(self.sds.mean()), 1e-3)
        self.sigma0_bar = max(1000.0 * self.s_mean, 1e-3)


class _State(NamedTuple):
    """One point of the Gibbs chain: the model parameters in ``_PARAMS``
    order, then the Student mixture weights ``lam``."""

    mu0: float
    sigma0: float
    nu: float
    alpha: float
    beta: float
    mu: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray


def _truncated_gamma(gen: np.random.Generator, shape: float, rate, lo: float, hi: float):
    """Gamma(shape, rate) restricted to (lo, hi), for a float ``rate`` or a 1-d array of rates:
    a plain draw inside the window is kept and each miss is redrawn by ``_gamma_window``, an
    array's in element order, which together give exactly the truncated law."""
    if isinstance(rate, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = gen.standard_gamma(shape, rate.shape) / rate
        miss = ~((lo < x) & (x < hi))
        if miss.any():  # the usual sweep misses nowhere, and any() costs 2 us less than flatnonzero
            for i in np.flatnonzero(miss):
                x[i] = _gamma_window(gen, shape, float(rate[i]), lo, hi)
        return x
    x = gen.standard_gamma(shape)
    # at rate 0 every draw misses, and the window takes the power law
    x = x / rate if rate > 0.0 else math.inf
    return x if lo < x < hi else _gamma_window(gen, shape, rate, lo, hi)


def _power_law(gen: np.random.Generator, power: float, lo: float, hi: float) -> float:
    """A draw of the density proportional to x^(power - 1) on (lo, hi), for power > 0."""
    ratio = (lo / hi) ** power
    return hi * (ratio + gen.random() * (1.0 - ratio)) ** (1.0 / power)


def _gamma_window(gen: np.random.Generator, shape: float, rate: float, lo: float, hi: float) -> float:
    """Gamma(shape, rate) restricted to (lo, hi), lo > 0, by rejection.  With c = shape - 1
    and y = rate x, every branch accepts a try with at least the probability it states:
    - rate (hi - lo) <= 1 or rate 0: x^c on the window, accepted with exp(-rate (x - lo))
      >= 1/e.  A shape below 1 is not log-concave: it takes that law up to top = lo + 1/rate
      and top^c exp(-rate x) above, accepted with (x / top)^c, on average > 0.59 (Ahrens &
      Dieter 1974, Computing 12:223), so >= 1/e in all.
    - a log density that varies by at most 1 on the window: uniform tries, >= 1/e.
    - a window far below the mode, (shape - y_hi)^2 >= y_hi, or far above it, y_lo >= c +
      sqrt(c): the tangent to the log density at the near end, in log x (a power law) below
      and in x (an exponential) above.  The curvature beyond is at most the squared slope there,
      so s ~ Exp(1) proposal scales out the log density is within s^2/2 of it: >= E[e^(-s^2/2)] = 0.65.
    - else the window holds one side of the mode's neighbourhood, with mass above 0.11
      (0.117 = Phi(sqrt 3) - Phi(1) in the normal limit): plain redraws."""
    c = shape - 1.0
    top = hi if rate * (hi - lo) <= 1.0 else lo + 1.0 / rate
    if top == hi or c < 0.0:
        tail = 0.0 if top == hi else shape * -math.expm1(rate * (top - hi)) / (  # mass above top / below
            math.e * rate * top * -math.expm1(-shape * math.log1p(1.0 / (rate * lo))))
        while True:
            if tail and gen.random() * (1.0 + tail) >= 1.0:
                x = top - math.log1p(gen.random() * math.expm1(rate * (top - hi))) / rate
                cost = c * math.log(top / x)
            else:
                x = _power_law(gen, shape, lo, top)
                cost = rate * (x - lo)
            if gen.standard_exponential() >= cost:
                return x
    y_lo, y_hi = rate * lo, rate * hi
    peak = min(max(c, y_lo), y_hi)
    narrow = max(y - peak - c * math.log(y / peak) for y in (y_lo, y_hi)) <= 1.0
    below = y_hi < shape and (shape - y_hi) ** 2 >= y_hi
    if not (narrow or below or y_lo >= c + math.sqrt(c)):
        while not lo < (x := gen.standard_gamma(shape) / rate) < hi:
            pass
        return x
    slope = rate - c / lo
    while True:
        if narrow:
            x = lo + (hi - lo) * gen.random()
            cost = rate * x - peak - c * math.log(rate * x / peak)
        elif below:
            x = _power_law(gen, shape - y_hi, lo, hi)
            cost = y_hi * ((x - hi) / hi - math.log(x / hi))
        else:
            x = lo - math.log1p(gen.random() * math.expm1(slope * (lo - hi))) / slope
            cost = c * ((x - lo) / lo - math.log1p((x - lo) / lo))
        if gen.standard_exponential() >= cost:
            return x


def _truncated_normal(gen: np.random.Generator, mean: float, sd: float, lo: float, hi: float) -> float:
    """N(mean, sd^2) restricted to (lo, hi).  A plain draw inside the window is kept, and a
    miss is redrawn as in Robert (1995, Statistics and Computing 5:121) on the standardised
    window (a, b), reflected so that b >= -a; each try passes with at least the stated bound:
    - plain redraws if the window holds 0 and is wider than sqrt(2 pi): Phi(sqrt(2 pi)) - 1/2 = 0.49;
    - uniform tries, accepted with exp(-(z^2 - max(a, 0)^2) / 2), if the window holds 0
      (0.49 on average) or b^2 - a^2 <= 2 (1/e);
    - else a + Exp(rate), rate = (a + sqrt(a^2 + 4)) / 2, accepted with exp(-(z - rate)^2 / 2)
      if z < b: 0.63 by quadrature over a and b, which tends to 1 - 1/e as a grows."""
    if lo < (x := mean + sd * gen.standard_normal()) < hi:
        return x
    a, b, sign = (lo - mean) / sd, (hi - mean) / sd, 1.0
    if a + b < 0.0:
        a, b, sign = -b, -a, -1.0
    if a <= 0.0 and b - a > math.sqrt(2.0 * math.pi):
        while not a < (z := gen.standard_normal()) < b:
            pass
        return mean + sign * sd * z
    uniform, floor, rate = a <= 0.0 or b * b - a * a <= 2.0, max(a, 0.0) ** 2, 0.5 * (a + math.hypot(a, 2.0))
    while True:
        if uniform:
            z = a + (b - a) * gen.random()
            cost = 0.5 * (z * z - floor)
        else:
            e = gen.standard_exponential()
            z = a + e / rate
            cost = 0.5 * ((e - 1.0) / rate) ** 2 if z < b else math.inf
        if gen.standard_exponential() >= cost:
            return mean + sign * sd * z


def _slice(gen: np.random.Generator, logp, x0: float, width: float) -> float:
    """One slice-sampling update of ``x0`` under the log density ``logp`` (Neal 2003).

    The bracket steps out by ``width`` until both ends leave the slice,
    then shrinks towards ``x0``.  ``logp`` must fall to -inf (or NaN) far
    out on both sides.  Every loop ends: stepping out stops where ``logp``
    leaves the slice, and shrinking returns ``x0`` once the bracket can no
    longer shrink in floating point.
    """
    y = logp(x0) - gen.standard_exponential()
    left = x0 - width * gen.random()
    right = left + width
    while logp(left) > y:
        left -= width
    while logp(right) > y:
        right += width
    while True:
        x = left + gen.random() * (right - left)
        if not left < x < right:
            return x0
        if logp(x) > y:
            return x
        if x < x0:
            left = x
        else:
            right = x


def _log_nu_density(u2: np.ndarray, alpha: float, beta: float, buf: np.ndarray, eta: float) -> float:
    """Target of the ``nu`` slice update: the Student level with lambda
    integrated out, the Gamma(alpha, beta) prior and the log Jacobian, all in
    eta = log nu, up to a constant; ``buf`` is scratch space of ``u2``'s size."""
    v = math.exp(eta)
    np.divide(u2, v, out=buf)
    np.log1p(buf, out=buf)
    return (
        u2.size * (math.lgamma(0.5 * (v + 1.0)) - math.lgamma(0.5 * v) - 0.5 * eta)
        - 0.5 * (v + 1.0) * float(buf.sum())
        + alpha * eta - beta * v
    )


def _alpha_density(log_beta: float, log_nu: float, a: float) -> float:
    """Target of the ``alpha`` slice update: the Gamma(a, beta) density of
    nu under the uniform prior on ``a``, up to a constant."""
    if not _ALPHA_LO < a < _ALPHA_HI:
        return -math.inf
    return a * log_beta + (a - 1.0) * log_nu - math.lgamma(a)


def _sweep(p: _Problem, state: _State, gen: np.random.Generator) -> _State:
    """One Gibbs sweep over every parameter; ``state.sigma`` is not read."""
    mu0, sigma0, nu, alpha, beta, mu, _, lam = state
    q, n = p.q, p.n
    # the likelihood of mu_i is N(mean_i, 1 / (n tau_i / c1)); the within
    # deviations contribute ss_i / (1 - rho) to the precision's rate
    c1 = 1.0 + (n - 1) * p.rho
    ss_term = p.ss / (1.0 - p.rho)
    tau_window = (p.sigma_bar ** -2, _SIGMA_FLOOR ** -2)
    tau0_window = (p.sigma0_bar ** -2, _SIGMA_FLOOR ** -2)

    # 1. per-dataset precisions tau_i = sigma_i^-2, Gamma((n-1)/2, B_i/2)
    rate = 0.5 * (ss_term + n * (p.means - mu) ** 2 / c1)
    tau = _truncated_gamma(gen, 0.5 * (n - 1), rate, *tau_window)

    # 2. per-dataset means given the mixture weights lambda_i
    w = n * tau / c1
    w_prior = lam / (sigma0 * sigma0)
    prec = w + w_prior
    mu = (w * p.means + w_prior * mu0) / prec + gen.standard_normal(q) / np.sqrt(prec)

    # 3a. centred (mu0, sigma0) given mu
    lam_sum = float(lam.sum())
    mu0 = _truncated_normal(gen, float(lam @ mu) / lam_sum, sigma0 / math.sqrt(lam_sum), -1.0, 1.0)
    dev = mu - mu0
    tau0 = _truncated_gamma(gen, 0.5 * (q - 1), 0.5 * float(lam @ (dev * dev)), *tau0_window)
    sigma0 = tau0 ** -0.5

    # 3b. non-centred (mu0, sigma0) given u = (mu - mu0) / sigma0; mu moves with them
    u = dev / sigma0
    w_sum = float(w.sum())
    mu0 = _truncated_normal(
        gen, float(w @ (p.means - sigma0 * u)) / w_sum, 1.0 / math.sqrt(w_sum), -1.0, 1.0
    )
    wu = w * u
    wu2 = float(wu @ u)
    sigma0 = _truncated_normal(
        gen, float(wu @ (p.means - mu0)) / wu2, 1.0 / math.sqrt(wu2), _SIGMA_FLOOR, p.sigma0_bar
    )
    mu = mu0 + sigma0 * u

    # 4. (nu, lambda) as one block: nu from its lambda-marginal conditional
    u2 = u * u
    log_nu_density = partial(_log_nu_density, u2, alpha, beta, np.empty(q))
    nu = math.exp(_slice(gen, log_nu_density, math.log(nu), _LOG_NU_WIDTH))
    lam = gen.standard_gamma(0.5 * (nu + 1.0), q) / (0.5 * (nu + u2))

    # 5. beta given nu is conjugate; alpha has no closed form
    beta = _truncated_gamma(gen, alpha + 1.0, nu, _BETA_LO, _BETA_HI)
    alpha_density = partial(_alpha_density, math.log(beta), math.log(nu))
    alpha = _slice(gen, alpha_density, alpha, _ALPHA_HI - _ALPHA_LO)

    return _State(mu0, sigma0, nu, alpha, beta, mu, tau ** -0.5, lam)


def _run_chain(p: _Problem, cfg: HierConfig, stream: RngStream) -> dict[str, np.ndarray]:
    gen = stream.generator()
    state = _State(
        mu0=float(np.clip(np.median(p.means), -1.0 + _EPS, 1.0 - _EPS)),
        sigma0=min(max(p.s_mean, _EPS), 0.5 * p.sigma0_bar),
        nu=5.0, alpha=0.5 * (_ALPHA_LO + _ALPHA_HI), beta=0.5 * (_BETA_LO + _BETA_HI),
        mu=p.means.copy(), sigma=np.minimum(np.maximum(p.sds, _EPS), 0.5 * p.sigma_bar), lam=np.ones(p.q),
    )
    kept = []
    for it in range(cfg.warmup + cfg.draws):
        state = _sweep(p, state, gen)
        if it >= cfg.warmup:
            kept.append(state)
    # zip stops at the last name in _PARAMS, so lam is not kept
    return {name: np.array(column) for name, column in zip(_PARAMS, zip(*kept))}


def _split_halves(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)


def split_rhat(x: np.ndarray) -> float:
    """Potential scale reduction on split chains; ``x`` has shape (chains, draws)."""
    z = _split_halves(np.asarray(x, dtype=float))
    m = z.shape[1]
    chain_means = z.mean(axis=1)
    within = float(np.mean(z.var(axis=1, ddof=1)))
    between = m * float(np.var(chain_means, ddof=1))
    if within == 0.0:
        return 1.0 if between == 0.0 else math.inf
    var_plus = (m - 1) / m * within + between / m
    return math.sqrt(var_plus / within)


def effective_sample_size(x: np.ndarray) -> float:
    """Effective sample size on split chains via Geyer's initial monotone sequence."""
    z = _split_halves(np.asarray(x, dtype=float))
    k, m = z.shape
    centred = z - z.mean(axis=1, keepdims=True)
    width = 1 << int(np.ceil(np.log2(2 * m)))
    f = np.fft.rfft(centred, n=width, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=width, axis=1)[:, :m].real / m
    unbiased = acov * m / (m - 1)
    within = float(np.mean(unbiased[:, 0]))
    if within == 0.0:
        return float(k * m)
    between = m * float(np.var(z.mean(axis=1), ddof=1))
    var_plus = (m - 1) / m * within + between / m
    rho = 1.0 - (within - unbiased.mean(axis=0)) / var_plus
    rho[0] = 1.0
    tau = 0.0
    prev = math.inf
    for t in range(0, m - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
    tau = max(2.0 * tau - 1.0, 1e-12)
    return float(k * m / tau)


def fit(data: PairDifferences, cfg: HierConfig) -> HierDraws:
    """Sample the hierarchical posterior with ``cfg.chains`` independent chains.

    Returns the draws together with split R-hat and effective sample size
    for every parameter; a result whose R-hat exceeds 1.05 anywhere is
    flagged through ``HierDraws.converged`` but still returned.
    """
    problem = _Problem(data)
    base = RngStream(cfg.seed)
    results = [_run_chain(problem, cfg, base.spawn(c)) for c in range(cfg.chains)]

    stack = {k: np.stack([r[k] for r in results]) for k in _PARAMS}
    diagnostics = {
        name: Diagnostic(rhat=split_rhat(x), ess=effective_sample_size(x)) for name, x in _columns(stack)
    }
    return HierDraws(**stack, diagnostics=diagnostics)


def next_dataset_probs(draws: HierDraws, rope: Rope) -> TrinomialSamples:
    """Rope probabilities for the mean difference on the next, unseen dataset.

    Each pooled posterior draw of (mu0, sigma0, nu) defines a Student
    predictive for the next dataset's mean difference; its theta triple is
    that distribution's mass below, inside, and above the rope: two Student tails
    and the rest, clipped at 0, as ``bayes_ttest.rope_probs`` computes them.
    """
    params = zip(*(draws.pooled(name).tolist() for name in ("mu0", "sigma0", "nu")))
    posts = [LocScaleStudent(dof=v, loc=m, scale2=s * s) for m, s, v in params]
    left = np.array([student_cdf(rope.lower, d) for d in posts])
    right = np.array([student_sf(rope.upper, d) for d in posts])
    samples = np.column_stack([left, np.maximum(1.0 - (left + right), 0.0), right])
    return TrinomialSamples(samples=samples)


def shrinkage_report(draws: HierDraws, data: PairDifferences) -> ShrinkageReport:
    """Compare raw per-dataset means against their pooled posterior estimates."""
    if data.q != draws.mu.shape[2]:
        raise ValueError("draws and data disagree on the number of datasets")
    med = float(np.median(data.means))
    rows = []
    pooled_dev = 0.0
    sample_dev = 0.0
    for i, (dataset, mean) in enumerate(zip(data.datasets, data.means.tolist())):
        post = draws.mu[:, :, i].reshape(-1)
        post_mean = float(post.mean())
        rows.append(
            ShrinkageRow(
                dataset=dataset,
                sample_mean=mean,
                posterior_mean=post_mean,
                posterior_sd=float(post.std(ddof=1)),
            )
        )
        pooled_dev += abs(post_mean - med)
        sample_dev += abs(mean - med)
    return ShrinkageReport(rows=tuple(rows), pooled_abs_dev=pooled_dev, sample_abs_dev=sample_dev)
