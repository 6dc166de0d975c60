import collections
import functools
import hashlib
import math

import numpy as np
import pytest
from mpmath import mp
from scipy import stats

from cvcompare.bayes_ttest import rope_probs
from cvcompare.data import PairDifferences, Rope
from cvcompare.decisions import simplex_region_probs
from cvcompare.hierarchical import (
    _SIGMA_FLOOR,
    Diagnostic,
    HierConfig,
    HierDraws,
    _Problem,
    _State,
    effective_sample_size,
    fit,
    next_dataset_probs,
    shrinkage_report,
    split_rhat,
    _gamma_window,
    _slice,
    _sweep,
    _truncated_gamma,
    _truncated_normal,
)
from cvcompare.kernels import LocScaleStudent
from conftest import mp_tail

RHO = 0.1


def model_data(q, n, mu0=0.02, sigma0=0.01, nu=20.0, seed=0, sd_range=(0.02, 0.06)):
    """Difference series drawn from the hierarchical generative model."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(q):
        mu_i = mu0 + sigma0 * rng.standard_t(nu)
        sd_i = rng.uniform(*sd_range)
        shared = rng.standard_normal()
        x = mu_i + sd_i * (math.sqrt(RHO) * shared + math.sqrt(1 - RHO) * rng.standard_normal(n))
        out.append(np.clip(x, -1.0, 1.0))
    return PairDifferences(datasets=tuple(f"d{i}" for i in range(q)), x=np.array(out), rho=RHO)


def flat_data(*values, n=20):
    """Datasets whose every difference is the given value."""
    datasets = tuple(f"f{i}" for i in range(len(values)))
    return PairDifferences(datasets=datasets, x=np.repeat(np.array(values)[:, np.newaxis], n, axis=1), rho=RHO)


def small_cfg(seed, **kw):
    kw.setdefault("chains", 2)
    kw.setdefault("warmup", 300)
    kw.setdefault("draws", 300)
    return HierConfig(seed=seed, **kw)


class TestScaleBounds:
    def test_scale_bounds_follow_the_data_rule(self):
        # sigma0_bar = 1000 std(means) and sigma_bar = 1000 mean(sd), no override
        data = model_data(4, 12, seed=2)
        p = _Problem(data)
        assert p.sigma0_bar == pytest.approx(1000.0 * np.std(data.means, ddof=1), rel=1e-12)
        assert p.sigma_bar == pytest.approx(1000.0 * np.mean(data.sds), rel=1e-12)

    def test_scale_bounds_have_a_floor(self):
        # equal means have no spread, and constant scores none either: both
        # bounds fall to the 1e-3 floor
        p = _Problem(flat_data(0.01, 0.01, n=12))
        assert p.sigma0_bar == 1e-3 and p.sigma_bar == 1e-3


class TestFit:
    def test_deterministic(self):
        data = model_data(6, 20, seed=4)
        cfg = small_cfg(seed=11, warmup=100, draws=50)
        a = fit(data, cfg)
        b = fit(data, cfg)
        assert np.array_equal(a.mu0, b.mu0) and np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.nu, b.nu)

    def test_chains_differ(self):
        data = model_data(6, 20, seed=4)
        draws = fit(data, small_cfg(seed=11, warmup=100, draws=50))
        assert not np.array_equal(draws.mu0[0], draws.mu0[1])

    def test_recovers_generating_mean(self):
        data = model_data(15, 40, mu0=0.02, seed=5)
        draws = fit(data, small_cfg(seed=21))
        mu0 = draws.pooled("mu0")
        assert abs(mu0.mean() - 0.02) < 4 * mu0.std()

    def test_concentrates_on_common_constant(self):
        rng = np.random.default_rng(6)
        x = np.array([0.03 + 0.001 * rng.standard_normal(20) for _ in range(8)])
        data = PairDifferences(datasets=tuple(f"d{i}" for i in range(8)), x=x, rho=RHO)
        draws = fit(data, small_cfg(seed=31))
        mu0 = draws.pooled("mu0")
        assert abs(mu0.mean() - 0.03) < 2 * mu0.std()

    def test_zero_variance_series_is_handled(self):
        # identical scores make the scale density unbounded at zero; the
        # support floor must stop the drift even on long runs
        data = model_data(5, 20, seed=7)
        x = data.x.copy()
        x[0] = 0.01
        data = PairDifferences(datasets=("flat", *data.datasets[1:]), x=x, rho=RHO)
        draws = fit(data, small_cfg(seed=41, warmup=1000, draws=500))
        assert np.all(np.isfinite(draws.mu)) and np.all(np.isfinite(draws.sigma))
        assert draws.sigma.min() >= 1e-10
        assert draws.mu[:, :, 0].mean() == pytest.approx(0.01, abs=1e-6)
        # every kept draw lies in the prior support
        p = _Problem(data)
        for x, lo, hi in (
            (draws.mu0, -1.0, 1.0), (draws.sigma0, _SIGMA_FLOOR, p.sigma0_bar),
            (draws.alpha, 0.5, 5.0), (draws.beta, 0.05, 0.15), (draws.sigma, _SIGMA_FLOOR, p.sigma_bar),
        ):
            assert lo < x.min() and x.max() < hi

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_converges_in_the_funnel(self, seed):
        # dataset means spread 0.004 against a within-dataset sd of about
        # 0.04: the near-equivalence regime where a centred sampler stalls
        data = model_data(30, 100, mu0=0.0, sigma0=0.004, sd_range=(0.035, 0.047), seed=seed)
        draws = fit(data, HierConfig(seed=seed))
        assert draws.converged

    def test_flat_series_on_their_means(self):
        # the chain starts at mu_i = mean_i, so every precision conditional
        # in the first sweep has rate 0
        data = flat_data(0.01, 0.02, 0.03)
        draws = fit(data, small_cfg(seed=3, warmup=0, draws=20))
        assert np.all(np.isfinite(draws.mu)) and np.all(np.isfinite(draws.nu))
        assert draws.sigma.min() >= _SIGMA_FLOOR
        assert draws.mu.mean(axis=(0, 1)) == pytest.approx([0.01, 0.02, 0.03], abs=1e-8)

    @pytest.mark.parametrize("case, digest", [
        # 4x(100+100) on the funnel data of seed 1: the beta draw misses its
        # window in 440 of 800 sweeps
        pytest.param("funnel", "39d187ec488cf308362c99a2bc2ed10a50d98bf64f45f227e366aeac567e3dd8", id="funnel"),
        # every tau draw misses, and the first sweep of each chain has rate 0
        pytest.param("flat", "977bc6d7e7fc36d4c40de15343dd4ce37b1d96dbf8f020b31a3b7bdc844d02f0", id="flat"),
    ])
    def test_draws_csv_bytes_are_pinned(self, case, digest):
        # sha256 of the whole draws CSV, pinned on one numpy build and CPU
        # dispatch target, as the CLI golden outputs are
        if case == "funnel":
            data = model_data(30, 100, mu0=0.0, sigma0=0.004, sd_range=(0.035, 0.047), seed=1)
            draws = fit(data, HierConfig(seed=1, warmup=100, draws=100))
        else:
            data = flat_data(0.01, 0.02, 0.03)
            draws = fit(data, small_cfg(seed=3, warmup=0, draws=20))
        assert hashlib.sha256(draws.to_csv().encode()).hexdigest() == digest

    def test_validations(self):
        data = model_data(1, 10, seed=8)
        with pytest.raises(ValueError, match="two datasets"):
            fit(data, small_cfg(seed=1))
        with pytest.raises(ValueError, match="chains"):
            HierConfig(seed=1, chains=1)

    def test_diagnostics_cover_every_parameter(self):
        data = model_data(4, 15, seed=9)
        draws = fit(data, small_cfg(seed=51, warmup=100, draws=80))
        names = set(draws.diagnostics)
        assert {"mu0", "sigma0", "nu", "alpha", "beta"} <= names
        assert {f"mu_{i}" for i in range(1, 5)} <= names
        assert {f"sigma_{i}" for i in range(1, 5)} <= names

    def test_diagnostics_keys_are_the_csv_header(self):
        draws = fit(model_data(3, 15, seed=9), small_cfg(seed=52, warmup=20, draws=8))
        header = draws.to_csv().split("\n", 1)[0].split(",")
        assert header[:2] == ["chain", "iteration"]
        assert list(draws.diagnostics) == header[2:]

    def test_csv_export(self):
        data = model_data(3, 15, seed=10)
        draws = fit(data, small_cfg(seed=61, warmup=100, draws=10))
        lines = draws.to_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header[:7] == ["chain", "iteration", "mu0", "sigma0", "nu", "alpha", "beta"]
        assert len(header) == 7 + 2 * 3
        assert len(lines) == 1 + 2 * 10
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == draws.mu0[0, 0]


# The Geweke test's model: the paper's priors with the scale bounds held
# fixed, since the data rule would make the joint law depend on the data.
# rho is far from 0, so a sweep that dropped the 1 / (1 - rho) of the within
# sum of squares would show.  sigma_bar = 3 puts the median conditional sd of
# mu0 in step 3b near 0.3, where a wrong sd shows at mu0's bounds of -1 and
# 1; at sigma_bar = 1 it is near 0.1 and a wrong sd hides.
GEWEKE_Q, GEWEKE_N, GEWEKE_RHO = 4, 10, 0.5
GEWEKE_SIGMA_BAR, GEWEKE_SIGMA0_BAR = 3.0, 1.0
# prior draws are kept where every |mu_i| is below this, on both sides of the
# test: at nu far below 1 the Student tails reach 1e12 and beyond, where the
# simulated scores lose their spread to rounding or overflow.  A sweep moves
# mu_i by about sigma_i, so no chain crosses the bound in the test's sweeps.
GEWEKE_MU_BOUND = 1e6


def prior_draws(gen, size):
    """Draws of (mu0, sigma0, nu, alpha, beta, mu, sigma, lam) from the Geweke
    test's prior, with the Student level as its normal scale mixture; the
    draws with some |mu_i| >= GEWEKE_MU_BOUND are dropped."""
    q = GEWEKE_Q
    mu0 = gen.uniform(-1.0, 1.0, size)
    sigma0 = gen.uniform(_SIGMA_FLOOR, GEWEKE_SIGMA0_BAR, size)
    alpha = gen.uniform(0.5, 5.0, size)
    beta = gen.uniform(0.05, 0.15, size)
    nu = gen.gamma(alpha, 1.0 / beta)
    lam = gen.gamma(0.5 * nu[:, None], 2.0 / nu[:, None], (size, q))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = mu0[:, None] + sigma0[:, None] * gen.standard_normal((size, q)) / np.sqrt(lam)
    sigma = gen.uniform(_SIGMA_FLOOR, GEWEKE_SIGMA_BAR, (size, q))
    keep = np.all(np.abs(mu) < GEWEKE_MU_BOUND, axis=1)
    return [v[keep] for v in (mu0, sigma0, nu, alpha, beta, mu, sigma, lam)]


def geweke_statistics(mu0, sigma0, nu, alpha, beta, mu, sigma):
    """The functions of the parameters whose means the Geweke test compares.
    mu_1 has no mean when nu <= 1, so it enters through bounded functions;
    mu0's mean is 0 under any sampler that keeps its symmetry, so its tails
    enter too."""
    mu1 = mu[..., 0]
    return {
        "mu0": mu0, "|mu0| > 0.9": np.abs(mu0) > 0.9,
        "log sigma0": np.log(sigma0), "log nu": np.log(nu), "alpha": alpha, "beta": beta,
        "sigma_1": sigma[..., 0], "mu_1 > 0": mu1 > 0.0, "|mu_1 - mu0| < sigma0": np.abs(mu1 - mu0) < sigma0,
    }


class TestSweep:
    CHAINS, SWEEPS = 250, 40

    def test_sweep_keeps_the_joint_law(self):
        """Geweke's (2004) successive-conditional test of ``_sweep``.

        Each chain starts from a prior draw and alternates a fresh draw of
        every series from the compound-symmetry normal, given (mu_i, sigma_i),
        with one sweep on the sufficient statistics of those scores.  Both
        steps keep the joint law of parameters and data, so every state is a
        prior draw however slowly the chain mixes; a single long chain would
        instead have to reach the far Student tails in steps of about sigma_i.
        The chain means are i.i.d., so the standard errors are batch means
        with one batch per chain.
        """
        q, n, rho = GEWEKE_Q, GEWEKE_N, GEWEKE_RHO
        gen = np.random.default_rng(2004)
        p = _Problem(PairDifferences(datasets=tuple(f"d{i}" for i in range(q)), x=np.zeros((q, n)), rho=rho))
        p.sigma_bar, p.sigma0_bar = GEWEKE_SIGMA_BAR, GEWEKE_SIGMA0_BAR
        starts = prior_draws(gen, 2 * self.CHAINS)
        chain_means = []
        for k in range(self.CHAINS):
            state = _State(*(float(v[k]) for v in starts[:5]), *(v[k] for v in starts[5:]))
            path = []
            for _ in range(self.SWEEPS):
                # one shared N(0, rho) term and independent N(0, 1 - rho) terms
                noise = math.sqrt(rho) * gen.standard_normal((q, 1)) + math.sqrt(1.0 - rho) * gen.standard_normal((q, n))
                x = state.mu[:, None] + state.sigma[:, None] * noise
                p.means = x.mean(axis=1)
                p.ss = ((x - p.means[:, None]) ** 2).sum(axis=1)
                state = _sweep(p, state, gen)
                path.append(state[:-1])  # every parameter but lam
            stats = geweke_statistics(*(np.array(column) for column in zip(*path)))
            chain_means.append({name: float(np.mean(g)) for name, g in stats.items()})

        direct = geweke_statistics(*prior_draws(gen, 100_000)[:-1])
        z = {}
        for name, g in direct.items():
            means = np.array([c[name] for c in chain_means])
            se = math.hypot(means.std(ddof=1) / math.sqrt(self.CHAINS), g.std() / math.sqrt(g.size))
            z[name] = (means.mean() - g.mean()) / se
        assert max(map(abs, z.values())) < 4.5, ", ".join(f"{name} z = {v:+.2f}" for name, v in z.items())


def truncated_cdf(dist, lo, hi):
    c_lo, c_hi = dist.cdf(lo), dist.cdf(hi)
    return lambda x: (dist.cdf(x) - c_lo) / (c_hi - c_lo)


class TestTruncatedDraws:
    @pytest.mark.parametrize("rate", [60.0, 5.0])
    def test_gamma_window_mostly_missed(self, rate):
        # the beta conditional Gamma(alpha + 1, nu) on (0.05, 0.15): about 80%
        # of plain draws fall outside, below the window at rate 60 and above
        # it at rate 5
        gen = np.random.default_rng(1)
        x = _truncated_gamma(gen, 2.0, np.full(20_000, rate), 0.05, 0.15)
        assert x.min() > 0.05 and x.max() < 0.15
        cdf = truncated_cdf(stats.gamma(2.0, scale=1.0 / rate), 0.05, 0.15)
        assert stats.kstest(x, cdf).pvalue > 0.01

    def test_gamma_window_far_above_the_mode(self):
        # Gamma(2, 20000) on (0.05, 0.15): the window starts 1000 scale
        # units above the mode, so its mass underflows; the exact truncated
        # CDF is 1 - e^(-r (x - lo)) (r x + 1) / (r lo + 1) up to the far end
        r, lo, hi = 20_000.0, 0.05, 0.15
        gen = np.random.default_rng(5)
        x = _truncated_gamma(gen, 2.0, np.full(20_000, r), lo, hi)
        assert x.min() >= lo and x.max() <= hi
        cdf = lambda t: 1.0 - np.exp(-r * (t - lo)) * (r * t + 1.0) / (r * lo + 1.0)
        assert stats.kstest(x, cdf).pvalue > 0.01

    @pytest.mark.parametrize("rate", [0.0, 1e-300])
    def test_gamma_zero_rate_is_power_law(self, rate):
        # B_i == 0: the precision conditional is tau^((n-3)/2) on the window
        n = 20
        gen = np.random.default_rng(2)
        x = _truncated_gamma(gen, 0.5 * (n - 1), np.full(20_000, rate), 1.0, 3.0)
        assert np.all(np.isfinite(x)) and x.min() >= 1.0 and x.max() <= 3.0
        cdf = truncated_cdf(stats.powerlaw(0.5 * (n - 1), scale=3.0), 1.0, 3.0)
        assert stats.kstest(x, cdf).pvalue > 0.01

    @pytest.mark.parametrize("mean, sd, lo, hi", [
        (0.01, 1e-5, -1.0, 1.0),
        (0.0, 1.0, -1.0, 1.0),
        (0.0, 1.0, 3.0, 3.5),
        (0.0, 1.0, -41.0, -40.0),
    ])
    def test_normal_matches_truncnorm(self, mean, sd, lo, hi):
        gen = np.random.default_rng(3)
        x = np.array([_truncated_normal(gen, mean, sd, lo, hi) for _ in range(20_000)])
        assert x.min() >= lo and x.max() <= hi
        ref = stats.truncnorm((lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd)
        assert stats.kstest(x, ref.cdf).pvalue > 0.01

    def test_slice_ends_on_nan_density(self):
        gen = np.random.default_rng(4)
        assert _slice(gen, lambda x: math.nan, 0.7, 1.0) == 0.7


class CountingGenerator:
    """A numpy generator that counts the calls of each method and keeps every
    ``standard_normal`` it returns."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.calls = collections.Counter()
        self.normals = []

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            value = method(*args, **kwargs)
            if name == "standard_normal":
                self.normals.append(value)
            return value
        return counted


def gamma_branch(shape, rate, lo, hi):
    """The branch of ``_gamma_window`` that serves a window, by the conditions its docstring states."""
    c, y_lo, y_hi = shape - 1.0, rate * lo, rate * hi
    if rate * (hi - lo) <= 1.0:
        return "power law"
    if c < 0.0:
        return "two pieces"
    peak = min(max(c, y_lo), y_hi)
    if max(y - peak - c * math.log(y / peak) for y in (y_lo, y_hi)) <= 1.0:
        return "uniform"
    if y_hi < shape and (shape - y_hi) ** 2 >= y_hi:
        return "tangent below"
    return "tangent above" if y_lo >= c + math.sqrt(c) else "plain"


def normal_branch(mean, sd, lo, hi):
    """The branch of ``_truncated_normal`` that serves a miss, by the conditions its docstring states."""
    a, b = (lo - mean) / sd, (hi - mean) / sd
    if a + b < 0.0:
        a, b = -b, -a
    if a <= 0.0 and b - a > math.sqrt(2.0 * math.pi):
        return "plain"
    return "uniform" if a <= 0.0 or b * b - a * a <= 2.0 else "exponential"


def tail_truncated_cdf(dist, lo, hi):
    """The CDF of ``dist`` restricted to (lo, hi), from log tails on the side of the median
    that the window lies on, so that a window far in a tail keeps its precision."""
    if dist.median() < lo:
        logsf, start = dist.logsf, dist.logsf(lo)
        return lambda x: np.expm1(logsf(x) - start) / np.expm1(logsf(hi) - start)
    logcdf, start, end = dist.logcdf, dist.logcdf(lo), dist.logcdf(hi)
    return lambda x: (np.exp(logcdf(x) - end) - np.exp(start - end)) / -np.expm1(start - end)


# every fallback branch of both truncated laws, each with the lower bound its
# docstring states on the probability that one try is accepted
GAMMA_BOUNDS = {"power law": 1 / math.e, "two pieces": 1 / math.e, "uniform": 1 / math.e,
                "tangent below": 0.65, "tangent above": 0.65, "plain": 0.11}
NORMAL_BOUNDS = {"plain": 0.49, "uniform": 1 / math.e, "exponential": 0.63}
BETA = (0.05, 0.15)
GAMMA_CASES = [
    # the beta conditional Gamma(alpha + 1, nu) on its prior's window
    (1.5, 1.0, *BETA, "power law"), (2.0, 5.0, *BETA, "power law"), (6.0, 10.0, *BETA, "power law"),
    (6.0, 50.0, *BETA, "uniform"), (4.0, 30.0, *BETA, "uniform"),
    (6.0, 20.0, *BETA, "tangent below"), (6.0, 30.0, *BETA, "plain"), (4.0, 60.0, *BETA, "plain"),
    (3.5, 100.0, *BETA, "tangent above"), (6.0, 200.0, *BETA, "tangent above"),
    (2.0, 200.0, *BETA, "tangent above"), (1.0, 30.0, *BETA, "tangent above"),
    # rate 0 (a series on its mean) and a subnormal rate: the power law x^(shape - 1)
    (9.5, 0.0, 1.0, 3.0, "power law"), (9.5, 1e-300, 1.0, 3.0, "power law"),
    # shape 0.5 (n = 2 or q = 2) at rate 0 and at large rates, not log-concave
    (0.5, 0.0, 1.0, 3.0, "power law"), (0.5, 1e-310, 1.0, 1e20, "power law"),
    (0.5, 50.0, *BETA, "two pieces"), (0.5, 2.0, 1e-6, 1e20, "two pieces"), (0.5, 200.0, 1.0, 1e20, "two pieces"),
    # far from the mode: a tied series' precision far below it, beta far above it
    (49.5, 5e-20, 1.0, 1e20, "tangent below"), (2.0, 2000.0, *BETA, "tangent above"),
]
NORMAL_CASES = [
    # one-sided sigma0-like windows, standardised lower end a from -3 to 40
    (3.0, 1.0, 0.0, 1e6, "plain"), (0.0, 1.0, 0.0, 1e6, "plain"), (-0.5, 1.0, 0.0, 1e6, "exponential"),
    (-3.0, 1.0, 0.0, 1e6, "exponential"), (-10.0, 1.0, 0.0, 1e6, "exponential"),
    (-40.0, 1.0, 0.0, 1e6, "exponential"),
    # two-sided windows, either side of 0
    (0.0, 1.0, -1.5, 1.5, "plain"), (0.0, 1.0, -0.5, 1.0, "uniform"), (0.0, 1.0, 0.0, 2.5, "uniform"),
    (0.0, 1.0, 3.0, 3.3, "uniform"), (0.0, 1.0, -40.02, -40.0, "uniform"),
    (0.0, 1.0, 3.0, 3.5, "exponential"), (0.0, 1.0, -41.0, -40.0, "exponential"),
]
DRAWS = 10_000


def case_id(case):
    return ",".join(map(repr, case[:4])) + f" {case[4]}"


@functools.cache
def gamma_fallback_draws(shape, rate, lo, hi):
    """DRAWS draws of ``_gamma_window`` and the mean number of tries per draw."""
    gen = CountingGenerator(7)
    x = np.array([_gamma_window(gen, shape, rate, lo, hi) for _ in range(DRAWS)])
    tries = gen.calls["standard_gamma"] or gen.calls["standard_exponential"]
    return x, tries / DRAWS


@functools.cache
def normal_draws(mean, sd, lo, hi):
    """DRAWS draws of ``_truncated_normal`` and the mean number of tries per miss
    of the plain draw; plain redraws count every draw as a try."""
    gen = CountingGenerator(8)
    x = np.array([_truncated_normal(gen, mean, sd, lo, hi) for _ in range(DRAWS)])
    if normal_branch(mean, sd, lo, hi) == "plain":
        return x, gen.calls["standard_normal"] / DRAWS
    misses = sum(not lo < mean + sd * z < hi for z in gen.normals)
    per_try = 1 if normal_branch(mean, sd, lo, hi) == "uniform" else 2
    return x, gen.calls["standard_exponential"] / per_try / misses


class TestRejectionFallbacks:
    """The exact rejection draws that replace a plain draw outside its window."""

    def test_cases_cover_every_branch(self):
        assert {gamma_branch(*case[:4]) for case in GAMMA_CASES} == set(GAMMA_BOUNDS)
        assert {normal_branch(*case[:4]) for case in NORMAL_CASES} == set(NORMAL_BOUNDS)

    @pytest.mark.parametrize("case", GAMMA_CASES, ids=case_id)
    def test_gamma_matches_the_scipy_law(self, case):
        shape, rate, lo, hi, branch = case
        assert gamma_branch(shape, rate, lo, hi) == branch
        x, _ = gamma_fallback_draws(shape, rate, lo, hi)
        assert lo <= x.min() and x.max() <= hi
        if rate * hi < 1e-280:  # the law is the power law to working precision
            dist = stats.powerlaw(shape, scale=hi)
        else:
            dist = stats.gamma(shape, scale=1.0 / rate)
        assert stats.kstest(x, tail_truncated_cdf(dist, lo, hi)).pvalue > 0.01

    @pytest.mark.parametrize("case", GAMMA_CASES, ids=case_id)
    def test_gamma_tries_within_the_bound(self, case):
        _, tries = gamma_fallback_draws(*case[:4])
        assert 1.0 <= tries <= 1.0 / GAMMA_BOUNDS[case[4]]

    @pytest.mark.parametrize("case", NORMAL_CASES, ids=case_id)
    def test_normal_matches_the_scipy_law(self, case):
        mean, sd, lo, hi, branch = case
        assert normal_branch(mean, sd, lo, hi) == branch
        x, _ = normal_draws(mean, sd, lo, hi)
        assert lo <= x.min() and x.max() <= hi
        ref = stats.truncnorm((lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd)
        assert stats.kstest(x, ref.cdf).pvalue > 0.01

    @pytest.mark.parametrize("case", NORMAL_CASES, ids=case_id)
    def test_normal_tries_within_the_bound(self, case):
        _, tries = normal_draws(*case[:4])
        assert 1.0 <= tries <= 1.0 / NORMAL_BOUNDS[case[4]]

    def test_array_rates_redraw_misses_in_element_order(self):
        # the array form redraws each miss with the float fallback, one by one
        rates = np.array([20.0, 5.0, 60.0, 0.0, 1e-300, 20_000.0, 0.1] * 20)
        gen, ref = np.random.default_rng(9), np.random.default_rng(9)
        x = _truncated_gamma(gen, 2.0, rates, *BETA)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            plain = ref.standard_gamma(2.0, rates.shape) / rates
        for i, rate in enumerate(rates.tolist()):
            if not BETA[0] < plain[i] < BETA[1]:
                plain[i] = _gamma_window(ref, 2.0, rate, *BETA)
        assert np.array_equal(x, plain) and gen.bit_generator.state == ref.bit_generator.state


class TestShiftEquivariance:
    def test_posterior_means_shift_with_the_data(self):
        def make(shift):
            rng = np.random.default_rng(12)
            out = []
            for i in range(10):
                mu_i = 0.01 + 0.008 * rng.standard_normal()
                sd_i = rng.uniform(0.02, 0.05)
                x = mu_i + sd_i * (math.sqrt(RHO) * rng.standard_normal()
                                   + math.sqrt(1 - RHO) * rng.standard_normal(30))
                out.append(x + shift)
            return PairDifferences(datasets=tuple(f"d{i}" for i in range(10)), x=np.array(out), rho=RHO)

        c = 0.005
        cfg = small_cfg(seed=71)
        a = fit(make(0.0), cfg)
        b = fit(make(c), cfg)
        xa, xb = a.pooled("mu0"), b.pooled("mu0")
        se = math.sqrt(xa.var() / a.diagnostics["mu0"].ess + xb.var() / b.diagnostics["mu0"].ess)
        assert abs((xb.mean() - xa.mean()) - c) < 3 * se


class TestDiagnosticsFunctions:
    def test_rhat_near_one_for_iid_chains(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 500))
        assert split_rhat(x) == pytest.approx(1.0, abs=0.05)
        ess = effective_sample_size(x)
        assert 1000 < ess < 3000

    def test_rhat_flags_disjoint_chains(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 400))
        x[1] += 5.0
        assert split_rhat(x) > 2.0

    def test_ess_small_for_sticky_chain(self):
        rng = np.random.default_rng(2)
        steps = rng.standard_normal((2, 2000))
        sticky = np.cumsum(steps, axis=1) * 0.05  # random walk: high autocorrelation
        assert effective_sample_size(sticky) < 200

    def test_constant_chains(self):
        x = np.zeros((2, 100))
        assert split_rhat(x) == 1.0
        assert effective_sample_size(x) == 200.0


def constant_draws(mu0, sigma0, nu, chains=2, draws=50, q=2):
    shape = (chains, draws)
    return HierDraws(
        mu0=np.full(shape, mu0), sigma0=np.full(shape, sigma0), nu=np.full(shape, nu),
        alpha=np.full(shape, 1.0), beta=np.full(shape, 0.1),
        mu=np.zeros((chains, draws, q)), sigma=np.full((chains, draws, q), 0.01),
        diagnostics={"mu0": Diagnostic(rhat=1.0, ess=100.0)},
    )


def draws_csv_loop(draws):
    """Reference: the per-row writer that ``HierDraws.to_csv`` replaced."""
    header = ["chain", "iteration", "mu0", "sigma0", "nu", "alpha", "beta"]
    n_chains, n_draws, q = draws.mu.shape
    header += [f"mu_{i + 1}" for i in range(q)]
    header += [f"sigma_{i + 1}" for i in range(q)]
    lines = [",".join(header)]
    for c in range(n_chains):
        for it in range(n_draws):
            row = [str(c), str(it)]
            row += [repr(float(v)) for v in (
                draws.mu0[c, it], draws.sigma0[c, it], draws.nu[c, it],
                draws.alpha[c, it], draws.beta[c, it],
            )]
            row += [repr(float(v)) for v in draws.mu[c, it]]
            row += [repr(float(v)) for v in draws.sigma[c, it]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestCsvExport:
    @pytest.mark.parametrize("chains, n, q", [(2, 4, 1), (3, 7, 5), (4, 50, 54)])
    def test_matches_the_row_loop(self, chains, n, q):
        rng = np.random.default_rng(q)
        scalar = (chains, n)
        draws = HierDraws(
            mu0=rng.normal(0.0, 0.01, scalar), sigma0=rng.exponential(0.01, scalar),
            nu=rng.gamma(2.0, 10.0, scalar), alpha=rng.uniform(0.5, 5.0, scalar),
            beta=rng.uniform(0.05, 0.15, scalar), mu=rng.normal(0.0, 0.02, (chains, n, q)),
            sigma=rng.exponential(0.03, (chains, n, q)),
        )
        draws.mu[0, 0, 0] = -0.0
        draws.sigma[-1, -1, -1] = 1e-300
        draws.nu[0, -1] = 2.0
        assert draws.to_csv() == draws_csv_loop(draws)

    def test_fitted_draws_match_the_row_loop(self):
        draws = fit(model_data(3, 15, seed=10), small_cfg(seed=61, warmup=20, draws=10))
        assert draws.to_csv() == draws_csv_loop(draws)


class TestNextDataset:
    def test_degenerate_posterior_is_all_rope(self):
        draws = constant_draws(mu0=0.0, sigma0=1e-6, nu=10.0)
        samples = next_dataset_probs(draws, Rope(-0.01, 0.01))
        assert samples.samples[:, 1].min() > 0.999999
        probs = simplex_region_probs(samples)
        assert probs.as_tuple() == (0.0, 1.0, 0.0)

    def test_matches_the_student_tail_oracle(self):
        def below(bound, loc, scale, dof):
            # P(T <= bound) for one draw's Student predictive, at mpmath's working precision
            t = (mp.mpf(bound) - mp.mpf(loc)) / mp.mpf(scale)
            tail = mp_tail(t, dof)
            return tail if t < 0 else 1 - tail

        draws = fit(model_data(5, 20, seed=12), small_cfg(seed=83, warmup=50, draws=60))
        mu0, sigma0, nu = (draws.pooled(name) for name in ("mu0", "sigma0", "nu"))
        m = float(mu0[3])  # a bound at a draw of mu0 gives t = 0 there
        for rope in (Rope(-0.01, 0.01), Rope(0.0, 0.0), Rope(min(m, 0.0), max(m, 0.0))):
            samples = next_dataset_probs(draws, rope).samples
            for row, loc, scale, dof in zip(samples, mu0, sigma0, nu):
                with mp.workdps(40):
                    lo, hi = below(rope.lower, loc, scale, dof), below(rope.upper, loc, scale, dof)
                    exact = (float(lo), float(hi - lo), float(1 - hi))
                for got, want in zip(row, exact):
                    assert abs(got - want) <= 1e-15, (rope, loc, scale, dof)

    def test_rows_equal_the_t_test_rope_rule(self):
        draws = fit(model_data(5, 20, seed=12), small_cfg(seed=83, warmup=50, draws=60))
        mu0, sigma0, nu = (draws.pooled(name) for name in ("mu0", "sigma0", "nu"))
        m = float(mu0[3])
        for rope in (Rope(-0.01, 0.01), Rope(0.0, 0.0), Rope(min(m, 0.0), max(m, 0.0))):
            samples = next_dataset_probs(draws, rope).samples
            for row, loc, scale2, dof in zip(samples.tolist(), mu0.tolist(), (sigma0**2).tolist(), nu.tolist()):
                assert tuple(row) == rope_probs(LocScaleStudent(dof, loc, scale2), rope).as_tuple()

    def test_rows_sum_to_one(self):
        data = model_data(6, 20, seed=13)
        draws = fit(data, small_cfg(seed=81, warmup=100, draws=100))
        samples = next_dataset_probs(draws, Rope(-0.01, 0.01))
        assert np.max(np.abs(samples.samples.sum(axis=1) - 1.0)) < 1e-12

    def test_uses_all_draws_when_pool_is_small(self):
        # 6,000 pooled draws, more than the 4,000 of a default fit
        for per_chain in (100, 3000):
            draws = constant_draws(mu0=0.0, sigma0=0.02, nu=10.0, chains=2, draws=per_chain)
            samples = next_dataset_probs(draws, Rope(-0.01, 0.01))
            assert samples.count == 2 * per_chain


class TestShrinkage:
    def test_single_dataset_row(self):
        draws = constant_draws(mu0=0.0, sigma0=0.01, nu=10.0, q=1)
        data = PairDifferences(datasets=("d0",), x=np.full((1, 10), 0.01), rho=RHO)
        report = shrinkage_report(draws, data)
        assert len(report.rows) == 1
        assert report.rows[0].dataset == "d0"

    def test_pooling_pulls_estimates_together(self):
        wins = 0
        for rep in range(10):
            data = model_data(10, 25, mu0=0.015, sigma0=0.008, seed=100 + rep)
            draws = fit(data, small_cfg(seed=200 + rep, warmup=200, draws=200))
            report = shrinkage_report(draws, data)
            wins += report.pooled_abs_dev <= report.sample_abs_dev
        assert wins >= 7

    def test_outlier_dataset_reported(self):
        # identical per-dataset noise, so pooling strength alone separates
        # the tightly clustered means from the one tail dataset
        data = model_data(8, 25, mu0=0.0, sigma0=0.002, seed=14, sd_range=(0.03, 0.0300001))
        outlier = 0.15 + 0.03 * np.random.default_rng(15).standard_normal(25)
        data = PairDifferences(datasets=(*data.datasets, "outlier"), x=np.vstack([data.x, outlier]), rho=RHO)
        draws = fit(data, small_cfg(seed=91, warmup=200, draws=200))
        report = shrinkage_report(draws, data)
        sds = {r.dataset: r.posterior_sd for r in report.rows}
        med = float(np.median([v for k, v in sds.items() if k != "outlier"]))
        assert sds["outlier"] > med  # reported, heavy-tail robustness probe

    def test_mismatched_inputs(self):
        draws = constant_draws(mu0=0.0, sigma0=0.01, nu=10.0, q=2)
        with pytest.raises(ValueError):
            shrinkage_report(draws, PairDifferences(datasets=("d0",), x=np.full((1, 10), 0.01), rho=RHO))
