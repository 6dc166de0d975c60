"""Acceptance suite: one test per shipped criterion.

Each test enforces the stated tolerance and prints a single PASS line with
the measured values (run pytest with -s to see them inline).
"""

import math
import time

import numpy as np
import pytest

from cvcompare.bayes_ttest import posterior, rope_probs
from cvcompare.data import PairDifferences, Rope
from cvcompare.decisions import (
    LossMatrix,
    TrinomialProbs,
    decision_table,
    loss_decision,
    simplex_region_probs,
    threshold_decision,
)
from cvcompare.dp import DirichletParams, DpPrior, sign_test_probs, signed_rank_samples
from cvcompare.frequentist import correlated_ttest, wilcoxon_signed_rank
from cvcompare.hierarchical import HierConfig, fit, next_dataset_probs
from cvcompare.kernels import LocScaleStudent, RngStream, student_cdf

from conftest import series_from_stats

ROPE = Rope(-0.01, 0.01)


def _pass(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def mdv(values, scale=1.0):
    values = np.asarray(values, dtype=float) * scale
    return PairDifferences(datasets=tuple(f"d{i}" for i in range(len(values))), x=values[:, np.newaxis])


def test_criterion_1_correlated_ttest_pinpoint():
    d = series_from_stats(mean=-0.0194, sd=0.01583, n=100, rho=0.1)
    res = correlated_ttest(d)
    assert res.t == pytest.approx(-3.52, abs=0.01)
    assert res.p_two_sided == pytest.approx(0.00065, abs=0.00002)
    timings = []
    for _ in range(200):
        start = time.perf_counter()
        correlated_ttest(d)
        timings.append(time.perf_counter() - start)
    best = min(timings)
    assert best < 1e-3
    _pass(1, f"t={res.t:.4f}, p={res.p_two_sided:.5f}, runtime {best * 1e6:.0f}us")


def test_criterion_2_posterior_pvalue_duality():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(1000):
        d = series_from_stats(
            mean=rng.uniform(-0.2, 0.2),
            sd=rng.uniform(1e-4, 0.3),
            n=int(rng.integers(2, 201)),
            rho=rng.uniform(0.0, 0.9),
        )
        gap = abs(student_cdf(0.0, posterior(d)) - correlated_ttest(d).p_one_sided_greater)
        worst = max(worst, gap)
        assert gap <= 1e-10
    _pass(2, f"1000 series, max |posterior cdf(0) - one-sided p| = {worst:.2e}")


def test_criterion_3_wilcoxon_statistics(benchmark_z):
    assert wilcoxon_signed_rank(mdv([-2, -1, 4, 5], 0.01)).t_stat == 7.0
    assert wilcoxon_signed_rank(mdv([-1, 4, 5], 0.01)).t_stat == 5.0
    res = wilcoxon_signed_rank(benchmark_z)
    assert res.t_stat == 162.0
    assert res.w == pytest.approx(-4.8, abs=0.1)
    assert 5e-7 <= res.p_two_sided <= 5e-6
    _pass(3, f"small cases t=7/t=5; benchmark t={res.t_stat:.0f}, w={res.w:.3f}, p={res.p_two_sided:.2e}")


def test_criterion_4_bayes_ttest_rope_probabilities():
    # squash-unstored posterior from its published summaries: location is the
    # tabulated mean difference, scale solved from P(direction) = 0.165
    post = LocScaleStudent(dof=99, loc=-0.056, scale2=3.2724382946e-3)
    probs = rope_probs(post, ROPE)
    assert probs.p_left == pytest.approx(0.788, abs=0.001)
    assert probs.p_rope == pytest.approx(0.086, abs=0.001)
    assert probs.p_right == pytest.approx(0.126, abs=0.001)
    _pass(4, f"({probs.p_left:.4f}, {probs.p_rope:.4f}, {probs.p_right:.4f})")


def test_criterion_5_dp_signed_rank_reproduction(benchmark_z):
    targets = {
        "rope": (0.000, 0.103, 0.897),
        "right": (0.000, 0.112, 0.888),   # pseudo-observation at +inf
        "left": (0.000, 0.096, 0.904),    # pseudo-observation at -inf
    }
    measured = {}
    for index, (placement, target) in enumerate(targets.items()):
        start = time.perf_counter()
        samples = signed_rank_samples(
            benchmark_z, ROPE, DpPrior(s=0.5, z0=placement),
            count=150_000, rng=RngStream(42).spawn(index),
        )
        probs = simplex_region_probs(samples)
        elapsed = time.perf_counter() - start
        assert elapsed <= 5.0
        # reported as (P(first classifier better), P(rope), P(second better))
        got = (probs.p_right, probs.p_rope, probs.p_left)
        for value, expected in zip(got, target):
            assert value == pytest.approx(expected, abs=0.02)
        measured[placement] = (got, elapsed)
    summary = "; ".join(
        f"{k}: ({v[0][0]:.3f}, {v[0][1]:.3f}, {v[0][2]:.3f}) in {v[1]:.1f}s"
        for k, v in measured.items()
    )
    _pass(5, summary)


def test_criterion_6_sign_test_against_large_mc_oracle():
    rng = np.random.default_rng(7)
    count, oracle_count = 1_000_000, 1_000_000
    for trial in range(20):
        alpha = rng.uniform(0.5, 60.0, size=3)
        params = DirichletParams(*alpha)
        probs = sign_test_probs(params)
        draws = np.random.default_rng(5000 + trial).dirichlet(alpha, size=oracle_count)
        rope_win = (draws[:, 1] >= draws[:, 0]) & (draws[:, 1] >= draws[:, 2])
        left_win = ~rope_win & (draws[:, 0] >= draws[:, 2])
        oracle = np.array([
            left_win.mean(),
            rope_win.mean(),
            1.0 - left_win.mean() - rope_win.mean(),
        ])
        for got, ref in zip(probs.as_tuple(), oracle):
            # pooled two-proportion standard error (robust for rare regions)
            pooled = (count * got + oracle_count * ref) / (count + oracle_count)
            se = math.sqrt(pooled * (1 - pooled) * (1 / count + 1 / oracle_count))
            assert abs(got - ref) <= 3 * se + 1e-12
    _pass(6, "20 random Dirichlet parameter triples within 3 combined MC stderr of 1e6-draw oracle")


def _model_data(q, n, mu0, sigma0, nu, rho, seed, sd_range=(0.02, 0.06)):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(q):
        mu_i = mu0 + sigma0 * rng.standard_t(nu)
        sd_i = rng.uniform(*sd_range)
        shared = rng.standard_normal()
        x = mu_i + sd_i * (math.sqrt(rho) * shared + math.sqrt(1 - rho) * rng.standard_normal(n))
        out.append(np.clip(x, -1.0, 1.0))
    return PairDifferences(datasets=tuple(f"d{i}" for i in range(q)), x=np.array(out), rho=rho)


def test_criterion_7a_hierarchical_coverage():
    truth = 0.02
    hits = 0
    start = time.perf_counter()
    for rep in range(100):
        data = _model_data(q=20, n=50, mu0=truth, sigma0=0.01, nu=20.0, rho=0.1, seed=1000 + rep)
        t0 = time.perf_counter()
        draws = fit(data, HierConfig(seed=5000 + rep, chains=2, warmup=300, draws=300))
        assert time.perf_counter() - t0 <= 300.0
        lo, hi = np.percentile(draws.pooled("mu0"), [2.5, 97.5])
        hits += lo <= truth <= hi
    assert hits >= 90
    _pass("7a", f"coverage {hits}/100 in {time.perf_counter() - start:.0f}s")


def test_criterion_7b_hierarchical_shift_equivariance():
    def make(shift):
        rng = np.random.default_rng(12)
        out = []
        for i in range(10):
            mu_i = 0.01 + 0.008 * rng.standard_normal()
            sd_i = rng.uniform(0.02, 0.05)
            x = mu_i + sd_i * (
                math.sqrt(0.1) * rng.standard_normal()
                + math.sqrt(0.9) * rng.standard_normal(30)
            )
            out.append(x + shift)
        return PairDifferences(datasets=tuple(f"d{i}" for i in range(10)), x=np.array(out), rho=0.1)

    c = 0.005
    cfg = HierConfig(seed=77, chains=2, warmup=400, draws=400)
    a = fit(make(0.0), cfg)
    b = fit(make(c), cfg)
    xa, xb = a.pooled("mu0"), b.pooled("mu0")
    se = math.sqrt(xa.var() / a.diagnostics["mu0"].ess + xb.var() / b.diagnostics["mu0"].ess)
    gap = abs((xb.mean() - xa.mean()) - c)
    assert gap < 3 * se
    _pass("7b", f"shift recovered to {gap:.2e} (tolerance {3 * se:.2e})")


def test_criterion_7c_hierarchical_diagnostics_on_defaults():
    data = _model_data(q=20, n=50, mu0=0.02, sigma0=0.01, nu=20.0, rho=0.1, seed=1)
    t0 = time.perf_counter()
    draws = fit(data, HierConfig(seed=42))  # default chains/warmup/draws
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    diag = draws.diagnostics["mu0"]
    assert diag.rhat <= 1.05
    assert diag.ess >= 400
    _pass("7c", f"mu0 split-Rhat {diag.rhat:.4f}, ESS {diag.ess:.0f}, fit {elapsed:.1f}s")


def test_criterion_7d_hierarchical_rope_sanity():
    rng = np.random.default_rng(9)
    data = []
    for i in range(12):
        target = rng.uniform(-0.0015, 0.0015)
        x = 0.004 * (
            math.sqrt(0.1) * rng.standard_normal()
            + math.sqrt(0.9) * rng.standard_normal(40)
        )
        x = x - x.mean() + target  # pin every |sample mean| below 0.002
        data.append(x)
    data = PairDifferences(datasets=tuple(f"t{i}" for i in range(12)), x=np.array(data), rho=0.1)
    assert np.abs(data.means).max() < 0.002
    draws = fit(data, HierConfig(seed=5, chains=2, warmup=400, draws=400))
    samples = next_dataset_probs(draws, ROPE)
    probs = simplex_region_probs(samples)
    assert probs.p_rope >= 0.95
    _pass("7d", f"P(rope) = {probs.p_rope:.3f} for near-identical classifiers")


def test_criterion_8_loss_matrix_equals_threshold_rule():
    loss = LossMatrix.default()
    start = time.perf_counter()
    checked = 0
    for i in range(101):
        for j in range(101 - i):
            k = 100 - i - j
            p = TrinomialProbs(i / 100, j / 100, k / 100)
            assert loss_decision(p, loss).verdict is threshold_decision(p, 0.95).verdict
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(8, f"{checked} simplex grid points agree in {elapsed * 1000:.0f}ms")


def test_criterion_9_nhst_crosstab():
    # synthesize the benchmark split: 19 of 54 NHST rejections; among the
    # rejections 1 equivalent / 14 different / 4 no-decision, among the 35
    # non-rejections 6 equivalent / 29 no-decision
    results, pvalues = {}, {}
    spec = (
        [("rej-eq", 0.01, (0.01, 0.97, 0.02))] * 1
        + [("rej-diff", 0.01, (0.99, 0.005, 0.005))] * 14
        + [("rej-none", 0.03, (0.6, 0.2, 0.2))] * 4
        + [("acc-eq", 0.4, (0.01, 0.96, 0.03))] * 6
        + [("acc-none", 0.5, (0.5, 0.4, 0.1))] * 29
    )
    for idx, (kind, p, triple) in enumerate(spec):
        label = f"{kind}-{idx}"
        results[label] = TrinomialProbs(*triple)
        pvalues[label] = p
    assert len(results) == 54
    table = decision_table(results, rule=0.95, pvalues=pvalues, alpha=0.05)
    rej = table.crosstab["nhst_rejects"]
    acc = table.crosstab["nhst_does_not_reject"]
    assert (acc["n"], acc["equivalent"], acc["no_decision"]) == (35, 6, 29)
    assert (rej["n"], rej["equivalent"], rej["different"], rej["no_decision"]) == (19, 1, 14, 4)
    _pass(9, f"non-rejections {acc['n']}/{acc['equivalent']}/{acc['no_decision']}, "
             f"rejections {rej['n']}/{rej['equivalent']}/{rej['different']}/{rej['no_decision']}")
