import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cvcompare.data import PairDifferences, paired_differences
from cvcompare.errors import DegenerateDataError
from cvcompare.frequentist import (
    _exact_two_sided_p,
    _rank_abs,
    correlated_ttest,
    wilcoxon_signed_rank,
)

from conftest import make_table, series_from_stats


class TestCorrelatedTTest:
    def test_benchmark_statistics(self):
        d = series_from_stats(mean=-0.0194, sd=0.01583, n=100, rho=0.1)
        res = correlated_ttest(d)
        assert res.t == pytest.approx(-3.52, abs=0.01)
        assert res.p_two_sided == pytest.approx(0.00065, abs=2e-5)
        assert res.dof == 99

    def test_null_mean_gives_zero_statistic(self):
        d = series_from_stats(mean=0.03, sd=0.02, n=40, rho=0.1)
        res = correlated_ttest(d, mu0=d.means[0])
        assert res.t == pytest.approx(0.0, abs=1e-9)
        assert res.p_two_sided == pytest.approx(1.0, abs=1e-9)

    def test_rho_zero_matches_classic_ttest(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.01, 0.05, size=30)
        d = PairDifferences(datasets=("iid",), x=x[np.newaxis], rho=0.0)
        res = correlated_ttest(d)
        t_ref, p_ref = stats.ttest_1samp(x, 0.0)
        assert res.t == pytest.approx(t_ref, abs=1e-10)
        assert res.p_two_sided == pytest.approx(p_ref, abs=1e-10)

    def test_antisymmetry(self):
        d = series_from_stats(mean=-0.012, sd=0.03, n=60, rho=0.1)
        neg = PairDifferences(datasets=d.datasets, x=-d.x, rho=d.rho)
        a, b = correlated_ttest(d), correlated_ttest(neg)
        assert a.t == pytest.approx(-b.t, abs=1e-12)
        assert a.p_two_sided == pytest.approx(b.p_two_sided, abs=1e-12)

    def test_one_sided_complements(self):
        d = series_from_stats(mean=0.02, sd=0.05, n=50, rho=0.1)
        res = correlated_ttest(d)
        neg = correlated_ttest(PairDifferences(datasets=("n",), x=-d.x, rho=d.rho))
        assert res.p_one_sided_greater + neg.p_one_sided_greater == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        d = PairDifferences(datasets=("flat",), x=np.full((1, 10), 0.02), rho=0.1)
        with pytest.raises(DegenerateDataError):
            correlated_ttest(d)


def means(values):
    """Per-dataset mean differences alone: a one-column difference matrix."""
    values = np.asarray(values, dtype=float)
    return PairDifferences(datasets=tuple(map(str, range(len(values)))), x=values[:, np.newaxis])


def mdv(values):
    return means(np.asarray(values, dtype=float) / 100.0)


class TestWilcoxon:
    def test_small_rank_sums(self):
        assert wilcoxon_signed_rank(mdv([-2, -1, 4, 5])).t_stat == 7.0
        assert wilcoxon_signed_rank(mdv([-1, 4, 5])).t_stat == 5.0

    def test_all_positive_distinct(self):
        res = wilcoxon_signed_rank(mdv([1, 2, 3, 4, 5, 6]))
        assert res.t_stat == 6 * 7 / 2

    def test_benchmark_54_datasets(self, benchmark_z):
        res = wilcoxon_signed_rank(benchmark_z)
        assert res.t_stat == 162.0
        assert res.w == pytest.approx(-4.8, abs=0.1)
        assert 5e-7 <= res.p_two_sided <= 5e-6
        assert res.tie_adjust == 0.0  # zeros dropped, remaining |z| distinct

    def test_no_ties_variance_term(self):
        z = mdv([3, -1, 2, -4, 5, -6, 7, -8, 9, 10, -11, 12])
        res = wilcoxon_signed_rank(z, exact=False)
        q = 12
        expected_var = q * (q + 1) * (2 * q + 1) / 24
        assert res.tie_adjust == 0.0
        centred = res.t_stat - q * (q + 1) / 4
        assert res.w == pytest.approx(centred / np.sqrt(expected_var), abs=1e-12)

    def test_tie_adjustment(self):
        with pytest.warns(UserWarning):
            res = wilcoxon_signed_rank(mdv([1, -1, 2, -3, 5]), exact=False)
        # one tied group of two absolute values: (2^3 - 2) / 2 = 3
        assert res.tie_adjust == 3.0

    def test_monotone_odd_transform_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-0.9, 0.9, size=25)
        base = wilcoxon_signed_rank(means(z / 100))
        cubed = wilcoxon_signed_rank(means((z / 100) ** 3 * 50))
        assert base.t_stat == cubed.t_stat
        # exchanging the classifiers negates z and keeps the two-sided p-value
        swapped = wilcoxon_signed_rank(means(-z / 100))
        assert swapped.p_two_sided == base.p_two_sided

    def test_exact_matches_scipy_for_clean_data(self):
        values = [3.0, -1.5, 2.2, -4.1, 5.9, -0.7, 1.1]
        res = wilcoxon_signed_rank(mdv(values))
        assert res.exact
        ref = stats.wilcoxon(np.array(values), method="exact")
        assert res.p_two_sided == pytest.approx(ref.pvalue, abs=1e-12)

    def test_normal_approx_warns_for_small_q(self):
        with pytest.warns(UserWarning, match="unreliable"):
            wilcoxon_signed_rank(mdv([-2, -1, 4, 5]), exact=False)

    def test_all_zero_input(self):
        res = wilcoxon_signed_rank(mdv([0, 0, 0]))
        assert res.t_stat == 0.0 and res.p_two_sided == 1.0

    def test_far_tail_p_does_not_underflow(self):
        # all 150 differences positive: |w| is about 10.6, where 1 - cdf(|w|) is 0
        res = wilcoxon_signed_rank(mdv(np.linspace(0.001, 0.15, 150)))
        assert not res.exact and abs(res.w) > 10
        assert res.p_two_sided > 0.0
        assert res.p_two_sided == pytest.approx(2.0 * stats.norm.sf(abs(res.w)), rel=1e-12)

    @given(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_statistic_bounds(self, values):
        z = means(values)
        res = wilcoxon_signed_rank(z)
        q = np.count_nonzero(np.asarray(values))
        assert 0.0 <= res.t_stat <= q * (q + 1) / 2
        assert 0.0 <= res.p_two_sided <= 1.0


def pair_pvalue(table, a, b):
    return wilcoxon_signed_rank(paired_differences(table, a, b)).p_two_sided


class TestPairwise:
    def test_symmetric_under_order(self):
        table = make_table(n_datasets=12, classifiers=("a", "b", "c"), seed=2)
        assert pair_pvalue(table, "a", "b") == pair_pvalue(table, "b", "a")
        assert pair_pvalue(table, "a", "c") == pair_pvalue(table, "c", "a")
        assert pair_pvalue(table, "b", "c") == pair_pvalue(table, "c", "b")


def rank_abs_loop(values):
    """Reference: average ranks of |values| and sum(t^3 - t) / 2, one tie run at a time."""
    a = np.abs(values)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size)
    tie_adjust = 0.0
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        count = j - i + 1
        if count > 1:
            tie_adjust += (count**3 - count) / 2.0
        i = j + 1
    return ranks, tie_adjust


class TestRankAbs:
    def test_matches_the_loop_exactly(self):
        rng = np.random.default_rng(20)
        for k in range(2000):
            q = int(rng.integers(1, 60))
            if k % 2:
                # tie-heavy: few distinct magnitudes, both signs
                values = rng.integers(1, 6, size=q) * rng.choice([-0.01, 0.01], size=q)
            else:
                values = rng.uniform(-0.9, 0.9, size=q)
            ranks, tie_adjust = _rank_abs(values)
            ref_ranks, ref_tie_adjust = rank_abs_loop(values)
            assert np.array_equal(ranks, ref_ranks)
            assert tie_adjust == ref_tie_adjust
            assert type(tie_adjust) is float


def exact_p_enumeration(ranks, t_stat):
    """Reference: the positive-rank sum of every one of the 2^q sign assignments."""
    q = ranks.size
    centre = q * (q + 1) / 4.0
    observed = abs(t_stat - centre)
    sums = np.zeros(1)
    for r in ranks:
        sums = np.concatenate([sums, sums + r])
    return float(np.mean(np.abs(sums - centre) >= observed - 1e-12))


def exact_p_integer_count(ranks, t_stat):
    """Reference: the null count over doubled ranks in Python integers, which
    do not overflow, compared exactly."""
    q = ranks.size
    doubled = [round(2 * r) for r in ranks.tolist()]
    counts = np.zeros(sum(doubled) + 1, dtype=object)
    counts[0] = 1
    top = 0
    for r in doubled:
        counts[r : top + r + 1] = counts[r : top + r + 1] + counts[: top + 1]
        top += r
    centre, observed = q * (q + 1) // 2, abs(round(2 * t_stat) - q * (q + 1) // 2)
    hits = sum(c for s, c in enumerate(counts.tolist()) if abs(s - centre) >= observed)
    return hits / 2**q


def signed_values(rng, q, ties):
    if ties:
        # few distinct magnitudes, both signs
        return rng.integers(1, 6, size=q) * rng.choice([-0.01, 0.01], size=q)
    return rng.uniform(-0.9, 0.9, size=q)


class TestExactNull:
    def test_matches_the_enumeration_exactly(self):
        rng = np.random.default_rng(21)
        for k in range(800):
            values = signed_values(rng, int(rng.integers(1, 17)), ties=k % 4 != 0)
            ranks, _ = _rank_abs(values)
            t_stat = float(ranks[values > 0].sum())
            assert _exact_two_sided_p(ranks, t_stat) == exact_p_enumeration(ranks, t_stat)

    @pytest.mark.parametrize("q", [60, 150])
    @pytest.mark.parametrize("positive", [0.5, 0.9])
    def test_any_q_matches_the_integer_count(self, q, positive):
        rng = np.random.default_rng(q)
        values = np.abs(signed_values(rng, q, ties=True)) * np.where(rng.uniform(size=q) < positive, 1, -1)
        res = wilcoxon_signed_rank(means(values), exact=True)
        ranks, _ = _rank_abs(values)
        assert res.exact
        assert res.p_two_sided == pytest.approx(exact_p_integer_count(ranks, res.t_stat), rel=1e-12)

