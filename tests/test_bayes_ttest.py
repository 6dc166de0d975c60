import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcompare.bayes_ttest import direction_prob, hdis, posterior, rope_probs
from cvcompare.data import PairDifferences, Rope
from cvcompare.decisions import TrinomialProbs
from cvcompare.frequentist import correlated_ttest
from cvcompare.kernels import LocScaleStudent, student_cdf

from conftest import series_from_stats

# posterior of the squash-unstored benchmark dataset, reconstructed from its
# published summaries (mean difference -0.056, P(direction) = 0.165)
SQUASH_POSTERIOR = LocScaleStudent(dof=99, loc=-0.056, scale2=3.2724382946e-3)


class TestPosterior:
    def test_benchmark_posterior(self):
        d = series_from_stats(mean=-0.0194, sd=0.01583, n=100, rho=0.1)
        post = posterior(d)
        assert post.dof == 99
        assert post.loc == pytest.approx(-0.0194, abs=1e-12)
        # (1/100 + (0.1/0.9)) * 0.01583^2
        assert post.scale2 == pytest.approx(3.03491001111e-5, abs=1e-12)

    def test_constant_data_degenerates_to_point_mass(self):
        d = PairDifferences(datasets=("const",), x=np.full((1, 20), 0.03), rho=0.1)
        post = posterior(d)
        assert post.degenerate
        assert post.loc == 0.03

    def test_rho_zero_is_classic_posterior(self):
        d = series_from_stats(mean=0.01, sd=0.04, n=25, rho=0.0)
        post = posterior(d)
        assert post.scale2 == pytest.approx(d.sds[0] ** 2 / d.n, rel=1e-12)


class TestRopeProbs:
    def test_benchmark_triple(self):
        probs = rope_probs(SQUASH_POSTERIOR, Rope(-0.01, 0.01))
        assert probs.p_left == pytest.approx(0.788, abs=1e-3)
        assert probs.p_rope == pytest.approx(0.086, abs=1e-3)
        assert probs.p_right == pytest.approx(0.126, abs=1e-3)

    def test_point_rope_symmetric_posterior(self):
        post = LocScaleStudent(dof=10, loc=0.0, scale2=1.0)
        probs = rope_probs(post, Rope(0.0, 0.0))
        assert probs.p_left == 0.5 and probs.p_right == 0.5 and probs.p_rope == 0.0

    def test_tight_posterior_inside_rope(self):
        post = LocScaleStudent(dof=99, loc=-0.00212, scale2=4e-6)
        probs = rope_probs(post, Rope(-0.01, 0.01))
        assert round(probs.p_rope, 3) == 1.0

    def test_degenerate_point_mass_regions(self):
        rope = Rope(-0.01, 0.01)
        inside = rope_probs(LocScaleStudent(dof=9, loc=0.005, scale2=0.0), rope)
        assert inside.as_tuple() == (0.0, 1.0, 0.0)
        left = rope_probs(LocScaleStudent(dof=9, loc=-0.5, scale2=0.0), rope)
        assert left.as_tuple() == (1.0, 0.0, 0.0)
        right = rope_probs(LocScaleStudent(dof=9, loc=0.5, scale2=0.0), rope)
        assert right.as_tuple() == (0.0, 0.0, 1.0)
        boundary = rope_probs(LocScaleStudent(dof=9, loc=0.01, scale2=0.0), rope)
        assert boundary.as_tuple() == (0.0, 1.0, 0.0)  # boundary tie goes to the rope

    def test_swap_is_exact_for_symmetric_rope(self):
        d = series_from_stats(mean=-0.021, sd=0.014, n=80, rho=0.1)
        neg = PairDifferences(datasets=("swap",), x=-d.x, rho=d.rho)
        rope = Rope(-0.01, 0.01)
        p = rope_probs(posterior(d), rope)
        q = rope_probs(posterior(neg), rope)
        assert (p.p_left, p.p_rope, p.p_right) == (q.p_right, q.p_rope, q.p_left)

    def test_sum_to_one(self):
        probs = rope_probs(SQUASH_POSTERIOR, Rope(-0.01, 0.01))
        assert probs.p_left + probs.p_rope + probs.p_right == pytest.approx(1.0, abs=1e-12)


class TestDirectionProb:
    def test_benchmark_value(self):
        assert direction_prob(SQUASH_POSTERIOR) == pytest.approx(0.165, abs=1e-3)

    def test_centered(self):
        assert direction_prob(LocScaleStudent(dof=7, loc=0.0, scale2=2.0)) == 0.5

    def test_three_scales_out(self):
        post = LocScaleStudent(dof=99, loc=3.0 * 0.2, scale2=0.04)
        assert direction_prob(post) == pytest.approx(0.99829, abs=1e-5)


class TestHdis:
    def test_reference_interval(self):
        post = LocScaleStudent(dof=99, loc=0.0, scale2=1.0)
        (interval,) = hdis(post, levels=(0.95,)).intervals
        assert interval[0] == pytest.approx(-1.9842, abs=1e-4)
        assert interval[1] == pytest.approx(1.9842, abs=1e-4)

    def test_mass_matches_level(self):
        post = LocScaleStudent(dof=14, loc=-0.3, scale2=0.25)
        result = hdis(post)
        for level, (lo, hi) in zip(result.levels, result.intervals):
            assert student_cdf(hi, post) - student_cdf(lo, post) == pytest.approx(level, abs=1e-10)

    def test_nesting(self):
        post = LocScaleStudent(dof=30, loc=0.1, scale2=0.5)
        result = hdis(post, levels=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99))
        for (lo1, hi1), (lo2, hi2) in zip(result.intervals, result.intervals[1:]):
            assert lo2 < lo1 and hi1 < hi2

    def test_tiny_level_collapses_to_loc(self):
        post = LocScaleStudent(dof=10, loc=0.7, scale2=1.0)
        (interval,) = hdis(post, levels=(1e-9,)).intervals
        assert interval[0] == pytest.approx(0.7, abs=1e-6)
        assert interval[1] == pytest.approx(0.7, abs=1e-6)

    def test_invalid_level(self):
        post = LocScaleStudent(dof=10, loc=0.0, scale2=1.0)
        with pytest.raises(ValueError):
            hdis(post, levels=(1.0,))


class TestFrequentistDuality:
    @given(
        mean=st.floats(-0.2, 0.2),
        sd=st.floats(1e-4, 0.3),
        n=st.integers(2, 200),
        rho=st.floats(0.0, 0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_posterior_cdf_at_zero_is_one_sided_pvalue(self, mean, sd, n, rho):
        d = series_from_stats(mean=mean, sd=sd, n=n, rho=rho)
        post = posterior(d)
        p_greater = correlated_ttest(d).p_one_sided_greater
        assert student_cdf(0.0, post) == pytest.approx(p_greater, abs=1e-10)


class TestTrinomialProbs:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrinomialProbs(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            TrinomialProbs(-0.1, 0.6, 0.5)
