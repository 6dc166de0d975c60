import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cvcompare.kernels import (
    LocScaleStudent,
    RngStream,
    cs_loglik,
    gamma_logpdf,
    student_cdf,
    student_logpdf,
    student_quantile,
)

mp.dps = 40


def mp_student_cdf(x, dof, loc=0.0, scale=1.0):
    """High-precision oracle from the incomplete-beta definition."""
    t = (mp.mpf(x) - mp.mpf(loc)) / mp.mpf(scale)
    ib = mp.betainc(dof / mp.mpf(2), mp.mpf("0.5"), 0, dof / (dof + t * t), regularized=True)
    half = ib / 2
    return float(half if t <= 0 else 1 - half)


class TestStudentCdf:
    def test_median_is_half(self):
        d = LocScaleStudent(dof=7, loc=0.3, scale2=2.5)
        assert student_cdf(0.3, d) == 0.5

    def test_reference_tail(self):
        # the benchmark correlated t statistic -3.52 with 99 dof
        d = LocScaleStudent(dof=99, loc=0.0, scale2=1.0)
        one_sided = student_cdf(-3.52, d)
        assert one_sided == pytest.approx(0.000325, abs=5e-6)
        assert 2 * (1 - student_cdf(3.52, d)) == pytest.approx(0.00065, abs=2e-5)

    def test_cauchy_closed_form(self):
        d = LocScaleStudent(dof=1, loc=0.0, scale2=1.0)
        assert student_cdf(1.0, d) == pytest.approx(0.75, abs=1e-14)
        assert student_cdf(-1.0, d) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("dof", [0.5, 1, 2, 5, 30, 99, 500])
    @pytest.mark.parametrize("x", [-8.0, -2.5, -0.7, 0.0, 0.3, 1.9, 6.0])
    def test_against_incomplete_beta_oracle(self, dof, x):
        d = LocScaleStudent(dof=dof, loc=0.1, scale2=1.7)
        assert student_cdf(x, d) == pytest.approx(
            mp_student_cdf(x, dof, 0.1, math.sqrt(1.7)), abs=1e-12
        )

    def test_monotone_and_symmetric(self):
        d = LocScaleStudent(dof=12, loc=-0.2, scale2=0.5)
        xs = np.linspace(-5, 5, 201)
        vals = [student_cdf(x, d) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        for delta in (0.13, 1.7, 4.2):
            assert student_cdf(d.loc + delta, d) + student_cdf(d.loc - delta, d) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_degenerate_point_mass(self):
        d = LocScaleStudent(dof=9, loc=0.2, scale2=0.0)
        assert student_cdf(0.1, d) == 0.0
        assert student_cdf(0.2, d) == 0.5
        assert student_cdf(0.3, d) == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LocScaleStudent(dof=0, loc=0, scale2=1)
        with pytest.raises(ValueError):
            LocScaleStudent(dof=3, loc=0, scale2=-1)


class TestStudentQuantile:
    def test_median(self):
        d = LocScaleStudent(dof=4, loc=1.25, scale2=3.0)
        assert student_quantile(0.5, d) == 1.25

    def test_reference_value(self):
        d = LocScaleStudent(dof=99, loc=0.0, scale2=1.0)
        assert student_quantile(0.975, d) == pytest.approx(1.9842, abs=1e-4)

    def test_cauchy_quantile(self):
        d = LocScaleStudent(dof=1, loc=0.0, scale2=1.0)
        assert student_quantile(0.75, d) == pytest.approx(1.0, abs=1e-12)

    def test_bisection_oracle(self):
        d = LocScaleStudent(dof=17, loc=-0.4, scale2=0.09)
        for p in (0.01, 0.2, 0.65, 0.99):
            lo, hi = -1e3, 1e3
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if student_cdf(mid, d) < p:
                    lo = mid
                else:
                    hi = mid
            assert student_quantile(p, d) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    @given(
        dof=st.floats(0.5, 200),
        p=st.floats(0.001, 0.999),
        loc=st.floats(-5, 5),
        scale2=st.floats(1e-6, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, dof, p, loc, scale2):
        d = LocScaleStudent(dof=dof, loc=loc, scale2=scale2)
        assert student_cdf(student_quantile(p, d), d) == pytest.approx(p, abs=1e-10)

    def test_domain(self):
        d = LocScaleStudent(dof=3, loc=0, scale2=1)
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                student_quantile(p, d)


class TestStudentLogpdf:
    def test_matches_quadrature_normalisation(self):
        from scipy.integrate import quad

        val, _ = quad(lambda x: math.exp(student_logpdf(x, 5.0, 0.3, 0.7)), -60, 60)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_vectorized(self):
        out = student_logpdf(np.array([0.0, 1.0]), 3.0, 0.0, 1.0)
        assert out.shape == (2,)
        assert out[0] > out[1]


class TestCsLoglik:
    def test_reduces_to_univariate_normal(self):
        from scipy.stats import norm

        x = 0.37
        val = cs_loglik(mean_i=x, ss_i=0.0, n=1, mu=0.1, sigma2=0.5, rho=0.0)
        assert val == pytest.approx(norm.logpdf(x, 0.1, math.sqrt(0.5)), abs=1e-12)

    def test_dense_mvn_oracle_fixed(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0.0, 0.1, size=3)
        mu, sigma2, rho = 0.02, 0.09, 0.3
        n = 3
        cov = sigma2 * ((1 - rho) * np.eye(n) + rho * np.ones((n, n)))
        resid = x - mu
        _, logdet = np.linalg.slogdet(cov)
        dense = -0.5 * (n * math.log(2 * math.pi) + logdet + resid @ np.linalg.solve(cov, resid))
        val = cs_loglik(x.mean(), ((x - x.mean()) ** 2).sum(), n, mu, sigma2, rho)
        assert val == pytest.approx(dense, abs=1e-8)

    @given(
        n=st.integers(2, 8),
        rho=st.floats(0.0, 0.95),
        sigma2=st.floats(0.01, 4.0),
        mu=st.floats(-1.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_dense_mvn_oracle_property(self, n, rho, sigma2, mu, seed):
        x = np.random.default_rng(seed).normal(0.0, 1.0, size=n)
        cov = sigma2 * ((1 - rho) * np.eye(n) + rho * np.ones((n, n)))
        resid = x - mu
        _, logdet = np.linalg.slogdet(cov)
        dense = -0.5 * (n * math.log(2 * math.pi) + logdet + resid @ np.linalg.solve(cov, resid))
        val = cs_loglik(x.mean(), ((x - x.mean()) ** 2).sum(), n, mu, sigma2, rho)
        assert val == pytest.approx(dense, abs=1e-8)

    def test_quadratic_terms_vanish_at_the_mean(self):
        n, rho, sigma2 = 6, 0.25, 0.8
        lam1 = sigma2 * (1 + (n - 1) * rho)
        lam2 = sigma2 * (1 - rho)
        expected = -0.5 * n * math.log(2 * math.pi) - 0.5 * math.log(lam1) - 0.5 * (n - 1) * math.log(lam2)
        assert cs_loglik(0.4, 0.0, n, 0.4, sigma2, rho) == pytest.approx(expected, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cs_loglik(0.0, 0.0, 3, 0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            cs_loglik(0.0, 0.0, 3, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cs_loglik(0.0, -1.0, 3, 0.0, 1.0, 0.1)


class TestGammaLogpdf:
    def test_matches_scipy(self):
        from scipy.stats import gamma

        assert gamma_logpdf(2.3, 1.5, 0.1) == pytest.approx(
            gamma.logpdf(2.3, a=1.5, scale=10.0), abs=1e-12
        )

    def test_non_positive(self):
        assert gamma_logpdf(0.0, 1.0, 1.0) == -math.inf
        assert gamma_logpdf(-1.0, 1.0, 1.0) == -math.inf


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 7).generator().random(16)
        b = RngStream(123, 7).generator().random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(16)
        b = RngStream(123, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_spawn_deterministic_and_distinct(self):
        base = RngStream(99)
        kids = [base.spawn(i) for i in range(64)]
        assert kids == [base.spawn(i) for i in range(64)]
        assert len({k.stream_id for k in kids}) == 64
        nested = base.spawn(0).spawn(0)
        assert nested.stream_id != base.spawn(0).stream_id

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).spawn(-1)


class TestStudentSf:
    def test_tail_precision(self):
        from cvcompare.kernels import student_sf

        d = LocScaleStudent(dof=99, loc=0.0, scale2=1.0)
        assert student_sf(3.52, d) == pytest.approx(mp_student_cdf(-3.52, 99), abs=1e-18)
        assert student_sf(-1.0, d) + student_sf(1.0, d) == pytest.approx(1.0, abs=1e-12)
        degenerate = LocScaleStudent(dof=9, loc=0.2, scale2=0.0)
        assert student_sf(0.1, degenerate) == 1.0
        assert student_sf(0.3, degenerate) == 0.0
