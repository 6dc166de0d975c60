import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import mp_tail
from cvcompare import kernels
from cvcompare.kernels import (
    LocScaleStudent,
    RngStream,
    student_cdf,
    student_quantile,
    student_sf,
    student_tail,
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


def student_cdf_mirror(x, d):
    """Reference: the body ``student_cdf`` had before it shared one with ``student_sf``."""
    if d.degenerate:
        if x < d.loc:
            return 0.0
        if x > d.loc:
            return 1.0
        return 0.5
    t = (x - d.loc) / d.scale
    if t == 0.0:
        return 0.5
    return student_tail(t, d.dof) if t < 0 else 1.0 - student_tail(t, d.dof)


def student_sf_mirror(x, d):
    """Reference: the body ``student_sf`` had before it shared one with ``student_cdf``."""
    if d.degenerate:
        if x < d.loc:
            return 1.0
        if x > d.loc:
            return 0.0
        return 0.5
    t = (x - d.loc) / d.scale
    if t == 0.0:
        return 0.5
    return student_tail(t, d.dof) if t > 0 else 1.0 - student_tail(t, d.dof)


class TestSharedStudentBody:
    def test_cdf_and_sf_match_the_mirror_bodies(self):
        rng = np.random.default_rng(12)
        dists = [LocScaleStudent(dof=9, loc=loc, scale2=0.0) for loc in (0.0, -0.0, 0.2, -1e-300)]
        dists += [LocScaleStudent(dof=5, loc=0.0, scale2=1.0), LocScaleStudent(dof=3, loc=-0.0, scale2=2.0)]
        dists += [
            LocScaleStudent(dof=float(dof), loc=float(loc), scale2=float(scale2))
            for dof, loc, scale2 in zip(rng.uniform(0.5, 200.0, 40), rng.normal(0.0, 0.05, 40),
                                        rng.exponential(1e-3, 40))
        ]
        for d in dists:
            xs = [d.loc, -d.loc, 0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf]
            xs += (d.loc + rng.normal(0.0, 3.0, 30) * math.sqrt(d.scale2 or 1e-4)).tolist()
            for x in xs:
                for new, old in ((student_cdf(x, d), student_cdf_mirror(x, d)),
                                 (student_sf(x, d), student_sf_mirror(x, d))):
                    assert new == old
                    assert math.copysign(1.0, new) == math.copysign(1.0, old)


ACCURACY_DOFS = [0.05, 0.5, 1, 2.5, 9, 99, 1e3, 1e4, 1e6]
ACCURACY_TS = [0.0, 1e-300, 1e-9, 1e-3, 0.3, 3.52, 30.0, 1e4, 1e150, math.inf]
HDI_TAILS = [(1.0 - level) / 2.0 for level in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)]
FAR_TAILS = [1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1e-3, 0.1, 0.3, 0.45, 0.49, 0.4999,
             0.5 - 1e-9, math.nextafter(0.5, 0.0)]


def relative_bound(dof):
    return 1e-13 if dof <= 1e3 else 1e-12


def mp_density(t, dof):
    t, dof = mp.mpf(t), mp.mpf(dof)
    return (mp.gamma((dof + 1) / 2) / (mp.sqrt(dof * mp.pi) * mp.gamma(dof / 2))
            * (1 + t * t / dof) ** (-(dof + 1) / 2))


class TestAccuracy:
    @pytest.mark.parametrize("dof", ACCURACY_DOFS)
    def test_tail_is_exact_at_zero_and_infinity(self, dof):
        for t in (0.0, -0.0):
            assert student_tail(t, dof) == 0.5
        for t in (math.inf, -math.inf):
            assert student_tail(t, dof) == 0.0

    @pytest.mark.parametrize("dof", ACCURACY_DOFS)
    def test_tail_against_the_oracle(self, dof):
        for t in ACCURACY_TS[1:-1]:
            exact = mp_tail(t, dof)
            if exact <= mp.mpf("1e-300"):
                continue
            for got in (student_tail(t, dof), student_tail(-t, dof)):
                assert abs(mp.mpf(got) - exact) / exact <= relative_bound(dof), (t, dof, got)

    @pytest.mark.parametrize("dof", [0.05, 1, 9, 99, 1e6])
    def test_tiny_t_is_not_rounded_to_the_centre(self, dof):
        # dof / (dof + t * t) is 1 in floating point here, but the tail is not 1/2
        t = 1e-9
        assert dof / (dof + t * t) == 1.0
        centre = 0.5 - student_tail(t, dof)
        exact = 0.5 - mp_tail(t, dof)
        assert centre > 0.0
        assert abs(mp.mpf(centre) - exact) / exact < 1e-6

    @pytest.mark.parametrize("dof", ACCURACY_DOFS)
    def test_quantile_against_the_oracle(self, dof):
        d = LocScaleStudent(dof=dof, loc=0.0, scale2=1.0)
        assert student_quantile(0.5, d) == 0.0
        for q in HDI_TAILS + FAR_TAILS:
            got = -student_quantile(q, d)
            if mp_tail(sys.float_info.max, dof) > q:
                assert got == math.inf, (q, dof)
                continue
            # one Newton step at 40 digits from the computed quantile doubles its correct digits
            exact = got + (mp_tail(got, dof) - q) / mp_density(got, dof)
            assert abs(got - exact) / exact <= relative_bound(dof), (q, dof, got)

    def test_subnormal_tail_quantile_stops(self, monkeypatch):
        # a tail below the smallest normal float has few significant bits: at 1 < dof < 2
        # one unit of it is more than a step of 1e-10 in log t resolves
        calls = []
        tail_parts = kernels._tail_parts

        def counted(t, dof):
            calls.append(t)
            return tail_parts(t, dof)

        monkeypatch.setattr(kernels, "_tail_parts", counted)
        rng = np.random.default_rng(29)
        cases = [(2.158304078e-314, 1.3914576058853814)]
        cases += zip((10.0 ** rng.uniform(-323, -307, 400)).tolist(), rng.uniform(1.0, 2.0, 400).tolist())
        for q, dof in cases:
            calls.clear()
            t = -student_quantile(q, LocScaleStudent(dof=dof, loc=0.0, scale2=1.0))
            assert len(calls) <= 4, (q, dof)
            if t < math.inf:
                # one unit of the target, or the tail's own relative error above 1e-311
                assert abs(student_tail(t, dof) - q) <= max(math.ulp(0.0), 1e-12 * q), (q, dof, t)
