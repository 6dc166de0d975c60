import io
import json

import numpy as np
import pytest

from cvcompare.dp import TrinomialSamples
from cvcompare.report import (
    EXPORT_POINTS,
    barycentric_csv,
    barycentric_points,
    density_data,
    dump_json,
)


def per_row_csv(points):
    """Reference writer: one formatted row per numpy point."""
    return "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in points)


def histogram_csv_loop(h):
    """Reference: the per-row writer that ``Histogram.to_csv`` replaced."""
    out = io.StringIO()
    out.write("lo,hi,count,density\n")
    for lo, hi, c, d in zip(h.lo, h.hi, h.count, h.density):
        out.write(f"{float(lo)!r},{float(hi)!r},{int(c)},{float(d)!r}\n")
    return out.getvalue()


def samples_of(rows):
    return TrinomialSamples(samples=np.asarray(rows, dtype=float))


class TestBarycentric:
    def test_vertices(self):
        pts = barycentric_points(samples_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert pts[0] == pytest.approx([0.0, 0.0])
        assert pts[1] == pytest.approx([0.5, 0.8660254], abs=1e-7)
        assert pts[2] == pytest.approx([1.0, 0.0])

    def test_centroid(self):
        pts = barycentric_points(samples_of([[1 / 3, 1 / 3, 1 / 3]]))
        assert pts[0] == pytest.approx([0.5, 0.2886751], abs=1e-7)

    def test_affine_midpoint(self):
        rng = np.random.default_rng(0)
        raw = rng.dirichlet([1, 1, 1], size=50)
        mid = 0.5 * (raw[:25] + raw[25:])
        pts = barycentric_points(samples_of(raw))
        mid_pts = barycentric_points(samples_of(mid))
        assert np.allclose(mid_pts, 0.5 * (pts[:25] + pts[25:]), atol=1e-12)

    def test_points_inside_triangle(self):
        rng = np.random.default_rng(1)
        pts = barycentric_points(samples_of(rng.dirichlet([0.5, 2, 1], size=500)))
        x, y = pts[:, 0], pts[:, 1]
        s3 = np.sqrt(3.0)
        assert np.all(y >= -1e-12)
        assert np.all(y <= s3 * x + 1e-12)
        assert np.all(y <= s3 * (1 - x) + 1e-12)

    def test_csv_round_trip(self):
        pts = barycentric_points(samples_of([[0.25, 0.5, 0.25]]))
        text = barycentric_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y"
        x, y = map(float, lines[1].split(","))
        assert (x, y) == (pts[0, 0], pts[0, 1])

    @pytest.mark.parametrize("n", [1, 7, EXPORT_POINTS])
    def test_csv_matches_per_row_writer_up_to_the_cap(self, n):
        pts = barycentric_points(samples_of(np.random.default_rng(n).dirichlet([0.3, 1, 2], size=n)))
        assert barycentric_csv(pts) == per_row_csv(pts)

    @pytest.mark.parametrize("n", [EXPORT_POINTS + 1, 30_007, 150_000])
    def test_csv_keeps_evenly_spaced_rows_beyond_the_cap(self, n):
        pts = barycentric_points(samples_of(np.random.default_rng(n).dirichlet([0.3, 1, 2], size=n)))
        text = barycentric_csv(pts)
        lines = text.split("\n")
        assert lines[-1] == "" and len(lines) - 1 == EXPORT_POINTS + 1
        kept = pts[np.arange(EXPORT_POINTS) * n // EXPORT_POINTS]
        assert text == per_row_csv(kept)
        back = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        assert np.array_equal(back, kept)


class TestDensityData:
    def test_constant_vector_single_unit_bin(self):
        h = density_data(np.full(17, 0.3), bins=10)
        assert len(h.count) == 1
        assert h.count[0] == 17
        assert h.density[0] * (h.hi[0] - h.lo[0]) == pytest.approx(1.0)

    def test_uniform_grid_equal_counts(self):
        x = np.linspace(0.0, 1.0, 1000, endpoint=False)
        h = density_data(x, bins=10)
        assert np.all(h.count == 100)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(2)
        h = density_data(rng.normal(size=5000), bins=37)
        assert float(np.sum(h.density * (h.hi - h.lo))) == pytest.approx(1.0, abs=1e-9)

    def test_histogram_mean_close_to_sample_mean(self):
        rng = np.random.default_rng(3)
        x = -0.0194 + 0.0158 * rng.standard_normal(100)
        h = density_data(x, bins=20)
        centers = 0.5 * (h.lo + h.hi)
        bin_mean = float(np.sum(centers * h.count) / np.sum(h.count))
        width = h.hi[0] - h.lo[0]
        assert abs(bin_mean - x.mean()) <= width

    def test_csv_format(self):
        h = density_data(np.array([0.0, 0.5, 1.0]), bins=2)
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "lo,hi,count,density"
        assert len(lines) == 3

    @pytest.mark.parametrize("bins", [1, 7, 30])
    def test_csv_matches_the_row_loop(self, bins):
        rng = np.random.default_rng(bins)
        for x in (rng.normal(-0.02, 0.016, size=100), rng.uniform(0.0, 1.0, size=3), np.full(17, 0.3)):
            h = density_data(x, bins=bins)
            assert h.to_csv() == histogram_csv_loop(h)

    def test_validation(self):
        with pytest.raises(ValueError):
            density_data(np.array([]), bins=3)
        with pytest.raises(ValueError):
            density_data(np.array([1.0]), bins=0)


class TestJson:
    def test_deterministic_serialisation(self):
        obj = {"b": 1.5, "a": [1, 2, {"z": True, "y": None}]}
        text1 = dump_json(obj)
        text2 = dump_json(obj)
        assert text1 == text2
        assert json.loads(text1) == obj
        assert text1.index('"a"') < text1.index('"b"')
