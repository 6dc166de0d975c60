"""Machine-readable report artifacts: simplex clouds, histograms, JSON.

Plot outputs are emitted as data files (CSV/JSON), never rendered images,
so they can be checked bit-exactly and consumed by any plotting toolchain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import _csv_text
from .dp import TrinomialSamples

__all__ = [
    "EXPORT_POINTS",
    "TRIANGLE_VERTICES",
    "Histogram",
    "barycentric_points",
    "barycentric_csv",
    "density_data",
    "dump_json",
]

# a scatter plot cannot show more points than this; probabilities are
# computed from every draw, never from the export
EXPORT_POINTS = 10_000

# left, top (rope), right corners of the plotting triangle
TRIANGLE_VERTICES = np.array([
    [0.0, 0.0],
    [0.5, np.sqrt(3.0) / 2.0],
    [1.0, 0.0],
])


def barycentric_points(samples: TrinomialSamples) -> np.ndarray:
    """Map theta triples to 2-d points inside the plotting triangle.

    The left vertex collects certainty for the left outcome, the apex the
    rope, the right vertex the right outcome.
    """
    return samples.samples @ TRIANGLE_VERTICES


def barycentric_csv(points: np.ndarray) -> str:
    """CSV (``x,y`` header) of at most ``EXPORT_POINTS`` plotting points.

    Longer inputs are thinned to the rows ``arange(EXPORT_POINTS) * n //
    EXPORT_POINTS``: evenly spaced, so no random draw is spent and the
    seed of a run fixes the file.  Each coordinate is written as the
    shortest ``repr`` that reads back to the same float.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n > EXPORT_POINTS:
        points = points[np.arange(EXPORT_POINTS) * n // EXPORT_POINTS]
    return _csv_text(["x", "y"], points.T.tolist())


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram whose normalized densities integrate to one."""

    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray
    density: np.ndarray

    def to_csv(self) -> str:
        columns = [self.lo.tolist(), self.hi.tolist(), self.count.tolist(), self.density.tolist()]
        return _csv_text(["lo", "hi", "count", "density"], columns)


def density_data(x, bins: int) -> Histogram:
    """Histogram of ``x`` over ``bins`` equal-width bins spanning its range.

    A constant vector yields a single unit-width bin holding all the mass.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot build a histogram from no data")
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    xmin, xmax = float(x.min()), float(x.max())
    if xmin == xmax:
        edges = np.array([xmin - 0.5, xmin + 0.5])
        counts = np.array([x.size])
    else:
        edges = np.linspace(xmin, xmax, bins + 1)
        counts, _ = np.histogram(x, bins=edges)
    widths = np.diff(edges)
    density = counts / (x.size * widths)
    return Histogram(lo=edges[:-1], hi=edges[1:], count=counts, density=density)


def dump_json(obj) -> str:
    """Serialize deterministically (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
