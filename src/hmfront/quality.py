"""Front-approximation quality measures and the dominance filter.

All distances are Euclidean in the minimization image space.  Coverage
error is the directed Hausdorff distance from a dense reference front to
the approximation; uniformity is the minimum pairwise spacing; cardinality
counts the filtered front.  Hypervolume is deliberately not provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeasureUndefinedError, ShapeError

__all__ = [
    "QualityReport",
    "dominance_filter",
    "dominance_mask",
    "distances",
    "nearest_gaps",
    "uniformity",
    "coverage_error",
    "quality_report",
]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ShapeError("expected a 2-D array of image points")
    return pts


def dominance_mask(points, tol: float = 0.0) -> np.ndarray:
    """Boolean mask of points kept by the strict-dominance filter.

    A point is removed when some other point is strictly better in every
    coordinate by more than ``tol`` (minimization sense).
    """
    pts = _as_points(points)
    k = len(pts)
    if k == 0:
        return np.zeros(0, dtype=bool)
    strictly_better = (pts[:, None, :] < pts[None, :, :] - tol).all(axis=2)
    return ~strictly_better.any(axis=0)


def dominance_filter(points, tol: float = 0.0) -> np.ndarray:
    """Maximal subset with no strict componentwise dominator, stable order."""
    pts = _as_points(points)
    return pts[dominance_mask(pts, tol)]


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``a`` and of ``b``."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def nearest_gaps(pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its nearest other point."""
    d = distances(pts, pts)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def uniformity(front) -> float:
    """Minimum pairwise Euclidean distance of the front image."""
    pts = _as_points(front)
    if len(pts) < 2:
        raise MeasureUndefinedError("uniformity needs at least 2 points")
    return float(nearest_gaps(pts).min())


def coverage_error(front, reference) -> float:
    """Directed Hausdorff distance: max over reference points of the
    distance to the nearest front point."""
    f = _as_points(front)
    r = _as_points(reference)
    if len(f) == 0 or len(r) == 0:
        raise MeasureUndefinedError("coverage error needs nonempty point sets")
    return float(distances(r, f).min(axis=1).max())


@dataclass(frozen=True)
class QualityReport:
    coverage_error: float
    uniformity: float
    cardinality: int
    dominated_count: int

    def as_dict(self) -> dict:
        return {
            "coverage_error": self.coverage_error,
            "uniformity": self.uniformity,
            "cardinality": self.cardinality,
            "dominated_count": self.dominated_count,
        }


def quality_report(front, reference, tol: float = 0.0) -> QualityReport:
    """Filter the front, then measure it against the reference."""
    pts = _as_points(front)
    kept = dominance_mask(pts, tol)
    filtered = pts[kept]
    if len(filtered) < 2:
        raise MeasureUndefinedError("need at least 2 nondominated points")
    return QualityReport(
        coverage_error=coverage_error(filtered, reference),
        uniformity=uniformity(filtered),
        cardinality=int(len(filtered)),
        dominated_count=int(len(pts) - len(filtered)),
    )
