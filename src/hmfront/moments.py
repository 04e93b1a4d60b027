"""Sample moment tensors and portfolio-level moment statistics.

Conventions used throughout the package
---------------------------------------
* All central moments are estimated with the **population divisor T** (the
  observation count), never ``T - 1``.  Mixing divisors across orders would
  make the variance, coskewness and cokurtosis estimators mutually
  inconsistent, so the population convention is applied uniformly.
* The coskewness tensor is stored as an ``n x n**2`` matrix and the
  cokurtosis tensor as ``n x n**3``, flattened column-block-wise so that
  portfolio moments are plain matrix products against Kronecker powers of
  the weight vector::

      skewness = w @ m3 @ kron(w, w)
      kurtosis = w @ m4 @ kron(w, kron(w, w))

  The Kronecker powers are formed as outer products,
  ``outer(w, w).ravel()`` and ``outer(kron2, w).ravel()``, which hold the
  same products bit for bit as ``np.kron`` at a fraction of its cost.
  :class:`MomentPoint` forms each contraction (``m3 @ kron2``,
  ``m4 @ kron3``) once per point and shares it between a statistic and its
  gradient; Hessians are built only on request.

* Both tensors are stored fully symmetrised (every index permutation maps
  to the same stored value), which makes the analytic gradient and Hessian
  prefactors (3x, 6x, 4x, 12x) exact rather than approximate.
* Portfolio skewness and kurtosis are **raw central moments**.  They are
  never standardised by powers of the standard deviation; any standardised
  figures are derived quantities for display only.

Memory for the flattened tensors grows as O(n^3) and O(n^4), which is fine
for the intended universe sizes (n up to roughly 30).  For larger universes
use :func:`portfolio_stats_from_returns`, which loops over observations and
never materialises the tensors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientDataError, ShapeError

__all__ = [
    "ReturnsMatrix",
    "MomentSet",
    "Weights",
    "ObjectiveVector",
    "StatsDerivatives",
    "MomentPoint",
    "load_returns_csv",
    "compute_moments",
    "portfolio_stats",
    "portfolio_stats_from_returns",
    "stats_gradients",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ReturnsMatrix:
    """Per-period simple returns for a universe of assets.

    ``observations`` is a T x n matrix of dimensionless return fractions;
    row t holds the period-t return of every asset.
    """

    assets: tuple[str, ...]
    observations: np.ndarray

    def __post_init__(self) -> None:
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2:
            raise ShapeError("observations must be a T x n matrix, got ndim=%d" % obs.ndim)
        t_count, n = obs.shape
        if n < 1:
            raise DataError("need at least one asset column")
        if t_count < 2:
            raise InsufficientDataError(
                "need at least 2 observations, got %d" % t_count
            )
        if len(self.assets) != n:
            raise ShapeError(
                "asset list length %d does not match %d columns" % (len(self.assets), n)
            )
        if len(set(self.assets)) != len(self.assets):
            raise DataError("asset identifiers must be unique")
        bad = ~np.isfinite(obs)
        if bad.any():
            t, j = np.argwhere(bad)[0]
            raise DataError(
                "non-finite return at row %d, column %d (asset %s)"
                % (int(t) + 1, int(j) + 1, self.assets[int(j)])
            )
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "observations", _readonly(obs))

    @property
    def T(self) -> int:
        return self.observations.shape[0]

    @property
    def n(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class MomentSet:
    """Sample moments of a return universe.

    ``m3`` (n x n^2) and ``m4`` (n x n^3) are the flattened, fully
    symmetrised coskewness and cokurtosis tensors described in the module
    docstring.  Instances are immutable and safe to share across threads.
    """

    mu: np.ndarray
    sigma: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    T: int
    n: int

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        m3 = np.asarray(self.m3, dtype=float)
        m4 = np.asarray(self.m4, dtype=float)
        n = self.n
        if mu.shape != (n,):
            raise ShapeError("mu must have shape (%d,)" % n)
        if sigma.shape != (n, n):
            raise ShapeError("sigma must have shape (%d, %d)" % (n, n))
        if m3.shape != (n, n * n):
            raise ShapeError("m3 must have shape (%d, %d)" % (n, n * n))
        if m4.shape != (n, n ** 3):
            raise ShapeError("m4 must have shape (%d, %d)" % (n, n ** 3))
        scale = max(np.abs(sigma).max(), 1e-300)
        if np.abs(sigma - sigma.T).max() > 1e-12 * scale:
            raise DataError("covariance matrix is not symmetric")
        trace = float(np.trace(sigma))
        min_eig = float(np.linalg.eigvalsh(sigma)[0]) if n > 0 else 0.0
        if min_eig < -1e-10 * max(trace, 1e-300):
            raise DataError("covariance matrix is not positive semidefinite")
        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "sigma", _readonly(sigma))
        object.__setattr__(self, "m3", _readonly(m3))
        object.__setattr__(self, "m4", _readonly(m4))

    def m3_tensor(self) -> np.ndarray:
        """Coskewness as an (n, n, n) array view."""
        return self.m3.reshape(self.n, self.n, self.n)

    def m4_tensor(self) -> np.ndarray:
        """Cokurtosis as an (n, n, n, n) array view."""
        return self.m4.reshape(self.n, self.n, self.n, self.n)


@dataclass(frozen=True)
class Weights:
    """Portfolio allocation vector on the (possibly short-extended) simplex."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise ShapeError("weights must be a 1-D vector")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise DataError("weights must sum to 1 within 1e-10, got %r" % float(w.sum()))
        object.__setattr__(self, "w", _readonly(w))

    def check_short_bound(self, short_bound: float = 0.0) -> None:
        if float(self.w.min()) < -short_bound - 1e-12:
            raise DataError(
                "weight %r below the short-selling bound -%r"
                % (float(self.w.min()), float(short_bound))
            )


@dataclass(frozen=True)
class ObjectiveVector:
    """Raw moment statistics of a single portfolio.

    Skewness and kurtosis are raw central moments (see module docstring).
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float

    def as_array(self) -> np.ndarray:
        return np.array([self.mean, self.variance, self.skewness, self.kurtosis])


@dataclass(frozen=True)
class StatsDerivatives:
    """Gradients and Hessians of the four portfolio moment statistics."""

    grad_mean: np.ndarray
    grad_variance: np.ndarray
    grad_skewness: np.ndarray
    grad_kurtosis: np.ndarray
    hess_mean: np.ndarray
    hess_variance: np.ndarray
    hess_skewness: np.ndarray
    hess_kurtosis: np.ndarray

    def gradient(self, name: str) -> np.ndarray:
        return getattr(self, "grad_" + name)

    def hessian(self, name: str) -> np.ndarray:
        return getattr(self, "hess_" + name)


def load_returns_csv(path) -> ReturnsMatrix:
    """Read a returns CSV: header row of asset identifiers, then one row of
    decimal return fractions per period.  Comma separated, UTF-8."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataError("empty returns file: %s" % path)
    assets = tuple(cell.strip() for cell in rows[0])
    data = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(assets):
            raise DataError(
                "row %d has %d fields, expected %d" % (r, len(row), len(assets))
            )
        parsed = []
        for c, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    "row %d, column %d (%s): cannot parse %r as a return"
                    % (r, c, assets[c - 1], cell)
                ) from None
        data.append(parsed)
    if len(data) < 2:
        raise InsufficientDataError(
            "need at least 2 observation rows, got %d" % len(data)
        )
    return ReturnsMatrix(assets=assets, observations=np.array(data, dtype=float))


def _symmetrize3(t3: np.ndarray) -> np.ndarray:
    # Replace every entry by its canonical (sorted-index) representative so
    # index symmetry holds exactly, not just to rounding.
    n = t3.shape[0]
    idx = np.indices((n, n, n)).reshape(3, -1)
    idx = np.sort(idx, axis=0)
    return t3[idx[0], idx[1], idx[2]].reshape(n, n, n)


def _symmetrize4(t4: np.ndarray) -> np.ndarray:
    n = t4.shape[0]
    idx = np.indices((n, n, n, n)).reshape(4, -1)
    idx = np.sort(idx, axis=0)
    return t4[idx[0], idx[1], idx[2], idx[3]].reshape(n, n, n, n)


def compute_moments(returns: ReturnsMatrix) -> MomentSet:
    """Estimate mean, covariance, coskewness and cokurtosis from returns.

    All central moments use divisor T.  The flattened tensor layouts match
    the Kronecker contractions used by :func:`portfolio_stats`.
    """
    if returns.T < 2:
        raise InsufficientDataError("need at least 2 observations")
    obs = returns.observations
    t_count, n = obs.shape
    mu = obs.mean(axis=0)
    x = obs - mu
    sigma = x.T @ x / t_count
    sigma = 0.5 * (sigma + sigma.T)
    t3 = np.einsum("ti,tj,tk->ijk", x, x, x, optimize=True) / t_count
    t4 = np.einsum("ti,tj,tk,tl->ijkl", x, x, x, x, optimize=True) / t_count
    m3 = _symmetrize3(t3).reshape(n, n * n)
    m4 = _symmetrize4(t4).reshape(n, n ** 3)
    return MomentSet(mu=mu, sigma=sigma, m3=m3, m4=m4, T=t_count, n=n)


def _as_weight_vector(w, n: int) -> np.ndarray:
    vec = w.w if isinstance(w, Weights) else np.asarray(w, dtype=float)
    if vec.shape != (n,):
        raise ShapeError("weight vector has shape %r, expected (%d,)" % (vec.shape, n))
    return vec


class MomentPoint:
    """The moment kernel at one weight vector.

    Holds its own copy of the weights, so later changes to the caller's
    buffer do not reach it.  The Kronecker powers and the contractions
    ``m3 @ (w (x) w)`` and ``m4 @ (w (x) w (x) w)`` are formed on first use
    and shared between a statistic (``w @ .``) and its gradient (``3 .``,
    ``4 .``).  Hessians are formed only by :meth:`hessian`.  Every returned
    array is new.
    """

    __slots__ = ("w", "m", "_kron2", "_folded")

    def __init__(self, w, m: MomentSet):
        self.w = np.array(_as_weight_vector(w, m.n))
        self.m = m
        self._kron2 = None
        self._folded: dict[str, np.ndarray] = {}

    def _fold(self, name: str) -> np.ndarray:
        """``m3 @ kron2`` for skewness, ``m4 @ kron3`` for kurtosis."""
        out = self._folded.get(name)
        if out is None:
            w = self.w
            if self._kron2 is None:
                self._kron2 = np.outer(w, w).ravel()
            if name == "skewness":
                out = self.m.m3 @ self._kron2
            else:
                out = self.m.m4 @ np.outer(self._kron2, w).ravel()
            self._folded[name] = out
        return out

    def value(self, name: str) -> float:
        w, m = self.w, self.m
        if name == "mean":
            return float(w @ m.mu)
        if name == "variance":
            return float(w @ m.sigma @ w)
        return float(w @ self._fold(name))

    def gradient(self, name: str) -> np.ndarray:
        if name == "mean":
            return self.m.mu.copy()
        if name == "variance":
            return 2.0 * (self.m.sigma @ self.w)
        return (3.0 if name == "skewness" else 4.0) * self._fold(name)

    def hessian(self, name: str) -> np.ndarray:
        """hess mean = 0, variance = 2 sigma, skewness = 6 fold(m3, w),
        kurtosis = 12 fold(m4, w (x) w)."""
        m, w = self.m, self.w
        if name == "mean":
            return np.zeros((m.n, m.n))
        if name == "variance":
            return 2.0 * m.sigma
        if name == "skewness":
            return 6.0 * np.einsum("ijk,k->ij", m.m3_tensor(), w)
        return 12.0 * np.einsum("ijkl,k,l->ij", m.m4_tensor(), w, w)


_STATS = ("mean", "variance", "skewness", "kurtosis")


def portfolio_stats(w, m: MomentSet) -> ObjectiveVector:
    """Mean, variance, skewness and kurtosis of a portfolio.

    ``w`` may be a :class:`Weights` instance or a plain array of length n.
    """
    point = MomentPoint(w, m)
    return ObjectiveVector(*(point.value(name) for name in _STATS))


def portfolio_stats_from_returns(w, returns: ReturnsMatrix) -> ObjectiveVector:
    """Observation-loop evaluator: no moment tensors are materialised.

    Intended for universes too large for the O(n^4) tensor storage; agrees
    with :func:`portfolio_stats` on the same data.
    """
    vec = _as_weight_vector(w, returns.n)
    series = returns.observations @ vec
    centered = series - series.mean()
    return ObjectiveVector(
        mean=float(series.mean()),
        variance=float(np.mean(centered ** 2)),
        skewness=float(np.mean(centered ** 3)),
        kurtosis=float(np.mean(centered ** 4)),
    )


def stats_gradients(w, m: MomentSet) -> StatsDerivatives:
    """Analytic gradients and Hessians of the four moment statistics.

    The symmetrised tensor layout makes these exact:

    * grad variance = 2 sigma w,    hess = 2 sigma
    * grad skewness = 3 m3 (w (x) w),   hess = 6 fold(m3, w)
    * grad kurtosis = 4 m4 (w (x) w (x) w),   hess = 12 fold(m4, w (x) w)

    where fold contracts the trailing index (or index pair) with w.
    """
    point = MomentPoint(w, m)
    grads = {"grad_" + name: point.gradient(name) for name in _STATS}
    hessians = {"hess_" + name: point.hessian(name) for name in _STATS}
    return StatsDerivatives(**grads, **hessians)
