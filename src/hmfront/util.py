"""Small shared numerical helpers: simplex geometry, starts, ordered map."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import null_space


def project_to_simplex(v: np.ndarray, lower: float = 0.0) -> np.ndarray:
    """Euclidean projection onto {w : sum w = 1, w >= lower}."""
    v = np.asarray(v, dtype=float)
    n = v.size
    total = 1.0 - n * lower
    if total < 0:
        raise ValueError("lower bound %r infeasible for %d assets" % (lower, n))
    u = v - lower
    s = np.sort(u)[::-1]
    css = np.cumsum(s)
    ks = np.arange(1, n + 1)
    cond = s * ks > (css - total)
    rho = int(np.nonzero(cond)[0][-1])
    theta = (css[rho] - total) / (rho + 1.0)
    return np.maximum(u - theta, 0.0) + lower


def equal_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def simplex_vertices(n: int) -> list[np.ndarray]:
    return [np.eye(n)[i] for i in range(n)]


def dirichlet_starts(n: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Flat-Dirichlet samples on the simplex, deterministic given the rng state."""
    return [rng.dirichlet(np.ones(n)) for _ in range(count)]


@lru_cache(maxsize=64)
def sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal basis of {v in R^k : sum v = 0} as a k x (k-1) matrix."""
    if k < 2:
        return np.zeros((k, 0))
    basis = null_space(np.ones((1, k)))
    basis = np.ascontiguousarray(basis)
    basis.flags.writeable = False
    return basis


def parallel_map(fn, items, workers: int = 1) -> list:
    """``[fn(item) for item in items]``: the drivers' one fan-out point.

    ``workers`` is accepted and ignored; every run is serial.
    """
    return [fn(item) for item in items]


def lexicographic_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x < y:
            return True
        if x > y:
            return False
    return False
