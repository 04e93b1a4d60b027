"""Independent oracles used by the test suite.

Every helper here recomputes a quantity by a route disjoint from the
library implementation it checks: observation loops instead of tensor
contractions, finite differences instead of analytic derivatives, support
enumeration instead of iterative solves, and dense sweeps instead of
continuation.  ``full_sweep`` is the epsilon grid sweep without the
row bypass: every cell solved.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from hmfront import epsilon as em
from hmfront.util import equal_weights


def loop_stats(w: np.ndarray, observations: np.ndarray) -> dict:
    """Portfolio moments by looping over observations (divisor T)."""
    t_count = observations.shape[0]
    series = observations @ w
    mu = sum(series) / t_count
    centered = [s - mu for s in series]
    out = {"mean": mu}
    for k, name in ((2, "variance"), (3, "skewness"), (4, "kurtosis")):
        out[name] = sum(c ** k for c in centered) / t_count
    return out


def fd_gradient(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def fd_hessian(grad, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[:, i] = (grad(x + e) - grad(x - e)) / (2 * h)
    return 0.5 * (out + out.T)


def qp_simplex_bruteforce(Q: np.ndarray, c: np.ndarray):
    """Global minimum of w'Qw + c'w on the simplex by support enumeration.

    Valid for convex Q: every support-restricted stationary point that is
    feasible is a candidate, and the optimum appears among them.
    """
    n = c.size
    best_val, best_w = np.inf, None
    for k in range(1, n + 1):
        for support in combinations(range(n), k):
            idx = list(support)
            kk = len(idx)
            kkt = np.zeros((kk + 1, kk + 1))
            kkt[:kk, :kk] = 2.0 * Q[np.ix_(idx, idx)]
            kkt[:kk, kk] = 1.0
            kkt[kk, :kk] = 1.0
            rhs = np.concatenate([-c[idx], [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            w_s = sol[:kk]
            if np.any(w_s < -1e-12):
                continue
            w = np.zeros(n)
            w[idx] = w_s
            val = float(w @ Q @ w + c @ w)
            if val < best_val - 1e-15 or (
                abs(val - best_val) <= 1e-15
                and best_w is not None
                and tuple(w) < tuple(best_w)
            ):
                best_val, best_w = val, w
    return best_val, best_w


def min_variance_at_mean(sigma: np.ndarray, mu: np.ndarray, target: float):
    """Frontier variance at a given mean via support enumeration."""
    n = mu.size
    best = None
    for k in range(1, n + 1):
        for support in combinations(range(n), k):
            idx = list(support)
            kk = len(idx)
            kkt = np.zeros((kk + 2, kk + 2))
            kkt[:kk, :kk] = 2.0 * sigma[np.ix_(idx, idx)]
            kkt[:kk, kk] = mu[idx]
            kkt[kk, :kk] = mu[idx]
            kkt[:kk, kk + 1] = 1.0
            kkt[kk + 1, :kk] = 1.0
            rhs = np.zeros(kk + 2)
            rhs[kk] = target
            rhs[kk + 1] = 1.0
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            w_s = sol[:kk]
            if np.any(w_s < -1e-12):
                continue
            v = float(w_s @ sigma[np.ix_(idx, idx)] @ w_s)
            if best is None or v < best:
                best = v
    return best


def simplex_sweep(n: int, resolution: int) -> np.ndarray:
    """All lattice points i/resolution on the (n-1)-simplex."""
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], resolution, n)
    return np.array(points, dtype=float) / resolution


def brute_nondominated_mask(points: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """O(k^2) loop: keep points without a strict componentwise dominator."""
    k = len(points)
    keep = np.ones(k, dtype=bool)
    for i in range(k):
        for j in range(k):
            if i != j and np.all(points[j] < points[i] - tol):
                keep[i] = False
                break
    return keep


def strictly_dominates_any(candidate: np.ndarray, point: np.ndarray) -> bool:
    return bool(np.all(candidate < point))


def relative_stationarity(terms) -> float:
    """Max-norm of the sum of the Lagrangian-gradient terms, relative to the
    largest term: near machine precision only when every multiplier is
    expressed in the units of the objective its terms are summed with."""
    terms = [np.asarray(t, dtype=float) for t in terms]
    total = np.sum(terms, axis=0)
    return float(np.max(np.abs(total)) / max(float(np.max(np.abs(t))) for t in terms))


def full_sweep(p, grid):
    """Solve every cell of an epsilon grid, each row from equal weights and
    each later cell warm-started from the row's last converged point.

    Returns the sorted archive and the solutions, one list per grid row.
    """
    n1, n2 = grid.N
    archive = em.FrontArchive(problem=p, grid=grid)
    rows = []
    for l1 in range(n1):
        x0 = equal_weights(p.n)
        sols = []
        for l2 in range(n2):
            eps = grid.centers[l1 * n2 + l2]
            sol = em._solve_cell(p, eps, grid.constrained, grid.minimized, x0)
            archive.record(eps, sol)
            sols.append(sol)
            if sol.converged:
                x0 = sol.x
        rows.append(sols)
    archive.sort()
    return archive, rows
