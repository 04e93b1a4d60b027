"""Multi-objective portfolio problem and the Taylor-utility scalarization.

Sense convention
----------------
The investor maximizes mean and skewness and minimizes variance and
kurtosis.  Internally every solver works on the fixed minimization form

    F(x) = (-mean, variance, -skewness, +kurtosis)

restricted to the chosen objective subset.  All scalarization parameters
expressed "in image space" refer to this minimization form unless a
function documents otherwise.

Utility scalarizations
----------------------
:func:`utility_optimize` multistarts the full quartic Taylor utility at one
risk preference.  :func:`iterative_utility_optimize` sweeps a decreasing
schedule of risk preferences with one warm-started mean-variance QP per
step.  That QP, ``min -mu'w + lambda1 w'Sigma w`` over the simplex, is the
package's one convex QP; the minimum-variance problem is its ``mu = 0``,
``lambda1 = 1`` case.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import nlp
from .errors import ParameterError
from .moments import MomentPoint, MomentSet, ObjectiveVector, _as_weight_vector
from .util import dirichlet_starts, equal_weights

__all__ = [
    "OBJECTIVE_NAMES",
    "OBJECTIVE_SENSES",
    "CONVEX_OBJECTIVES",
    "PortfolioMop",
    "UtilityParams",
    "utility_objective",
    "utility_gradient",
    "utility_hessian",
    "utility_optimize",
    "iterative_utility_optimize",
]

OBJECTIVE_NAMES = ("mean", "variance", "skewness", "kurtosis")

# multiplier taking the raw statistic into the minimization form
OBJECTIVE_SENSES = {"mean": -1.0, "variance": 1.0, "skewness": -1.0, "kurtosis": 1.0}
# objectives convex on the simplex in minimization form: -mean is linear, and
# variance and kurtosis are means of (c_t'w)^2 and (c_t'w)^4 over the centered
# returns c_t.  Each has its maximum at a vertex and its minimum from one solve.
CONVEX_OBJECTIVES = frozenset({"mean", "variance", "kurtosis"})


class _MemoSlot(threading.local):
    """One thread's memo: the last point read, its key and its arrays."""

    def __init__(self):
        self.key = None
        self.point = None
        self.arrays = {}


@dataclass(frozen=True)
class PortfolioMop:
    """Portfolio selection as a multi-objective problem over the simplex.

    ``objectives`` is an ordered subset of mean/variance/skewness/kurtosis;
    weights are nonnegative.

    :meth:`point` is the package's one moment evaluator: it returns the
    :class:`~hmfront.moments.MomentPoint` at w from a single-slot memo, and
    :meth:`objective_values`, :meth:`objective_jacobian`,
    :meth:`objective_hessians`, :meth:`raw_stats`, the utility objective and
    the PGP rows all read from it.  There is one slot per thread, so
    threads that share a problem do not evict each other.  The slot is
    keyed on the exact bytes of the weight vector and the point keeps its
    own copy of it, so a caller that reuses its buffer never reads a stale
    result.  Each objective method builds its array once per point and
    returns a copy, which the caller may change freely.  The slot is not a
    dataclass field: equality, hashing and ``replace`` ignore it, and a
    replaced problem starts empty.
    """

    moments: MomentSet
    objectives: tuple[str, ...] = ("mean", "variance", "skewness")

    def __post_init__(self) -> None:
        objs = tuple(self.objectives)
        if not 2 <= len(objs) <= 4:
            raise ParameterError("need between 2 and 4 objectives, got %d" % len(objs))
        if len(set(objs)) != len(objs):
            raise ParameterError("duplicate objective names: %r" % (objs,))
        for name in objs:
            if name not in OBJECTIVE_NAMES:
                raise ParameterError("unknown objective %r" % name)
        object.__setattr__(self, "objectives", objs)
        object.__setattr__(self, "_memo", _MemoSlot())

    @property
    def m(self) -> int:
        return len(self.objectives)

    @property
    def n(self) -> int:
        return self.moments.n

    def lower_bounds(self) -> np.ndarray:
        # -0.0, not 0.0: the sign of zero reaches clipped weights
        return np.full(self.n, -0.0)

    def point(self, w) -> MomentPoint:
        """The moment kernel at w, from this thread's memo slot."""
        vec = _as_weight_vector(w, self.moments.n)
        key = vec.tobytes()
        slot = self._memo
        if slot.key != key:
            slot.point = MomentPoint(vec, self.moments)
            slot.arrays = {}
            slot.key = key
        return slot.point

    def raw_stats(self, w) -> ObjectiveVector:
        """All four raw statistics at w, whatever the objectives."""
        pt = self.point(w)
        return ObjectiveVector(*(pt.value(name) for name in OBJECTIVE_NAMES))

    def _evaluate(self, w, kind: str) -> np.ndarray:
        """``kind`` ("value", "gradient" or "hessian") of every objective at
        w, in minimization form, memoized with :meth:`point`."""
        pt = self.point(w)
        arrays = self._memo.arrays
        out = arrays.get(kind)
        if out is None:
            fn = getattr(pt, kind)
            # the sense is +1 or -1, and -v is exactly -1.0 * v
            out = arrays[kind] = np.array(
                [fn(n) if OBJECTIVE_SENSES[n] > 0.0 else -fn(n) for n in self.objectives]
            )
        return out.copy()

    def objective_values(self, w) -> np.ndarray:
        """F(w): the selected objectives in minimization form."""
        return self._evaluate(w, "value")

    def objective_jacobian(self, w) -> np.ndarray:
        """m x n Jacobian of F."""
        return self._evaluate(w, "gradient")

    def objective_hessians(self, w) -> np.ndarray:
        """m x n x n stack of Hessians of F."""
        return self._evaluate(w, "hessian")


@dataclass(frozen=True)
class UtilityParams:
    """Risk-preference scalar of the exponential-utility Taylor objective.

    The polynomial coefficients are always derived from ``lam``:
    lambda1 = lam^2/2!, lambda2 = lam^3/3!, lambda3 = lam^4/4!.
    """

    lam: float

    def __post_init__(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ParameterError("risk preference lambda must be positive and finite")

    @property
    def lambda1(self) -> float:
        return self.lam ** 2 / 2.0

    @property
    def lambda2(self) -> float:
        return self.lam ** 3 / 6.0

    @property
    def lambda3(self) -> float:
        return self.lam ** 4 / 24.0


def utility_objective(w, p: PortfolioMop, u: UtilityParams) -> float:
    """Fourth-order expected-utility objective (minimization sense):

        -w'mu + lambda1 var - lambda2 skew + lambda3 kurt
    """
    pt = p.point(w)
    return (
        -pt.value("mean")
        + u.lambda1 * pt.value("variance")
        - u.lambda2 * pt.value("skewness")
        + u.lambda3 * pt.value("kurtosis")
    )


def utility_gradient(w, p: PortfolioMop, u: UtilityParams) -> np.ndarray:
    pt = p.point(w)
    return (
        -pt.gradient("mean")
        + u.lambda1 * pt.gradient("variance")
        - u.lambda2 * pt.gradient("skewness")
        + u.lambda3 * pt.gradient("kurtosis")
    )


def utility_hessian(w, p: PortfolioMop, u: UtilityParams) -> np.ndarray:
    pt = p.point(w)
    return (
        u.lambda1 * pt.hessian("variance")
        - u.lambda2 * pt.hessian("skewness")
        + u.lambda3 * pt.hessian("kurtosis")
    )


def _budget_row(x: np.ndarray, n: int, total: float = 1.0) -> float:
    """The budget row ``sum(x[:n]) - total``, over a variable vector whose
    first n entries are the weights (any trailing entries are auxiliary).
    The row is linear: its gradient is the constant
    :func:`_budget_gradient` and its Hessian is zero."""
    return float(np.add.reduce(x[:n]) - total)


def _budget_gradient(size: int, n: int) -> np.ndarray:
    """The gradient of :func:`_budget_row` over a variable vector of
    ``size`` entries."""
    grad = np.zeros(size)
    grad[:n] = 1.0
    return grad


def _budget_problem(x0, fun, jac, hess, lb) -> nlp.NlpProblem:
    """Minimize ``fun`` over the weights subject to the budget row alone."""
    budget_grad = _budget_gradient(len(x0), len(x0))

    def rows(x):
        return nlp.RowBlock(
            np.array([fun(x), _budget_row(x, x.size)]),
            lambda: np.vstack([jac(x), budget_grad]),
            lambda c: c[0] * hess(x),
        )

    return nlp.NlpProblem(rows=rows, x0=x0, n_eq=1, lb=lb)


def utility_optimize(
    p: PortfolioMop,
    u: UtilityParams,
    *,
    n_starts: int = 16,
    seed: int = 0,
) -> nlp.ScalarSolution:
    """Local multistart minimization of the full quartic utility objective."""
    if n_starts < 1:
        raise ParameterError("n_starts must be >= 1")
    n = p.n
    rng = np.random.default_rng(seed)
    starts = [equal_weights(n)] + dirichlet_starts(n, n_starts - 1, rng)
    problem = _budget_problem(
        equal_weights(n),
        lambda x: utility_objective(x, p, u),
        lambda x: utility_gradient(x, p, u),
        lambda x: utility_hessian(x, p, u),
        p.lower_bounds(),
    )
    result = nlp.solve_multistart(problem, starts)
    best = result.best
    return replace(
        best, weights=best.x.copy(), objective_values=p.objective_values(best.x)
    )


def _mean_variance_qp(
    p: PortfolioMop,
    lambda1: float,
    x0: np.ndarray,
    mu: np.ndarray | None = None,
) -> nlp.ScalarSolution:
    """The convex QP ``min -mu'w + lambda1 w'Sigma w`` over the simplex.

    ``mu`` defaults to the problem's mean vector; ``mu = 0`` with
    ``lambda1 = 1`` is the minimum-variance QP.
    """
    mu = p.moments.mu if mu is None else mu
    sigma = p.moments.sigma

    def fun(x):
        return float(-x @ mu + lambda1 * (x @ sigma @ x))

    def jac(x):
        return -mu + 2.0 * lambda1 * (sigma @ x)

    def hess(x):
        return 2.0 * lambda1 * sigma

    return nlp.solve(_budget_problem(x0, fun, jac, hess, p.lower_bounds()))


def iterative_utility_optimize(p: PortfolioMop, schedule) -> list[tuple[float, np.ndarray]]:
    """Decreasing-lambda sweep with skewness/kurtosis frozen per step.

    At each lambda the skewness and kurtosis terms are evaluated at the
    previous solution and held fixed as constants.  Constants shift the
    objective value but never the minimizer, so each step is one convex
    mean-variance QP over the simplex, warm-started from the previous
    lambda's weights (the first from equal weights).

    Returns ``(lambda, weights)`` for every lambda whose QP converged; a
    lambda whose QP did not converge is left out, and the next QP starts
    from the last converged weights.
    """
    schedule = [float(s) for s in schedule]
    if not schedule:
        raise ParameterError("schedule must be nonempty")
    if any(s <= 0 for s in schedule):
        raise ParameterError("all lambda values must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ParameterError("schedule must be strictly decreasing")
    w = equal_weights(p.n)
    path: list[tuple[float, np.ndarray]] = []
    for lam in schedule:
        sol = _mean_variance_qp(p, UtilityParams(lam=lam).lambda1, w)
        if sol.converged:
            w = sol.x
            path.append((lam, w.copy()))
    return path
