"""Constrained smooth optimization backend.

Every scalar subproblem in the package funnels through :func:`solve`:
minimize a differentiable objective subject to equality constraints
``h(x) = 0``, inequality constraints ``g(x) >= 0`` and box bounds.

A problem gives its objective and constraints as one row block, the
interface of interior-point codes such as IPOPT (Wachter and Biegler 2006):
``problem.rows(x)`` is a :class:`RowBlock` holding every row's value at x,
row 0 the objective, then the ``n_eq`` equality rows, then the ``n_ineq``
inequality rows.  Its Jacobian is computed on first use, because line-search
trial points need values only, and ``hessian(c)`` gives the weighted sum
``sum_i c_i * Hessian(row_i)``, so the Hessian of the Lagrangian is one call.
A block reads its inputs once per point: the SQP asks it for values,
Jacobian and Hessian, and feasibility restoration builds its own block from
the problem's.

The local solve is :func:`minimize`, a small dense active-set SQP in numpy
(Nocedal & Wright 2006, ch. 18).  Each iteration solves one QP whose Hessian
is the Hessian of the Lagrangian, with an inertia correction where it is not
positive definite on the QP's working set (skewness makes it indefinite).
The QP works on one ordered list of candidate rows, each an inequality
``g(x) >= 0``: the problem's inequality rows, then a row ``x_k - lb_k >= 0``
(gradient ``e_k``) for each finite ``lb_k``, then a row ``ub_k - x_k >= 0``
(gradient ``-e_k``) for each finite ``ub_k``, both in increasing ``k``, with
the equality rows always held.  It is solved by the dual active-set method
of Goldfarb and Idnani, warm-started from the previous QP's working set, and
its multipliers are the reported Lagrange multipliers.  Steps are accepted
by backtracking on the l1 exact penalty merit.  A run stops once the
stationarity residual of

    L(x) = f(x) - sum_i mu_i g_i(x) + sum_j lambda_j h_j(x),  mu_i >= 0

is below ``_STOP_KKT`` (1e-10) and the constraint violation below
``_STOP_FEAS`` (1e-11).  That sign convention is used everywhere in the
package: inequality multipliers are reported nonnegative for constraints
written ``g(x) >= 0``, and equality multipliers refer to the constraint
exactly as written.

An iteration is built for tiny problems, where numpy's per-call cost, not
arithmetic, is the price.  A run lays out its QP rows once: one
preallocated matrix holds the equality rows, then the candidate rows, with
the constant bound rows written at the start and the block's Jacobian
copied in above them once per iteration.  A working set is a list of
indices into that matrix, not a stack of rows.  An iterate reads its row
values out once, as Python floats: the objective, the largest and the summed
violation.  A row whose value is not finite counts as violated by ``inf``,
so a NaN row is never taken for a satisfied one.  The stopping, merit and
line-search tests then run on Python floats.  The bookkeeping changes no
arithmetic: every product, ``solve``, ``cholesky`` and ``lstsq`` takes the
matrix that stacking the rows afresh would give, so iterates are the same
to the last bit.

A run that ends above the infeasibility threshold is followed by feasibility
restoration from the problem's ``x0``: the same SQP minimizes the summed
squared violation of the violated rows under the bounds alone, and a
restored point is solved again.  A ray that misses a non-convex image set
ends its first run on its own, long before the iteration cap: when no step
reduces the merit, or after ``_MAX_FEASIBILITY_STEPS`` feasibility steps in
a row on inconsistent linearized rows.

Each SQP run stops after ``_MAX_ITER`` (300) iterations, a restoration run
after ``_RESTORE_MAX_ITER`` (200); rows within ``_ACTIVE_TOL`` (1e-7) of
their bound start the first QP's working set; and a point still violating
the constraints by more than ``_INFEASIBLE_TOL`` (1e-7) after restoration
is infeasible.  A solve has converged when its final point is stationary
within ``_TOL_KKT`` (1e-8) and feasible within ``_TOL_FEAS`` (1e-9).  A
solve takes no settings: these tolerances decide only its status and
message, and no caller wants other values.  Solves are pure functions of
their inputs, so identical problems produce bit-identical solutions.  A
solve also reports which inequality rows were inert, so that a caller can
tell which looser problems it has solved already: raising an inert row's
value at every point gives the same solve to the last bit (see
:func:`minimize`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MultistartError, ParameterError
from .util import lexicographic_less

__all__ = [
    "NlpProblem",
    "RowBlock",
    "SolveStatus",
    "ScalarSolution",
    "best_converged",
    "solve",
    "solve_multistart",
]

logger = logging.getLogger(__name__)

_MAX_ITER = 300  # SQP iterations per run
_RESTORE_MAX_ITER = 200  # SQP iterations per restoration run
_ACTIVE_TOL = 1e-7  # slack below which a row starts the first working set
# violation above which a point is declared infeasible after restoration
_INFEASIBLE_TOL = 1e-7
_MAX_FEASIBILITY_STEPS = 10  # consecutive feasibility steps before a run gives up
# a run stops once the QP's multipliers give a stationarity and
# complementarity residual below _STOP_KKT and the violation is below
# _STOP_FEAS, well inside the tolerances that decide a solve's status
_STOP_KKT = 1e-10
_STOP_FEAS = 1e-11
_TOL_KKT = 1e-8  # largest stationarity residual of a converged solve
_TOL_FEAS = 1e-9  # largest violation of a converged solve
# least QP curvature, relative to max(1, max|Hessian of the Lagrangian|)
_CURVATURE = 1e-8
_ARMIJO = 1e-4  # sufficient-decrease fraction of the merit's slope
_FINSLER = 1e4  # weight, relative to max|w|, of the working rows in the Finsler shift
_MIN_STEP = 1e-10  # shortest step fraction the line search tries
_BLIND_SLOPE = 1e-14  # merit slope, relative to 1 + |f| + rho, below rounding
_QP_TOL = 1e-13  # violation of a linearized row the QP tolerates
_QP_MAX_STEPS = 50  # QP working-set changes, plus two per row
_PENALTY_WEIGHT = 1e4  # relative weight of the violation in the penalty QP


class RowBlock:
    """Twice-differentiable rows evaluated together at one point.

    ``values`` holds every row's value.  ``jacobian``, their gradients as the
    rows of a matrix, is computed from ``jacobian_fn()`` on first use, and
    ``hessian(c)`` returns ``sum_i c[i] * Hessian(row_i)``; the SQP rewrites
    ``c`` in place between calls, so a block must not keep it.  The rows of
    a problem's block are its objective, then its equality rows, then its
    inequality rows ``g(x) >= 0``.
    """

    __slots__ = ("values", "jacobian_fn", "hessian", "_jacobian")

    def __init__(
        self,
        values: np.ndarray,
        jacobian_fn: Callable[[], np.ndarray],
        hessian: Callable[[np.ndarray], np.ndarray],
    ):
        self.values = values
        self.jacobian_fn = jacobian_fn
        self.hessian = hessian
        self._jacobian = None

    @property
    def jacobian(self) -> np.ndarray:
        if self._jacobian is None:
            self._jacobian = self.jacobian_fn()
        return self._jacobian


@dataclass(frozen=True)
class NlpProblem:
    """Smooth NLP description with exact derivatives: ``rows(x)`` is the
    :class:`RowBlock` of the objective, the ``n_eq`` equality rows ``h(x) =
    0`` and the ``n_ineq`` inequality rows ``g(x) >= 0``, in that order."""

    rows: Callable[[np.ndarray], RowBlock]
    x0: np.ndarray
    n_eq: int = 0
    n_ineq: int = 0
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1:
            raise ParameterError("x0 must be a vector")
        if not np.isfinite(x0).all():
            raise ParameterError("x0 must be finite")
        n = x0.size
        lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise ParameterError("bounds must match x0 length")
        if (lb > ub).any():
            raise ParameterError("inconsistent bounds: lb > ub")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def n(self) -> int:
        return self.x0.size


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ScalarSolution:
    """Result of one scalar solve, including recovered multipliers.

    ``eq_multipliers``/``ineq_multipliers`` align with the constraint lists
    of the problem (inactive inequalities carry multiplier 0).  Fields
    ``weights``/``aux_value``/``objective_values`` are filled by the
    scalarization layer when the variable vector has portfolio structure.
    ``n_iter`` totals the SQP iterations of the solve: when feasibility
    restoration ran, it counts both SQP runs, not only the last.
    ``inert_rows`` holds one bool per inequality row: whether the row took
    no part in the solve (see :func:`minimize`), so that raising its value
    at every point would give the same solve to the last bit.  It is
    ``None`` for a solution that no SQP run produced.
    """

    x: np.ndarray
    value: float
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    lb_multipliers: np.ndarray
    ub_multipliers: np.ndarray
    status: SolveStatus
    kkt_residual: float
    constraint_violation: float
    comp_slackness: float
    n_iter: int
    message: str = ""
    inert_rows: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    aux_value: Optional[float] = None
    objective_values: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def _violation(problem: NlpProblem, x: np.ndarray) -> float:
    worst = Iterate(x, problem.rows(x), problem.n_eq).violation
    worst = max(worst, float(np.max(problem.lb - x, initial=0.0)))
    return max(worst, float(np.max(x - problem.ub, initial=0.0)))


class Iterate:
    """One evaluated point of an SQP run: its row block, with the objective
    and the violation of the constraint rows read out once, as Python
    floats, for the line search and the convergence test.  A row whose
    value is not finite counts as violated by ``inf``.  Bounds always hold
    at an iterate."""

    __slots__ = ("x", "rows", "fun", "violation", "l1_violation")

    def __init__(self, x: np.ndarray, rows: RowBlock, p: int):
        """The iterate of the block ``rows`` at ``x``, whose rows after the
        objective are ``p`` equality rows, then inequality rows."""
        values = rows.values.tolist()
        cons = values[1:]
        # |v| of each equality row and -v of each inequality row below zero,
        # inf for a row that is not finite (written so that -0.0 gives 0.0,
        # as abs does)
        off = [v if v > 0.0 else 0.0 - v if v <= 0.0 else math.inf for v in cons[:p]]
        off += [-v if v < 0.0 else math.inf for v in cons[p:] if not 0.0 <= v < math.inf]
        self.x = x
        self.rows = rows
        self.fun = values[0]
        self.violation = max(off, default=0.0)  # largest constraint violation
        self.l1_violation = sum(off)  # summed violation, the merit's penalty term


@dataclass(frozen=True)
class SqpResult:
    """Outcome of one :func:`minimize` run.

    The multipliers are those of the final QP's working set: one per
    inequality row, one per variable for its lower and for its upper bound
    (nonnegative, 0 off the working set and for an infinite bound), and
    ``eq_multipliers`` for the equality constraints as written.  They come
    from the last QP that gave multipliers, and the residuals are theirs at
    ``x`` (infinite when the last step was a feasibility step).
    ``inert_rows`` marks each inequality row that took no part in the run
    (see :func:`minimize`).
    """

    x: np.ndarray
    fun: float
    violation: float
    nit: int
    message: str
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    lb_multipliers: np.ndarray
    ub_multipliers: np.ndarray
    kkt_residual: float  # stationarity of the multipliers at x
    comp_slackness: float  # largest |multiplier * row value| at x
    inert_rows: np.ndarray


def _kkt_solve(b, rows, rhs):
    """Solve ``[[b, rows'], [rows, 0]] [y; v] = rhs`` and return ``(y, v)``."""
    n, k = b.shape[0], rows.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = b
    kkt[:n, n:] = rows.T
    kkt[n:, :n] = rows
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def _amax(v) -> float:
    """``max |v|``, 0 for an empty array; a NaN entry gives NaN."""
    return float(np.maximum.reduce(abs(v), axis=None, initial=0.0))


def _amin(v) -> float:
    """``min v``, ``inf`` for an empty vector; a NaN entry gives NaN."""
    return float(np.minimum.reduce(v, initial=math.inf))


def _independent(stacked, p, rows) -> list:
    """The rows ``rows`` (indices into ``stacked``, after its ``p`` equality
    rows) that keep the equality rows and the kept ones of full row rank,
    taken greedily in order."""
    kept = list(range(p))
    for j in rows:
        block = stacked[kept + [j]]
        if np.linalg.matrix_rank(block) == block.shape[0]:
            kept.append(j)
    return kept


def _qp(b, g, rows, rhs, p, start, low=None):
    """The dual active-set QP method of Goldfarb and Idnani (1983).

    Minimizes ``0.5 d'b d + g'd`` subject to ``rows[:p] d = rhs[:p]`` and
    ``rows[p:] d >= rhs[p:]``, for positive definite ``b``.  The working set
    starts from the inequality rows ``start`` (indices into ``rows[p:]``,
    independent together with the equality rows), dropping the one of most
    negative multiplier until every multiplier is nonnegative; each violated
    row is then added, dropping rows whose multipliers reach zero on the way.
    A working set is a list of row indices, and its rows are taken from
    ``rows`` by that list.

    Returns ``(d, u, active)``, with ``u`` the multipliers of the equality
    rows, then of the inequality rows ``active`` (nonnegative), so that ``g +
    b d = rows[:p]'u[:p] + rows[p:][active]'u[p:]``; or ``None`` when the
    constraints are inconsistent (or the iteration limit is reached).

    The inequality rows outside the working set enter only through their
    slacks ``rows[p:] d - rhs[p:]``, at each step the method tests and at
    the step it returns.  ``low``, where given, is lowered in place to the
    least slack each row had at any of them.
    """
    ae, be = rows[:p], rhs[:p]
    ai, bi = rows[p:], rhs[p:]
    eq = list(range(p))
    active = list(start)
    bscale = max(1.0, _amax(b))
    minus_g = -g

    def eqp():
        sel = eq + [p + j for j in active]
        d, v = _kkt_solve(b, rows[sel], np.concatenate((minus_g, rhs[sel])))
        return d, -v

    try:
        d, u = eqp()
        while active and _amin(u[p:]) < 0.0:
            del active[int(u[p:].argmin())]
            d, u = eqp()
        changed = False
        for _ in range(_QP_MAX_STEPS + 2 * ai.shape[0]):
            slack = ai @ d - bi
            if low is not None:
                np.minimum(low, slack, out=low)
            slack[active] = np.inf
            j = int(slack.argmin()) if slack.size else -1
            if j < 0 or slack[j] >= -_QP_TOL * (1.0 + abs(bi[j])):
                if changed:  # a clean solve on the final working set
                    d, u = eqp()
                    if low is not None:
                        np.minimum(low, ai @ d - bi, out=low)
                if _amax(ae @ d - be) > 1e-8 * (1.0 + _amax(be)):
                    return None  # dependent equality rows that disagree
                u[p:] = np.maximum(u[p:], 0.0)
                return d, u, active
            changed = True
            a = ai[j]
            u_new = 0.0
            while True:
                work = rows[eq + [p + i for i in active]]
                k = work.shape[0]
                unit = np.zeros(a.size + k)
                unit[: a.size] = a
                z, r = _kkt_solve(b, work, unit)
                # z = 0 exactly when a depends on the working rows; only a
                # small z needs the least-squares test
                dependent = False
                za = float(z @ a)
                if za <= 1e-8 * float(a @ a) / bscale:
                    fit = np.linalg.lstsq(work.T, a, rcond=None)[0]
                    if _amax(work.T @ fit - a) <= 1e-10 * max(1.0, _amax(a)):
                        dependent, r = True, fit
                ri = r[p:]
                pos = (ri > 1e-13 * max(1.0, _amax(ri))).nonzero()[0]
                t1, drop = np.inf, -1
                if pos.size:
                    ratios = u[p:][pos] / ri[pos]
                    drop = int(pos[ratios.argmin()])
                    t1 = float(np.minimum.reduce(ratios))
                if dependent:
                    if drop < 0:
                        return None
                    t = t1
                else:
                    if not za > 0.0:
                        return None
                    t2 = -(float(a @ d) - bi[j]) / za
                    t = min(t1, t2)
                    d = d + t * z
                u = u - t * r
                u_new += t
                if not dependent and t2 <= t1:
                    active.append(j)
                    u = np.concatenate((u, [u_new]))
                    break
                del active[drop]
                u = np.concatenate((u[: p + drop], u[p + drop + 1 :]))
    except np.linalg.LinAlgError:
        return None
    return None


def _penalty_qp(b, rows, values, p, start):
    """The feasibility step for linearized rows that are inconsistent: the
    equality rows and the violated inequality rows become the objective
    ``0.5 * d'b d + 0.5 * M * |J d + c|**2``, and the rows that hold stay
    constraints, so ``d = 0`` is feasible and the QP has a solution.

    ``rows`` and ``values`` are the stacked rows of the QP and their values,
    the ``p`` equality rows first; ``start`` is the working set, as indices
    into the inequality rows.  For large ``M`` the step approaches the
    Gauss-Newton step that minimizes the linearized violation within the
    bounds.  Returns the step and the working set (the rows held at equality
    and the penalized ones, in candidate order), or ``None``; its
    multipliers estimate nothing and are not returned.
    """
    vals = values[p:]
    bad = np.flatnonzero(vals < 0.0)  # bounds hold at every iterate
    good = np.flatnonzero(vals >= 0.0)
    penalized = list(range(p)) + (p + bad).tolist()
    jac = rows[penalized]
    res = values[penalized]
    weight = _PENALTY_WEIGHT * max(1.0, _amax(b))
    out = _qp(
        b + weight * (jac.T @ jac),
        weight * (jac.T @ res),
        rows[p + good],
        -vals[good],
        0,
        [pos for pos, j in enumerate(good) if j in start],
    )
    if out is None:
        return None
    return out[0], sorted([int(good[pos]) for pos in out[2]] + bad.tolist())


def _newton_step(w, rows, rhs):
    """The QP step on the working set ``rows`` with the exact Hessian ``w``,
    where that is the QP's local solution: ``(d, u)`` with ``g + w d = rows'
    u`` and ``rows d = c`` for ``rhs = [-g; c]``, or ``None``.

    The step is returned only when ``w`` is positive definite on the null
    space of ``rows`` (N&W 2006, Theorem 16.3), shown by a Cholesky factor
    of ``w + s rows' rows``: it agrees with ``w`` on that null space, and by
    Finsler's lemma a large ``s`` makes it positive definite where ``w`` is
    positive definite there.  A failed test with a positive definite
    reduced Hessian only costs the general QP.
    """
    s = _FINSLER * max(1.0, _amax(w))
    try:
        np.linalg.cholesky(w + s * (rows.T @ rows))
        d, v = _kkt_solve(w, rows, rhs)
    except np.linalg.LinAlgError:
        return None
    return d, -v


def _convexify(w: np.ndarray, rows: np.ndarray, eye: np.ndarray):
    """A positive definite QP Hessian from the Lagrangian Hessian ``w``,
    and the part of it added on the range of ``rows'`` (``None`` if none);
    ``eye`` is the identity of w's order.

    On the null space of ``rows`` (the equality rows and the predicted
    working set) the curvature of ``w`` is raised by a multiple of the
    identity (the inertia correction): the least that leaves every
    eigenvalue at least ``_CURVATURE * max(1, max|w|)``, and at least twice
    the most negative one, which turns it into its absolute value.  The
    range of ``rows'`` then gets the least shift that makes the whole
    matrix positive definite.  That shift changes no QP step whose working
    set keeps ``rows``, and it is returned so that the caller can keep it
    out of the multipliers.  Neither shift is applied where ``w`` already is
    positive definite.
    """
    n = w.shape[0]
    w = 0.5 * (w + w.T)
    floor = _CURVATURE * max(1.0, _amax(w))
    try:
        np.linalg.cholesky(w - floor * eye)
        return w, None
    except np.linalg.LinAlgError:
        pass
    if rows.shape[0]:
        _, svals, vt = np.linalg.svd(rows)
        r = int(np.count_nonzero(svals > 1e-10 * svals[0]))
    else:
        vt, r = eye, 0
    m = vt @ w @ vt.T  # the range block first, then the null block
    if r < n:
        low = float(np.linalg.eigvalsh(m[r:, r:])[0])
        m[r:, r:] += max(0.0, floor - low, -2.0 * low) * eye[r:, r:]
    shift = None
    if r:
        schur = m[:r, :r] - m[:r, r:] @ np.linalg.solve(m[r:, r:], m[r:, :r]) if r < n else m
        low = float(np.linalg.eigvalsh(0.5 * (schur + schur.T))[0])
        if low < floor:
            shift = (floor - low) * (vt[:r].T @ vt[:r])
    b = vt.T @ m @ vt
    b = 0.5 * (b + b.T)
    return b if shift is None else b + shift, shift


def minimize(rows, x0, *, bounds, constraints=None, options=None):
    """Dense active-set SQP with exact Hessians (Nocedal & Wright 2006,
    Algorithm 18.3).

    Minimizes row 0 of the row block ``rows(x)`` from ``x0`` within ``bounds
    = (lb, ub)`` (vectors of x's length; ``None`` for no bound) subject to
    its other rows: with ``constraints = (p, q)``, rows ``1 .. p`` are
    equality rows and the ``q`` rows after them inequality rows ``g(x) >=
    0``.  Feasibility restoration, whose block is its objective alone, omits
    ``constraints``.  ``options={"maxiter": k}`` caps the iterations.

    The rows of the QP are stacked once per run into one matrix: the ``p``
    equality rows, then the active-row candidates (the ``q`` inequality
    rows, then a lower-bound row ``e_k`` for every finite ``lb_k`` and an
    upper-bound row ``-e_k`` for every finite ``ub_k``).  The bound rows are
    written once; each iteration copies the block's Jacobian into the rows
    above them.  A working set is a list of candidate indices, and its rows
    are taken from the stacked matrix by that list.

    Each iteration solves one QP at the iterate ``x``: the gradient of the
    objective, the Hessian of the Lagrangian at the last multipliers, and the
    linearized rows, predicting the last QP's working set (at ``x0``: the
    rows within ``_ACTIVE_TOL`` of their bound, with least-squares
    multipliers).  Where the Newton step on that working set is the QP's
    solution (:func:`_newton_step`) it is taken as it is; otherwise the
    Hessian is made positive definite (:func:`_convexify`) and :func:`_qp`
    solves the QP from that working set.  An inconsistent QP gives way to
    a feasibility step (:func:`_penalty_qp`).  The step is accepted by
    backtracking on the l1 merit, after one second-order correction of a
    rejected full step.  The run stops when the multipliers make ``x`` a
    KKT point within ``_STOP_KKT`` and ``_STOP_FEAS`` (checked first with
    the last QP's multipliers, which after a Newton step usually suffice),
    when the step falls below rounding, when no step decreases the merit,
    after ``_MAX_FEASIBILITY_STEPS`` feasibility steps in a row, or at the
    cap.  The scalar tests run on Python floats.

    The run reports which inequality rows were inert (``inert_rows``).  A
    row is inert when it never entered a working set (the first one, a QP's
    start, a row the QP added, the last one); its value was ``>= 0`` at
    every point the run evaluated (iterates, line-search trials,
    second-order corrections); its linearized value ``a.d + v`` was ``>= 0``
    under every step ``d`` the run computed (the Newton step, each step at
    which the QP tests its rows, the step it returns); and the run took no
    feasibility step, after which no row is inert.  Such a row reaches the
    run only through comparisons of those values with 0 and through terms
    ``max(-v, 0)`` of the violation, all 0.  Floating-point rounding is
    monotone, so a row with the same gradient and Hessian whose value is no
    smaller at every point passes every one of these tests again: the run
    is the same to the last bit, iterates, multipliers, residuals and
    message included.  A looser epsilon bound is such a row.
    """
    p, q = constraints or (0, 0)
    maxiter = int((options or {}).get("maxiter", _MAX_ITER))
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    lb, ub = bounds
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    lo = np.isfinite(lb).nonzero()[0]
    hi = np.isfinite(ub).nonzero()[0]
    # the stacked QP rows and, per bound row, its variable, sign and offset:
    # its value x_k - lb_k or ub_k - x_k is sign * x_k + offset, to the bit
    n_bound = lo.size + hi.size
    stacked = np.zeros((p + q + n_bound, n))
    bound_var = np.concatenate((lo, hi))
    bound_sign = np.empty(n_bound)
    bound_sign[: lo.size] = 1.0
    bound_sign[lo.size :] = -1.0
    bound_offset = np.concatenate((-lb[lo], ub[hi]))
    stacked[p + q + np.arange(n_bound), bound_var] = bound_sign
    ae, ai = stacked[:p], stacked[p:]
    n_cand = q + n_bound
    eq_rows = list(range(p))
    eye = np.zeros((n, n))
    eye.flat[:: n + 1] = 1.0
    # the weights of the rows in the Hessian of the Lagrangian, rewritten
    # in place each iteration
    weights = np.empty(1 + p + q)
    weights[0] = 1.0
    # the least value each candidate row took at an evaluated point and,
    # linearized, under a step the run computed; -inf once the row is in a
    # working set or the run takes a feasibility step
    low = np.full(n_cand, math.inf)
    low_ineq = low[:q]

    def evaluate(x) -> Iterate:
        """The iterate at ``x``, its inequality rows' values taken into ``low``."""
        point = Iterate(x, rows(x), p)
        np.minimum(low_ineq, point.rows.values[1 + p :], out=low_ineq)
        return point

    def row_values(it: Iterate) -> np.ndarray:
        """The values of the stacked rows at the iterate ``it``."""
        return np.concatenate((it.rows.values[1:], it.x[bound_var] * bound_sign + bound_offset))

    def rows_of(working) -> list:
        """The stacked rows of a working set: the equality rows, then its own."""
        return eq_rows + [p + j for j in working]

    x = x0.clip(lb, ub)
    it = evaluate(x)
    working = sel = lam = nu = None
    rho = 0.0
    nit = 0
    kkt = comp = math.inf
    blind_kkt = None  # KKT residual before the last step taken unchecked
    infeasible_steps = 0  # consecutive iterations on feasibility steps
    message = "iteration cap reached"
    while True:
        x = it.x
        jac = it.rows.jacobian
        grad = jac[0]
        stacked[: p + q] = jac[1:]
        values = row_values(it)
        vals = values[p:]
        if nit and infeasible_steps == 0 and it.violation <= _STOP_FEAS:
            # after a Newton step the last QP's multipliers are accurate to
            # second order, which usually settles convergence without a QP
            u_rows = nu[working]
            kkt = _amax(grad + ae.T @ lam - ai[working].T @ u_rows)
            comp = _amax(u_rows * vals[working])
            if max(kkt, comp) <= _STOP_KKT:
                message = "converged"
                break
        if working is None or infeasible_steps:
            # the rows active at x0, or after a feasibility step the rows it
            # held or penalized, kept independent
            if working is None:
                working = (vals <= _ACTIVE_TOL).nonzero()[0].tolist()
                low[working] = -math.inf
            sel = rows_of(working)
            if len(sel) > 1 and np.linalg.matrix_rank(stacked[sel]) < len(sel):
                sel = _independent(stacked, p, sel[p:])
                working = [j - p for j in sel[p:]]
        active = stacked[sel]
        if lam is None:
            u = np.linalg.lstsq(active.T, grad, rcond=None)[0]
            lam, nu = -u[:p], np.zeros(n_cand)
            nu[working] = np.maximum(u[p:], 0.0)
        weights[1 : 1 + p] = lam
        weights[1 + p :] = -nu[:q]
        w = it.rows.hessian(weights)
        predicted = working
        qp = shift = None
        step = _newton_step(w, active, -np.concatenate((grad, values[sel])))
        if step is not None:
            # kept when it is the QP's solution: multipliers signed, no row
            # violated
            d, u = step
            slack = ai @ d + vals
            np.minimum(low, slack, out=low)
            slack[working] = np.inf
            if _amin(u[p:]) >= 0.0 and _amin(slack) >= -_QP_TOL:
                b, qp = w, (d, u, working)
        if qp is None:
            b, shift = _convexify(w, active, eye)
            qp = _qp(b, grad, stacked, -values, p, working, low)
        if qp is not None:
            # a row the QP added to its working set had a negative slack, so
            # ``low`` already holds it below zero
            infeasible_steps = 0
            d, u, working = qp
            if working != predicted:
                sel = rows_of(working)
                active = stacked[sel]
            if shift is not None:
                # the multipliers of the Hessian without the range shift
                u = np.linalg.lstsq(active.T, grad + (b - shift) @ d, rcond=None)[0]
                u[p:] = np.maximum(u[p:], 0.0)
            kkt = _amax(grad - active.T @ u)
            d_size, x_size = _amax(d), _amax(x)
            if kkt > _STOP_KKT and d_size <= 1e-8 * (1.0 + x_size):
                # the QP's multipliers leave the residual b @ d, which stays
                # large where the stationarity system is ill-conditioned and b
                # is large; a least-squares fit on the same rows may do better
                fit_u = np.linalg.lstsq(active.T, grad, rcond=None)[0]
                fit = _amax(grad - active.T @ fit_u)
                if fit < kkt and _amin(fit_u[p:]) >= 0.0:
                    u, kkt = fit_u, fit
            lam = -u[:p]
            nu = np.zeros(n_cand)
            nu[working] = u[p:]
            comp = _amax(u[p:] * vals[working])
        else:
            # inconsistent linearization: the multipliers stay as they were;
            # the feasibility step reads every row's value
            low.fill(-math.inf)
            qp = _penalty_qp(b, stacked, values, p, working)
            if qp is None:
                message = "QP subproblem failed"
                logger.debug("%s at iteration %d", message, nit)
                break
            d, working = qp
            sel = rows_of(working)
            active = stacked[sel]
            kkt = comp = math.inf
            d_size, x_size = _amax(d), _amax(x)
            infeasible_steps += 1
            if infeasible_steps > _MAX_FEASIBILITY_STEPS:
                message = "linearization inconsistent"
                break
        if max(kkt, comp) <= _STOP_KKT and it.violation <= _STOP_FEAS:
            message = "converged"
            break
        if d_size <= 1e-15 * (1.0 + x_size):
            message = "step below rounding"
            break
        if nit >= maxiter:
            break
        # predicted decrease of the summed violation, and the penalty: at
        # least the largest multiplier, which makes the merit exact (N&W eq.
        # 18.32), relaxing towards it by Powell's rule as SLSQP does; raised
        # where needed so that d is a descent direction of the merit (eq.
        # 18.36), and well above that for a feasibility step
        lin_ineq = values[p : p + q] + ai[:q] @ d
        np.minimum(low_ineq, lin_ineq, out=low_ineq)
        lin = np.add.reduce(abs(values[:p] + ae @ d)) + np.add.reduce(
            np.maximum(-lin_ineq, 0.0)
        )
        pred = it.l1_violation - float(lin)
        gd = float(grad @ d)
        if kkt < math.inf:
            top = max(_amax(lam), float(np.maximum.reduce(nu[:q])) if q else 0.0)
            rho = max(top, 0.5 * (rho + top))
            if pred > 0.0 and gd - rho * pred >= 0.0:
                rho = (gd + 0.5 * float(d @ b @ d)) / (0.9 * pred)
        elif pred > 0.0:
            # a feasibility step: the violation dominates the merit
            rho = max(rho, (abs(gd) + 0.5 * float(d @ b @ d)) / (0.1 * pred))
        slope = gd - rho * pred
        phi0 = it.fun + rho * it.l1_violation  # the l1 exact-penalty merit
        # a slope this small is below what the merit resolves (its terms are
        # O(1) sums weighted by 1 and rho): the full (Newton) step is taken
        # unchecked, and the run ends if that does not shrink the KKT residual
        blind = abs(slope) <= _BLIND_SLOPE * (1.0 + abs(it.fun) + rho)
        if not (slope < 0.0 or blind):
            message = "no descent direction"
            break
        xt = (x + d).clip(lb, ub)
        trial = evaluate(xt)
        merit = trial.fun + rho * trial.l1_violation
        accepted = trial if merit <= phi0 + _ARMIJO * slope else None
        if accepted is None and blind:
            if blind_kkt is not None and kkt > 0.5 * blind_kkt:
                message = "converged to rounding"
                break
            accepted, blind_kkt = trial, kkt
        if accepted is None and sel and trial.l1_violation < math.inf:
            # second-order correction: back onto the linearized working set
            fix = np.linalg.lstsq(active, row_values(trial)[sel], rcond=None)[0]
            xt = (x + d - fix).clip(lb, ub)
            soc = evaluate(xt)
            if soc.fun + rho * soc.l1_violation <= phi0 + _ARMIJO * slope:
                accepted = soc
        alpha = 1.0
        while accepted is None and alpha > _MIN_STEP:
            # safeguarded quadratic interpolation of the merit along d
            drop = merit - phi0 - slope * alpha
            alpha = min(0.5 * alpha, max(0.1 * alpha, -slope * alpha * alpha / (2.0 * drop)))
            xt = (x + alpha * d).clip(lb, ub)
            trial = evaluate(xt)
            merit = trial.fun + rho * trial.l1_violation
            if merit <= phi0 + _ARMIJO * alpha * slope:
                accepted = trial
        if accepted is None:
            message = "line search failed"
            break
        it = accepted
        nit += 1
    # after a feasibility step nu still holds the last QP's multipliers, off
    # the final working set too
    final = np.zeros(n_cand)
    final[working] = nu[working]
    lb_mult, ub_mult = np.zeros(n), np.zeros(n)
    lb_mult[lo] = final[q : q + lo.size]
    ub_mult[hi] = final[q + lo.size :]
    return SqpResult(
        x=it.x,
        fun=it.fun,
        violation=it.violation,
        nit=nit,
        message=message,
        eq_multipliers=lam,
        ineq_multipliers=final[:q],
        lb_multipliers=lb_mult,
        ub_multipliers=ub_mult,
        kkt_residual=kkt,
        comp_slackness=comp,
        inert_rows=low_ineq >= 0.0,
    )


def _restore_feasibility(problem: NlpProblem, x0: np.ndarray) -> SqpResult:
    """Minimize the summed squared violation ``|v|**2`` of the violated rows
    (every equality row, and the inequality rows below zero) subject to
    bounds only, with the same SQP: its gradient is ``2 J'v`` and its
    Hessian ``2 J'J`` plus the rows' Hessians weighted by ``2 v``."""
    p = problem.n_eq

    def rows(x):
        inner = problem.rows(x)
        values = inner.values[1:]
        violated = np.concatenate([np.ones(p, dtype=bool), values[p:] < 0.0])
        v = values[violated]

        def jacobian():
            return 2.0 * (v @ inner.jacobian[1:][violated])[None, :]

        def hessian(c):
            j = inner.jacobian[1:][violated]
            weights = np.zeros(inner.values.size)
            weights[1:][violated] = 2.0 * v
            return c[0] * (2.0 * (j.T @ j) + inner.hessian(weights))

        return RowBlock(np.array([float(v @ v)]), jacobian, hessian)

    return minimize(
        rows, x0, bounds=(problem.lb, problem.ub), options={"maxiter": _RESTORE_MAX_ITER}
    )


def _run_sqp(problem: NlpProblem, x0: np.ndarray) -> SqpResult:
    """One :func:`minimize` run of ``problem`` from ``x0``."""
    return minimize(
        problem.rows,
        x0,
        bounds=(problem.lb, problem.ub),
        constraints=(problem.n_eq, problem.n_ineq),
        options={"maxiter": _MAX_ITER},
    )


def solve(problem: NlpProblem) -> ScalarSolution:
    """Local SQP solve with multiplier recovery.

    Returns a :class:`ScalarSolution` whose status is decided by the final
    measured residuals, not by the SQP's own stopping reason: ``converged``
    requires stationarity <= ``_TOL_KKT`` and violation <= ``_TOL_FEAS``;
    ``infeasible`` means a violation above ``_INFEASIBLE_TOL``, after
    feasibility restoration where it ran; anything else is ``max_iter``.  A
    run that ends with a violation above ``_INFEASIBLE_TOL`` is followed by
    restoration from ``problem.x0`` and, if that reaches feasibility, by a
    second run from the restored point; if it does not, the solve reports
    the first run's point with its own violation, no multipliers and NaN
    residuals.  Restoration reads every row, so a solve that ran it
    reports no inert row.  Inequality multipliers below 1e-15 are reported
    as 0.
    """
    res = _run_sqp(problem, problem.x0)
    n_iter, inert, viol = res.nit, res.inert_rows, res.violation
    message = None
    if viol > _INFEASIBLE_TOL:
        inert = np.zeros(problem.n_ineq, dtype=bool)
        restored = _restore_feasibility(problem, problem.x0).x
        if _violation(problem, restored) <= _INFEASIBLE_TOL:
            res = _run_sqp(problem, restored)
            n_iter += res.nit
            viol = res.violation
        else:
            zeros = np.zeros(problem.n)
            res = replace(
                res,
                eq_multipliers=np.zeros(problem.n_eq),
                ineq_multipliers=np.zeros(problem.n_ineq),
                lb_multipliers=zeros,
                ub_multipliers=zeros,
                kkt_residual=math.nan,
                comp_slackness=math.nan,
            )
            message = "restoration could not reach feasibility"
    kkt = res.kkt_residual
    if message is not None:  # restoration failed
        status = SolveStatus.INFEASIBLE
    elif viol <= _TOL_FEAS and kkt <= _TOL_KKT:
        status, message = SolveStatus.CONVERGED, "converged"
    elif viol > _INFEASIBLE_TOL:
        status = SolveStatus.INFEASIBLE
        message = "final point violates constraints: %.3e" % viol
    else:
        status = SolveStatus.MAX_ITER
        message = "best iterate returned (kkt=%.3e, viol=%.3e): %s" % (kkt, viol, res.message)
    mu = res.ineq_multipliers
    return ScalarSolution(
        x=res.x,
        value=res.fun,
        eq_multipliers=res.eq_multipliers,
        ineq_multipliers=np.where(abs(mu) < 1e-15, 0.0, mu),
        lb_multipliers=res.lb_multipliers,
        ub_multipliers=res.ub_multipliers,
        status=status,
        kkt_residual=kkt,
        constraint_violation=viol,
        comp_slackness=res.comp_slackness,
        n_iter=n_iter,
        message=message,
        inert_rows=inert,
    )


def best_converged(solutions: Sequence[ScalarSolution]) -> Optional[ScalarSolution]:
    """The deterministic multistart merge: the converged solution of lowest
    value, or ``None`` when no solution converged.

    Values within 1e-15 of each other tie, and a tie goes to the
    lexicographically smaller ``x``.
    """
    best = None
    for sol in solutions:
        if not sol.converged:
            continue
        if best is None or sol.value < best.value - 1e-15:
            best = sol
        elif abs(sol.value - best.value) <= 1e-15 and lexicographic_less(sol.x, best.x):
            best = sol
    return best


def solve_multistart(problem: NlpProblem, starts: Sequence[np.ndarray]) -> ScalarSolution:
    """The solution :func:`best_converged` picks among one local solve from
    each start; raises :class:`MultistartError`, with every start's status,
    when no start converged."""
    starts = list(starts)
    if not starts:
        raise ParameterError("need at least one start")
    solutions = tuple(
        solve(replace(problem, x0=np.asarray(s, dtype=float))) for s in starts
    )
    best = best_converged(solutions)
    if best is None:
        raise MultistartError([s.status.value for s in solutions])
    return best
