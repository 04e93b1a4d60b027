"""Constrained smooth optimization backend.

Every scalar subproblem in the package funnels through :func:`solve`:
minimize a differentiable objective subject to equality constraints
``h(x) = 0``, inequality constraints ``g(x) >= 0`` and box bounds.

The local solve itself is sequential quadratic programming (scipy's SLSQP,
which maintains a damped BFGS Hessian approximation internally).  The SQP
result is then refined by a Newton iteration on the active-set KKT system,
which also produces the Lagrange multipliers.  That needs exact Hessians:
every objective and constraint must supply one.  The active set is one
ordered list of rows, each an inequality ``g(x) >= 0`` held at equality: the
constraints ``("ineq", i)``, then the lower bounds ``("lo", k)`` (``x_k -
lb_k >= 0``, gradient ``e_k``), then the upper bounds ``("hi", k)``
(``ub_k - x_k >= 0``, gradient ``-e_k``).  A bound is an active row like
any inequality, in the multiplier fit and in the polish alike.  On
convergence the stationarity residual of

    L(x) = f(x) - sum_i mu_i g_i(x) + sum_j lambda_j h_j(x),  mu_i >= 0

is below ``tol_kkt`` and the constraint violation below ``tol_feas``.
That sign convention is used everywhere in the package: inequality
multipliers are reported nonnegative for constraints written ``g(x) >= 0``,
and equality multipliers refer to the constraint exactly as written.

A first SQP run from an infeasible start is watched: once its constraint
violation has stagnated above the restoration threshold (from its eleventh
iterate on, the last ten iterates all above it, within a 1% relative
spread), the run is stopped and the solve goes straight to feasibility
restoration.  A ray that misses a non-convex image set is thus detected
within about twenty SQP iterations instead of at the iteration cap.
Restoration starts from the problem's ``x0``, so where an infeasible first
run stops cannot change the outcome of the solve, and the watch only reads
iterates, so runs it does not stop follow the same path.

Each SQP run stops after ``_MAX_ITER`` (300) iterations; constraints within
``_ACTIVE_TOL`` (1e-7) of their bound enter the polish's active set; the
polish takes at most ``_POLISH_STEPS`` (10) Newton steps; and a point still
violating the constraints by more than ``_INFEASIBLE_TOL`` (1e-7) after
restoration is infeasible.  Only the two convergence tolerances of
:class:`SolverOptions` can be set, because the tracer's corrector subproblem
needs tighter ones.

Singular KKT systems during the polish are ridge-regularized with 1e-10
(logged at debug level, never silently fatal).  Solves are pure functions
of their inputs, so identical problems produce bit-identical solutions.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import MultistartError, ParameterError
from .util import lexicographic_less

__all__ = [
    "ConstraintSpec",
    "NlpProblem",
    "SolverOptions",
    "SolveStatus",
    "ScalarSolution",
    "MultistartResult",
    "best_converged",
    "solve",
    "solve_multistart",
]

logger = logging.getLogger(__name__)

_RIDGE = 1e-10
_MAX_ITER = 300  # SQP iterations per run
_ACTIVE_TOL = 1e-7  # slack below which a constraint is active in the polish
_POLISH_STEPS = 10  # Newton steps of the polish
# violation above which a point is declared infeasible after restoration
_INFEASIBLE_TOL = 1e-7
# stagnation watch on the first SQP run: after _STALL_SKIP unmeasured
# iterations (most runs end within them), the last _STALL_WINDOW iterates all
# above the restoration threshold, their violations within _STALL_SPREAD of
# the largest
_STALL_SKIP = 10
_STALL_WINDOW = 10
_STALL_SPREAD = 0.01


@dataclass(frozen=True)
class ConstraintSpec:
    """A twice-differentiable scalar constraint with its gradient and exact
    Hessian."""

    fun: Callable[[np.ndarray], float]
    jac: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    name: str = ""


@dataclass(frozen=True)
class NlpProblem:
    """Smooth NLP description with exact derivatives.  ``ineq_constraints``
    use the g(x) >= 0 sense."""

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    hessian: Callable[[np.ndarray], np.ndarray]
    eq_constraints: tuple[ConstraintSpec, ...] = ()
    ineq_constraints: tuple[ConstraintSpec, ...] = ()
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1:
            raise ParameterError("x0 must be a vector")
        if not np.all(np.isfinite(x0)):
            raise ParameterError("x0 must be finite")
        n = x0.size
        lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise ParameterError("bounds must match x0 length")
        if np.any(lb > ub):
            raise ParameterError("inconsistent bounds: lb > ub")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        object.__setattr__(self, "eq_constraints", tuple(self.eq_constraints))
        object.__setattr__(self, "ineq_constraints", tuple(self.ineq_constraints))

    @property
    def n(self) -> int:
        return self.x0.size


@dataclass(frozen=True)
class SolverOptions:
    """Convergence tolerances of :func:`solve`: stationarity ``tol_kkt`` and
    constraint violation ``tol_feas``.

    They are the only settings, because the tracer's corrector subproblem
    tightens both; the iteration cap, active-set tolerance, polish steps
    and infeasibility threshold are module constants.
    """

    tol_kkt: float = 1e-8
    tol_feas: float = 1e-9


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
    ``info["sqp_stalled"]`` is the iteration at which the first SQP run was
    stopped for a stagnated constraint violation, or ``None``.
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
    weights: Optional[np.ndarray] = None
    aux_value: Optional[float] = None
    objective_values: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


@dataclass(frozen=True)
class MultistartResult:
    best: ScalarSolution
    solutions: tuple[ScalarSolution, ...]


def _violation(problem: NlpProblem, x: np.ndarray) -> float:
    worst = 0.0
    for c in problem.eq_constraints:
        worst = max(worst, abs(float(c.fun(x))))
    for c in problem.ineq_constraints:
        worst = max(worst, max(0.0, -float(c.fun(x))))
    worst = max(worst, float(np.max(problem.lb - x, initial=0.0)))
    worst = max(worst, float(np.max(x - problem.ub, initial=0.0)))
    return worst


def _grad_lagrangian(
    problem: NlpProblem,
    x: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
    nu_lo: np.ndarray,
    nu_hi: np.ndarray,
) -> np.ndarray:
    g = problem.gradient(x).astype(float).copy()
    for j, c in enumerate(problem.eq_constraints):
        g += lam[j] * c.jac(x)
    for i, c in enumerate(problem.ineq_constraints):
        if mu[i] != 0.0:
            g -= mu[i] * c.jac(x)
    g -= nu_lo
    g += nu_hi
    return g


def _row_value(problem: NlpProblem, x: np.ndarray, row) -> float:
    """Value of an active-row candidate, ``>= 0`` when it holds."""
    kind, idx = row
    if kind == "ineq":
        return float(problem.ineq_constraints[idx].fun(x))
    if kind == "lo":
        return x[idx] - problem.lb[idx]
    return problem.ub[idx] - x[idx]


def _row_gradients(problem: NlpProblem, x: np.ndarray, rows) -> np.ndarray:
    """Gradients of ``rows`` stacked as a ``(len(rows), n)`` matrix: the
    constraint's gradient, ``e_k`` for ``("lo", k)`` and ``-e_k`` for
    ``("hi", k)``."""
    grads = np.zeros((len(rows), problem.n))
    for pos, (kind, idx) in enumerate(rows):
        if kind == "ineq":
            grads[pos] = problem.ineq_constraints[idx].jac(x)
        else:
            grads[pos, idx] = 1.0
            if kind == "hi":
                # negated, not written as -1.0: the zeros of -e_k are -0.0,
                # and signed zeros reach the reported weights through the
                # polish's linear solve
                grads[pos] = -grads[pos]
    return grads


def _active_rows(problem: NlpProblem, x: np.ndarray) -> list:
    """The inequalities ``g(x) >= 0`` held within ``_ACTIVE_TOL`` of
    equality: ``("ineq", i)``, then ``("lo", k)``, then ``("hi", k)``, each
    by ascending index."""
    rows = [("ineq", i) for i in range(len(problem.ineq_constraints))]
    rows += [("lo", k) for k in range(problem.n) if np.isfinite(problem.lb[k])]
    rows += [("hi", k) for k in range(problem.n) if np.isfinite(problem.ub[k])]
    return [row for row in rows if _row_value(problem, x, row) <= _ACTIVE_TOL]


def _scatter(problem: NlpProblem, rows, values):
    """Full inequality, lower-bound and upper-bound multiplier vectors from
    the multipliers of ``rows`` (zero off the rows)."""
    full = {
        "ineq": np.zeros(len(problem.ineq_constraints)),
        "lo": np.zeros(problem.n),
        "hi": np.zeros(problem.n),
    }
    for (kind, idx), v in zip(rows, values):
        full[kind][idx] = v
    return full["ineq"], full["lo"], full["hi"]


def _ls_multipliers(problem: NlpProblem, x: np.ndarray, rows):
    """Least-squares stationarity fit; drops the active row of most negative
    multiplier and refits until the sign condition holds.

    Returns the equality multipliers, the rows kept and their multipliers.
    """
    p = len(problem.eq_constraints)
    rows = list(rows)
    g0 = problem.gradient(x).astype(float)
    cols = [c.jac(x) for c in problem.eq_constraints]
    cols += list(-_row_gradients(problem, x, rows))
    while cols:
        sol, *_ = np.linalg.lstsq(np.column_stack(cols), -g0, rcond=None)
        lam, nus = sol[:p], sol[p:]
        worst = min(range(len(rows)), key=nus.__getitem__, default=None)
        if worst is None or nus[worst] >= -1e-9:
            return lam, rows, nus
        del rows[worst], cols[p + worst]
    return np.zeros(0), [], np.zeros(0)


def _polish(problem: NlpProblem, x, lam, rows, nus):
    """Newton iteration on the KKT equalities of the active rows; returns
    the best point, its equality multipliers and its row multipliers."""
    n = problem.n
    p = len(problem.eq_constraints)
    m = len(rows)

    def residual(z):
        xx, ll, nn = z[:n], z[n : n + p], z[n + p :]
        mu, nu_lo, nu_hi = _scatter(problem, rows, nn)
        return np.concatenate(
            [
                _grad_lagrangian(problem, xx, ll, mu, nu_lo, nu_hi),
                [c.fun(xx) for c in problem.eq_constraints],
                [_row_value(problem, xx, row) for row in rows],
            ]
        )

    def kkt_jacobian(z):
        xx, ll, nn = z[:n], z[n : n + p], z[n + p :]
        h_l = np.asarray(problem.hessian(xx), dtype=float)
        for j, c in enumerate(problem.eq_constraints):
            h_l = h_l + ll[j] * np.asarray(c.hess(xx), dtype=float)
        for (kind, i), v in zip(rows, nn):
            if kind == "ineq":
                c = problem.ineq_constraints[i]
                h_l = h_l - v * np.asarray(c.hess(xx), dtype=float)
        je = np.array([c.jac(xx) for c in problem.eq_constraints]).reshape(p, n)
        jr = _row_gradients(problem, xx, rows)
        top = np.hstack([h_l, je.T, -jr.T])
        return np.vstack([top, np.hstack([np.vstack([je, jr]), np.zeros((p + m, p + m))])])

    z = np.concatenate([x, lam, nus])
    best_z, best_norm = z.copy(), float(np.max(np.abs(residual(z))))
    for _ in range(_POLISH_STEPS):
        if best_norm <= 1e-14:
            break
        jac = kkt_jacobian(z)
        rhs = -residual(z)
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            logger.debug("singular KKT system during polish; applying 1e-10 ridge")
            jtj = jac.T @ jac + _RIDGE * np.eye(jac.shape[1])
            step = np.linalg.solve(jtj, jac.T @ rhs)
        improved = False
        for damp in (1.0, 0.5, 0.25, 0.125):
            cand = z + damp * step
            norm = float(np.max(np.abs(residual(cand))))
            if norm < best_norm:
                z = cand
                best_z, best_norm = cand.copy(), norm
                improved = True
                break
        if not improved:
            break
    return best_z[:n], best_z[n : n + p], best_z[n + p :]


def _stagnated(violations: Sequence[float], threshold: float) -> bool:
    """Whether a violation history has stalled above ``threshold``.

    True when the last ``_STALL_WINDOW`` violations all exceed the threshold
    and lie within a ``_STALL_SPREAD`` relative spread of their maximum.  A
    run that is still moving, even one that jumps far away and comes back,
    does not stall.
    """
    if len(violations) < _STALL_WINDOW:
        return False
    window = violations[-_STALL_WINDOW:]
    lo, hi = min(window), max(window)
    return lo > threshold and hi - lo <= _STALL_SPREAD * hi


def _restore_feasibility(problem: NlpProblem, x0: np.ndarray):
    """Minimize the squared constraint violation subject to bounds only."""

    def phi(x):
        total = 0.0
        for c in problem.eq_constraints:
            total += float(c.fun(x)) ** 2
        for c in problem.ineq_constraints:
            total += min(0.0, float(c.fun(x))) ** 2
        return total

    def phi_grad(x):
        g = np.zeros(problem.n)
        for c in problem.eq_constraints:
            g += 2.0 * float(c.fun(x)) * c.jac(x)
        for c in problem.ineq_constraints:
            v = float(c.fun(x))
            if v < 0.0:
                g += 2.0 * v * c.jac(x)
        return g

    res = minimize(
        phi,
        x0,
        jac=phi_grad,
        method="SLSQP",
        bounds=list(zip(problem.lb, problem.ub)),
        options={"maxiter": 200, "ftol": 1e-16},
    )
    return np.clip(res.x, problem.lb, problem.ub)


def _run_slsqp(problem: NlpProblem, x0: np.ndarray, stall_above: Optional[float] = None):
    """SLSQP from ``x0``; returns the clipped endpoint, scipy's result and the
    iteration at which a stagnated run was stopped (``None`` if it was not).

    With ``stall_above`` set, the run is stopped once :func:`_stagnated`
    holds for the violations of its iterates after the first
    ``_STALL_SKIP``.  They are measured at the clipped points the solve
    itself measures, so a stopped run always goes on to restoration.
    """
    cons = []
    for c in problem.eq_constraints:
        cons.append({"type": "eq", "fun": c.fun, "jac": c.jac})
    for c in problem.ineq_constraints:
        cons.append({"type": "ineq", "fun": c.fun, "jac": c.jac})
    callback = None
    stalled = []
    if stall_above is not None:
        iterations = itertools.count(1)
        violations: list[float] = []

        # scipy passes this signature the iterate without copying it twice
        def callback(intermediate_result):
            k = next(iterations)
            if k <= _STALL_SKIP:
                return
            x = np.clip(intermediate_result.x, problem.lb, problem.ub)
            violations.append(_violation(problem, x))
            if _stagnated(violations, stall_above):
                stalled.append(k)
                raise StopIteration

    with warnings.catch_warnings():
        # scipy warns when a trial step leaves the box and gets clipped;
        # expected backend behavior, and feasibility is measured afterwards
        warnings.filterwarnings(
            "ignore", message="Values in x were outside bounds", category=RuntimeWarning
        )
        res = minimize(
            problem.objective,
            x0,
            jac=problem.gradient,
            method="SLSQP",
            bounds=list(zip(problem.lb, problem.ub)),
            constraints=cons,
            callback=callback,
            options={"maxiter": _MAX_ITER, "ftol": 1e-12},
        )
    x = np.clip(np.asarray(res.x, dtype=float), problem.lb, problem.ub)
    return x, res, (stalled[0] if stalled else None)


def solve(problem: NlpProblem, options: SolverOptions | None = None) -> ScalarSolution:
    """Local SQP solve with KKT polish and multiplier recovery.

    Returns a :class:`ScalarSolution` whose status is decided by the final
    measured residuals, not by the inner solver's exit flag: ``converged``
    requires stationarity <= tol_kkt and violation <= tol_feas;
    ``infeasible`` is declared only after a failed feasibility restoration.

    When ``x0`` is infeasible, the first SQP run is stopped as soon as its
    constraint violation stagnates above the restoration threshold
    ``max(_INFEASIBLE_TOL, 10 * tol_feas)``;
    restoration then follows as it does after a run that ends infeasible at
    the iteration cap.  ``info["sqp_stalled"]`` records the iteration of
    such a stop.
    """
    opts = options or SolverOptions()
    restore_above = max(_INFEASIBLE_TOL, 10.0 * opts.tol_feas)
    # a run from a feasible start is not watched: restoration would return
    # that start, so a second run would only repeat the first; most runs
    # start feasible and end within a few iterations, and skipping the
    # callback on them keeps the watch nearly free
    watch = _violation(problem, problem.x0) > restore_above
    x, res, stalled = _run_slsqp(
        problem, problem.x0, stall_above=restore_above if watch else None
    )
    n_iter = int(res.nit)
    viol = _violation(problem, x)
    if viol > restore_above:
        # restoration starts from problem.x0, not from where the first run
        # ended, so stopping an infeasible first run early changes neither
        # the restored point nor the outcome; only the infeasible point
        # reported when restoration fails is the earlier iterate
        restored = _restore_feasibility(problem, problem.x0)
        if _violation(problem, restored) <= _INFEASIBLE_TOL:
            x, res, _ = _run_slsqp(problem, restored)
            n_iter += int(res.nit)
            viol = _violation(problem, x)
        else:
            mu = np.zeros(len(problem.ineq_constraints))
            lam = np.zeros(len(problem.eq_constraints))
            zeros = np.zeros(problem.n)
            return ScalarSolution(
                x=x,
                value=float(problem.objective(x)),
                eq_multipliers=lam,
                ineq_multipliers=mu,
                lb_multipliers=zeros,
                ub_multipliers=zeros,
                status=SolveStatus.INFEASIBLE,
                kkt_residual=float("nan"),
                constraint_violation=_violation(problem, restored),
                comp_slackness=float("nan"),
                n_iter=n_iter,
                message="restoration could not reach feasibility",
                info={"sqp_stalled": stalled},
            )

    rows = _active_rows(problem, x)
    lam, rows, nus = _ls_multipliers(problem, x, rows)
    px, plam, pnus = _polish(problem, x, lam, rows, nus)
    # accept the polished point only if it stays feasible and properly signed
    pviol = _violation(problem, px)
    ok = (
        pviol <= max(viol, opts.tol_feas)
        and float(np.min(pnus, initial=0.0)) >= -10.0 * opts.tol_kkt
        and float(np.max(np.abs(px - x))) <= 0.1 * (1.0 + float(np.max(np.abs(x))))
    )
    if ok:
        x, viol, lam, nus = px, pviol, plam, pnus
    else:
        nus = [max(v, 0.0) for v in nus]
    # constraint multipliers below 1e-15 are reported as 0
    nus = [
        0.0 if kind == "ineq" and abs(v) < 1e-15 else v for (kind, _), v in zip(rows, nus)
    ]
    mu_full, nu_lo, nu_hi = _scatter(problem, rows, nus)
    kkt = float(
        np.max(np.abs(_grad_lagrangian(problem, x, lam, mu_full, nu_lo, nu_hi)), initial=0.0)
    )
    comp = 0.0
    for row, v in zip(rows, nus):
        comp = max(comp, abs(v * _row_value(problem, x, row)))

    if viol <= opts.tol_feas and kkt <= opts.tol_kkt:
        status = SolveStatus.CONVERGED
        message = "converged"
    elif viol > _INFEASIBLE_TOL:
        status = SolveStatus.INFEASIBLE
        message = "final point violates constraints: %.3e" % viol
    else:
        status = SolveStatus.MAX_ITER
        message = "best iterate returned (kkt=%.3e, viol=%.3e): %s" % (
            kkt,
            viol,
            res.message,
        )
    return ScalarSolution(
        x=x,
        value=float(problem.objective(x)),
        eq_multipliers=np.asarray(lam, dtype=float),
        ineq_multipliers=mu_full,
        lb_multipliers=nu_lo,
        ub_multipliers=nu_hi,
        status=status,
        kkt_residual=kkt,
        constraint_violation=viol,
        comp_slackness=comp,
        n_iter=n_iter,
        message=message,
        info={"sqp_stalled": stalled},
    )


def best_converged(solutions: Sequence[ScalarSolution]) -> Optional[ScalarSolution]:
    """The deterministic multistart merge: the converged solution of lowest
    value, or ``None`` when no solution converged.

    Values within 1e-15 of each other tie, and a tie goes to the
    lexicographically smaller ``weights`` (``x`` when ``weights`` is unset).
    Aux-valued scalarizations carry ``aux / c_aux`` at the end of ``x`` with
    a scale ``c_aux`` that differs per start, so their ties are decided on
    the portfolio alone.
    """

    def tie_key(sol):
        return sol.x if sol.weights is None else sol.weights

    best = None
    for sol in solutions:
        if not sol.converged:
            continue
        if best is None or sol.value < best.value - 1e-15:
            best = sol
        elif abs(sol.value - best.value) <= 1e-15 and lexicographic_less(
            tie_key(sol), tie_key(best)
        ):
            best = sol
    return best


def solve_multistart(problem: NlpProblem, starts: Sequence[np.ndarray]) -> MultistartResult:
    """Independent local solves from each start, merged by
    :func:`best_converged`; raises :class:`MultistartError` when no start
    converged."""
    starts = list(starts)
    if not starts:
        raise ParameterError("need at least one start")
    solutions = tuple(
        solve(replace(problem, x0=np.asarray(s, dtype=float))) for s in starts
    )
    best = best_converged(solutions)
    if best is None:
        raise MultistartError([s.status.value for s in solutions])
    return MultistartResult(best=best, solutions=solutions)
