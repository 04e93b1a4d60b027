"""Scalarization family for the portfolio MOP and the maps between members.

Implemented scalarizations, all over the simplex feasible set and all
phrased on the internal minimization image F (see :mod:`hmfront.problem`):

* shortage function (SF), the portfolio performance measure of Briec et
  al.: maximize the simultaneous expansion delta along a nonnegative
  direction g from a reference portfolio, ``F(x) + delta g <= c`` with
  ``c = F(reference)``;
* modified shortage function (MSF): the same program with equalities;
* normal boundary intersection (NBI), after Das and Dennis: shoot from the
  anchor-hull point ``f* + Phi beta`` along the hull normal;
* Pascoletti-Serafini (SP): minimize t with ``a + t r - F(x)`` in the
  nonnegative orthant (the cone is fixed; variable ordering cones are out
  of scope), or with equality in the "modified" variant;
* epsilon-constraint single solves live in :mod:`hmfront.epsilon`; the
  parameter substitution into SP is provided there as well;
* polynomial goal programming (PGP): two bound problems on the unit
  variance slice, then minimization of ``d1**alpha + d3**beta``.

The parameter maps (:func:`map_nbi_to_msf`, :func:`map_sf_to_sp`) implement
the substitutions that make these programs coincide; the dual-solve
agreement they promise is exercised end to end by the verification command
and the test suite.

SF, MSF, NBI, SP, the epsilon cell and the single-objective solves are one
program: goal rows ``sign * (F_i(w) - target_i)`` over the simplex, plus
either an objective ``sign * F_j`` or an aux column (delta, s or t) to
optimize.  Each method builds its own goal rows (:class:`_Goal`), so its
parameter map stays what is tested, and :func:`_scaled_problem` is the one
assembler: it scales every row and the objective to unit gradient size and
maps the solve back to raw units, multipliers included.  The aux methods
share one multistart path, :func:`_solve_aux`.  PGP's main solve is
assembled separately and is not scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import nlp
from .errors import ParameterError, ShapeError, SolverError
from .problem import OBJECTIVE_SENSES, PortfolioMop, _budget_row, _mean_variance_qp
from .quality import distances
from .util import dirichlet_starts, equal_weights, simplex_vertices

__all__ = [
    "SfParams",
    "SpParams",
    "NbiParams",
    "PgpParams",
    "AnchorSet",
    "PgpKktReport",
    "compute_anchors",
    "minimize_objective",
    "nbi_params",
    "solve_sf",
    "solve_msf",
    "solve_nbi",
    "solve_sp",
    "solve_pgp",
    "pgp_scale_factor",
    "pgp_efficient_scale",
    "map_nbi_to_msf",
    "map_sf_to_sp",
    "check_pgp_kkt",
]

# multistart sizes: equal weights plus Dirichlet draws for each anchor; equal
# weights, the simplex vertices and Dirichlet draws up to this total for each
# PGP bound problem
_ANCHOR_STARTS = 4
_PGP_STARTS = 8


@dataclass(frozen=True)
class SfParams:
    """Shortage-function parameters.

    The reference may be given as portfolio weights (evaluated under the
    problem at solve time) or directly as an objective vector in
    minimization form.  Direction entries are nonnegative magnitudes: the
    sign mapping into "expand mean/skewness, contract variance" happens
    inside the constraint template.
    """

    g: np.ndarray
    reference_weights: Optional[np.ndarray] = None
    reference_objectives: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 1:
            raise ParameterError("direction g must be a vector")
        if np.any(g < 0):
            raise ParameterError("direction g must be componentwise nonnegative")
        if not np.any(g > 0):
            raise ParameterError("direction g must have a positive component")
        if (self.reference_weights is None) == (self.reference_objectives is None):
            raise ParameterError(
                "provide exactly one of reference_weights / reference_objectives"
            )
        object.__setattr__(self, "g", g)
        if self.reference_weights is not None:
            object.__setattr__(
                self, "reference_weights", np.asarray(self.reference_weights, dtype=float)
            )
        if self.reference_objectives is not None:
            object.__setattr__(
                self,
                "reference_objectives",
                np.asarray(self.reference_objectives, dtype=float),
            )


@dataclass(frozen=True)
class SpParams:
    """Pascoletti-Serafini parameters: reference point a and direction r.

    The ordering cone is fixed to the nonnegative orthant of the image
    space, i.e. the constraint is ``a + t r - F(x) >= 0`` componentwise.
    """

    a: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if a.shape != r.shape or a.ndim != 1:
            raise ParameterError("a and r must be vectors of equal length")
        if float(np.max(np.abs(r))) == 0.0:
            raise ParameterError("direction r must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)

    @property
    def cone(self) -> str:
        return "nonnegative-orthant"


@dataclass(frozen=True)
class NbiParams:
    """NBI parameters: hull weights beta, ideal point, anchor matrix Phi and
    the unit hull normal oriented into the negative orthant."""

    beta: np.ndarray
    ideal: np.ndarray
    phi: np.ndarray
    nbar: np.ndarray
    anchor_weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        ideal = np.asarray(self.ideal, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        nbar = np.asarray(self.nbar, dtype=float)
        m = beta.size
        if abs(float(beta.sum()) - 1.0) > 1e-9 or np.any(beta < -1e-12):
            raise ParameterError("beta must be nonnegative and sum to 1")
        if ideal.shape != (m,) or phi.shape != (m, m) or nbar.shape != (m,):
            raise ShapeError("inconsistent NBI parameter dimensions")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "nbar", nbar)
        if self.anchor_weights is not None:
            object.__setattr__(
                self, "anchor_weights", np.asarray(self.anchor_weights, dtype=float)
            )

    @property
    def hull_point(self) -> np.ndarray:
        return self.ideal + self.phi @ self.beta


@dataclass(frozen=True)
class PgpParams:
    """Polynomial goal programming exponents plus the cached bound values
    (z1*, z3*), which must be populated before the main solve."""

    alpha: float
    beta: float
    z_stars: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise ParameterError("PGP exponents must be positive")


@dataclass(frozen=True)
class AnchorSet:
    """Individual-minimizer anchors of a portfolio MOP.

    ``images`` holds F(x^i) by row; ``phi`` holds F(x^i) - f* by column.
    """

    weights: np.ndarray
    ideal: np.ndarray
    images: np.ndarray
    phi: np.ndarray
    nbar: Optional[np.ndarray]

    @property
    def image_diameter(self) -> float:
        return float(distances(self.images, self.images).max())

    def objective_ranges(self) -> np.ndarray:
        return self.images.max(axis=0) - self.images.min(axis=0)


@dataclass(frozen=True)
class _Goal:
    """One image-space goal row ``sign * (F_index(w) - target) + coef * aux``.

    Each scalarization builds its own goal rows (its parameter map is the
    thing under test); :func:`_scaled_problem` assembles them.  ``coef`` is
    the row's aux-column coefficient and is unused by subproblems without
    an aux variable.
    """

    index: int
    sign: float
    target: float
    coef: float = 0.0


def _grad_scale(grad_row: np.ndarray) -> float:
    return max(float(np.max(np.abs(grad_row))), 1e-10)


def _scaled_problem(
    p: PortfolioMop,
    w0,
    goals,
    *,
    objective: tuple[int, float] | None = None,
    aux: tuple[float, float] | None = None,
    equality: bool = False,
    extra_eq=None,
):
    """Assemble a well-scaled subproblem over the simplex from goal rows.

    Exactly one of ``objective`` and ``aux`` is given.  ``objective=(index,
    sign)`` minimizes ``sign * F_index(w)`` over the weights alone.
    ``aux=(sense, aux0)`` appends an aux variable (delta, s or t) starting
    at ``aux0`` and minimizes ``sense * aux``.  The goal rows are
    inequalities ``>= 0``, or equalities with ``equality=True``;
    ``extra_eq(z)`` is the row block of one further equality row, left
    unscaled.

    Moment objectives span several orders of magnitude (mean ~1e-2,
    skewness ~1e-6 on typical data), so each goal row is divided by its
    weight-gradient magnitude ``s_i`` at ``w0`` and the objective by a scale
    ``k``: the objective's gradient magnitude at ``w0``, or for the aux
    methods the aux reparameterization ``aux = k * aux'``, with ``k`` chosen
    so the most sensitive row sees an O(1) aux column.  Neither scaling
    moves the optimum.  The goal rows are one elementwise affine map of
    ``F(w)``, ``(sign * (F[index] - target) + coef * k * aux') / s``, so
    every row is read from one evaluation of F, its Jacobian and its
    Hessian stack.  The block's rows are the objective, the budget row,
    the ``extra_eq`` row, then the goal rows.

    Returns the problem and ``finish(sol)``, which maps a solve back to raw
    units: value, weights, aux and every multiplier (budget row,
    ``extra_eq`` row and bounds times ``k``, goal row ``i`` times
    ``k / s_i``).
    """
    n = p.n
    w0 = np.asarray(w0, dtype=float)
    jac0 = p.objective_jacobian(w0)
    index = np.array([g.index for g in goals], dtype=int)
    sign = np.array([g.sign for g in goals])
    target = np.array([g.target for g in goals])
    coef = np.array([g.coef for g in goals])
    scales = np.array([_grad_scale(jac0[i]) for i in index])
    if aux is None:
        obj_index, obj_sign = objective
        k = _grad_scale(jac0[obj_index])
        total = n
        x0 = w0
        lb = p.lower_bounds()
    else:
        sense, aux0 = float(aux[0]), float(aux[1])
        cands = [s / abs(c) for c, s in zip(coef, scales) if abs(c) > 1e-14]
        k = min(cands) if cands else 1.0
        total = n + 1
        x0 = np.concatenate([w0, [aux0 / k]])
        lb = np.concatenate([p.lower_bounds(), [-np.inf]])
    col = coef * k  # the aux column in scaled units, times s
    extra = 0 if extra_eq is None else 1

    def rows(z):
        w = z[:n]
        f = p.objective_values(w)
        goal = sign * (f[index] - target)
        if aux is None:
            obj = obj_sign * float(f[obj_index]) / k
        else:
            obj = sense * float(z[-1])
            goal = goal + col * z[-1]
        budget, budget_grad = _budget_row(z, n)
        extra_rows = None if extra_eq is None else extra_eq(z)
        extra_values = [] if extra_rows is None else extra_rows.values

        def jacobian():
            jac = p.objective_jacobian(w)
            out = np.zeros((2 + extra + index.size, total))
            if aux is None:
                out[0] = obj_sign * jac[obj_index] / k
            else:
                out[0, -1] = sense
            out[1] = budget_grad
            if extra_rows is not None:
                out[2] = extra_rows.jacobian[0]
            out[2 + extra :, :n] = sign[:, None] * jac[index] / scales[:, None]
            if aux is not None:
                out[2 + extra :, -1] = col / scales
            return out

        def hessian(c):
            hess = p.objective_hessians(w)
            if aux is None:
                out = c[0] * (obj_sign * hess[obj_index] / k)
            else:
                out = np.zeros((total, total))
            if extra_rows is not None and c[2] != 0.0:
                out += extra_rows.hessian(c[2:3])
            for ci, i, si, sc in zip(c[2 + extra :], index, sign, scales):
                if ci != 0.0:
                    out[:n, :n] += ci * (si * hess[i] / sc)
            return out

        values = np.concatenate([[obj, budget], extra_values, goal / scales])
        return nlp.RowBlock(values, jacobian, hessian)

    n_goal_eq = index.size if equality else 0
    problem = nlp.NlpProblem(
        rows=rows,
        x0=x0,
        n_eq=1 + extra + n_goal_eq,
        n_ineq=index.size - n_goal_eq,
        lb=lb,
    )
    row_factors = k / scales
    eq_factors = np.concatenate([[k] * (1 + extra), row_factors[:n_goal_eq]])
    ineq_factors = row_factors[n_goal_eq:]

    def finish(sol: nlp.ScalarSolution) -> nlp.ScalarSolution:
        w = sol.x[:n]
        values = p.objective_values(w)
        if aux is None:
            value, aux_value = obj_sign * float(values[obj_index]), None
        else:
            aux_value = k * float(sol.x[-1])
            value = sense * aux_value
        return replace(
            sol,
            value=value,
            eq_multipliers=sol.eq_multipliers * eq_factors,
            ineq_multipliers=sol.ineq_multipliers * ineq_factors,
            lb_multipliers=sol.lb_multipliers * k,
            ub_multipliers=sol.ub_multipliers * k,
            weights=w.copy(),
            aux_value=aux_value,
            objective_values=values,
        )

    return problem, finish


def minimize_objective(
    p: PortfolioMop,
    index: int,
    *,
    starts,
    extra_eq=None,
) -> nlp.ScalarSolution:
    """Multistart minimize ``F_index`` over the simplex, subject also to the
    equality row whose row block is ``extra_eq(x)``, if given.

    The objective is normalized by its gradient magnitude at equal weights
    (the minimizer is unchanged).  The reported value is the raw objective
    ``F_index`` and every multiplier is in raw units.
    """
    problem, finish = _scaled_problem(
        p, equal_weights(p.n), (), objective=(index, 1.0), extra_eq=extra_eq
    )
    return finish(nlp.solve_multistart(problem, starts).best)


def compute_anchors(p: PortfolioMop, *, seed: int = 0, hull: bool = True) -> AnchorSet:
    """Solve the m individual minimizations and build the hull geometry.

    Each anchor solve is multistarted (equal weights plus
    ``_ANCHOR_STARTS - 1`` Dirichlet draws) to reduce the local-minimum risk
    of the skewness objective; this is a heuristic, not a global guarantee.
    With ``hull=False`` the normal is skipped (and set to None), which
    avoids failing on instances whose anchors are affinely dependent when
    only the images are needed.
    """
    n, m = p.n, p.m
    rng = np.random.default_rng(seed)
    starts = [equal_weights(n)] + dirichlet_starts(n, _ANCHOR_STARTS - 1, rng)
    anchors = np.zeros((m, n))
    for i in range(m):
        anchors[i] = minimize_objective(p, i, starts=starts).x
    images = np.array([p.objective_values(anchors[i]) for i in range(m)])
    ideal = images.min(axis=0)
    phi = (images - ideal).T  # columns are F(x^i) - f*
    nbar = _hull_normal(images) if hull else None
    return AnchorSet(weights=anchors, ideal=ideal, images=images, phi=phi, nbar=nbar)


def _hull_normal(images: np.ndarray) -> np.ndarray:
    """Unit normal of the anchor hull, oriented into the negative orthant."""
    diffs = images[1:] - images[0]
    # scale rows so disparate objective magnitudes do not swamp the null space
    norms = np.linalg.norm(diffs, axis=1)
    scale = float(np.max(np.abs(images - images.mean(axis=0))))
    if np.any(norms <= 1e-9 * max(scale, 1e-300)):
        raise SolverError("anchor images coincide; hull normal undefined")
    scaled = diffs / norms[:, None]
    _, svals, vh = np.linalg.svd(scaled)
    if svals.min() < 1e-8:
        raise SolverError("anchor images are affinely dependent; hull normal undefined")
    # the last right singular vector spans the null space of the m - 1 rows
    nbar = vh[-1] / np.linalg.norm(vh[-1])
    total = float(nbar.sum())
    if total > 0 or (total == 0 and nbar[np.nonzero(nbar)[0][0]] > 0):
        nbar = -nbar
    return nbar


def nbi_params(anchors: AnchorSet, beta) -> NbiParams:
    if anchors.nbar is None:
        raise ParameterError("anchors were computed without the hull normal")
    return NbiParams(
        beta=np.asarray(beta, dtype=float),
        ideal=anchors.ideal,
        phi=anchors.phi,
        nbar=anchors.nbar,
        anchor_weights=anchors.weights,
    )


def _resolve_reference(p: PortfolioMop, sf: SfParams) -> np.ndarray:
    if sf.reference_objectives is not None:
        c = sf.reference_objectives
        if c.shape != (p.m,):
            raise ShapeError("reference objective vector must have length %d" % p.m)
        return c
    return p.objective_values(sf.reference_weights)


def _sf_goals(p: PortfolioMop, sf: SfParams) -> list[_Goal]:
    """Goal rows c_i - F_i(w) - delta g_i, one per objective."""
    m = p.m
    if sf.g.shape != (m,):
        raise ShapeError("direction g must have length %d" % m)
    c = _resolve_reference(p, sf)
    return [
        _Goal(i, -1.0, float(c[i]), coef=-float(sf.g[i])) for i in range(m)
    ]


def _sf_start(p: PortfolioMop, sf: SfParams) -> np.ndarray:
    if sf.reference_weights is not None:
        return np.asarray(sf.reference_weights, dtype=float)
    return equal_weights(p.n)


def _ray_start(f0: np.ndarray, origin: np.ndarray, direction: np.ndarray) -> float:
    """The aux start on the ray ``origin + aux * direction``: the aux of the
    ray point nearest to the image ``f0`` of the start weights."""
    return float(direction @ (f0 - origin)) / float(direction @ direction)


def _best_of_starts(solve_one, starts):
    """Multistart an aux-valued solve: the :func:`nlp.best_converged` merge
    of the starts (value = sense * aux, so every method minimizes it), or
    the first start's solution when none converged."""
    solutions = [solve_one(np.asarray(s, dtype=float)) for s in starts]
    best = nlp.best_converged(solutions)
    return best if best is not None else solutions[0]


def _solve_aux(
    p: PortfolioMop,
    goals,
    *,
    sense: float,
    equality: bool,
    start: np.ndarray,
    starts,
    aux0=lambda w0: 0.0,
    check=None,
) -> nlp.ScalarSolution:
    """The one multistart path of the aux-valued scalarizations.

    Solves the scaled problem of ``goals`` from each of ``starts``, or from
    the method's default ``start`` alone when ``starts`` is None, and
    merges them with :func:`_best_of_starts`.  ``aux0(w0)`` is the aux
    start for weights ``w0``; ``check(sol)`` may reject a raw solve.
    """

    def solve_one(w0):
        problem, finish = _scaled_problem(
            p, w0, goals, aux=(sense, aux0(w0)), equality=equality
        )
        sol = nlp.solve(problem)
        if check is not None:
            check(sol)
        return finish(sol)

    return _best_of_starts(solve_one, [start] if starts is None else starts)


def solve_sf(p: PortfolioMop, sf: SfParams, *, starts=None) -> nlp.ScalarSolution:
    """Shortage function: maximal delta with F(x) + delta g <= F(reference).

    delta* is 0 exactly when the reference is efficient and positive when it
    is dominated; ``aux_value`` carries delta*.  Goal-row multipliers appear
    in ``ineq_multipliers`` in objective order.  ``starts`` optionally
    multistarts the solve from the given weight vectors (best delta kept).
    """

    def check(sol):
        if sol.status is nlp.SolveStatus.INFEASIBLE and sf.reference_weights is not None:
            # with a feasible reference portfolio delta=0 is always attainable
            raise SolverError(
                "shortage solve reported infeasible despite feasible reference"
            )

    return _solve_aux(
        p, _sf_goals(p, sf), sense=-1.0, equality=False, start=_sf_start(p, sf),
        starts=starts, check=check,
    )


def solve_msf(p: PortfolioMop, sf: SfParams, *, starts=None) -> nlp.ScalarSolution:
    """Modified shortage function: the three goal rows hold with equality.

    The equality system can be genuinely infeasible for a given reference
    and direction; that outcome is reported as status ``infeasible`` and the
    caller may fall back to :func:`solve_sf`.
    """
    return _solve_aux(
        p, _sf_goals(p, sf), sense=-1.0, equality=True, start=_sf_start(p, sf),
        starts=starts,
    )


def solve_nbi(p: PortfolioMop, nbi: NbiParams, *, starts=None) -> nlp.ScalarSolution:
    """NBI subproblem: maximize s with F(x) = f* + Phi beta + s nbar.

    ``eq_multipliers[1:]`` holds the m goal-row multipliers (index 0 is the
    budget row), which the PGP diagnostic consumes.
    """
    m = p.m
    if nbi.beta.shape != (m,):
        raise ShapeError("beta must have length %d" % m)
    hull = nbi.hull_point
    goals = [
        _Goal(i, 1.0, float(hull[i]), coef=-float(nbi.nbar[i])) for i in range(m)
    ]
    if nbi.anchor_weights is not None:
        start = nbi.beta @ nbi.anchor_weights
    else:
        start = equal_weights(p.n)

    def s_start(w0):
        return _ray_start(p.objective_values(w0), hull, nbi.nbar)

    return _solve_aux(
        p, goals, sense=-1.0, equality=True, start=start, starts=starts, aux0=s_start
    )


def solve_sp(
    p: PortfolioMop,
    sp: SpParams,
    modified: bool = False,
    *,
    starts=None,
) -> nlp.ScalarSolution:
    """Pascoletti-Serafini: minimize t with a + t r - F(x) in the orthant.

    With ``modified=True`` the cone inclusion becomes the equality
    ``a + t r - F(x) = 0``, and t starts on that ray, at the point nearest
    to F(w0); the inequality form starts at the least t that satisfies it.
    """
    m = p.m
    if sp.a.shape != (m,):
        raise ShapeError("reference a must have length %d" % m)
    goals = [
        _Goal(i, -1.0, float(sp.a[i]), coef=float(sp.r[i])) for i in range(m)
    ]

    def t_start(w0):
        f0 = p.objective_values(w0)
        if modified:
            return _ray_start(f0, sp.a, sp.r)
        cands = [
            (float(f0[i]) - float(sp.a[i])) / float(sp.r[i])
            for i in range(m)
            if abs(float(sp.r[i])) > 1e-12
        ]
        return max(cands) if cands else 0.0

    return _solve_aux(
        p, goals, sense=1.0, equality=modified, start=equal_weights(p.n), starts=starts,
        aux0=t_start,
    )


def map_nbi_to_msf(nbi: NbiParams) -> SfParams:
    """Parameter substitution sending an NBI subproblem to an MSF one.

    The reference objective vector is the hull point ``f* + Phi beta`` and
    the direction is the hull normal with signs adapted to the shortage
    convention (g = -nbar, nonnegative when the normal points into the
    negative orthant).  Solutions correspond with s = delta.
    """
    g = -nbi.nbar
    if np.any(g < -1e-12):
        raise SolverError(
            "hull normal has a positive component; shortage direction undefined"
        )
    return SfParams(g=np.maximum(g, 0.0), reference_objectives=nbi.hull_point)


def map_sf_to_sp(sf: SfParams, p: PortfolioMop) -> SpParams:
    """Parameter substitution sending a shortage problem to an SP one.

    The SP reference is the shortage reference's image c and the direction
    is g, so the mapped SP reproduces the shortage optimum with t = -delta.
    """
    return SpParams(a=_resolve_reference(p, sf), r=sf.g.copy())


def pgp_scale_factor(p: PortfolioMop) -> float:
    """Return scale kappa such that returns scaled by kappa make the unit
    variance slice attainable (variance scales by kappa^2)."""
    min_var, max_var = _variance_slice_bounds(p)
    if min_var <= 0 or max_var <= 0:
        raise SolverError("degenerate covariance; variance normalization impossible")
    return float((min_var * max_var) ** -0.25)


def pgp_efficient_scale(p: PortfolioMop, anchors: AnchorSet) -> float:
    """Scale kappa placing the unit-variance slice inside the efficient
    variance range (geometric middle of the anchor variances).

    :func:`pgp_scale_factor` targets attainability of the slice; this
    variant targets the slice crossing the efficient surface, which the
    goal-programming diagnostics need so that both shortfalls can be
    positive at interior front points.  The anchor variances are computed
    from the anchor weights, so any objective order works.
    """
    variances = [p.point(w).value("variance") for w in anchors.weights]
    lo, hi = min(variances), max(variances)
    if lo <= 0 or hi <= 0:
        raise SolverError("anchor variances must be positive")
    return float((lo * hi) ** -0.25)


def _variance_slice_bounds(p: PortfolioMop) -> tuple[float, float]:
    """Attainable variance range on the simplex: the minimum-variance QP and
    the largest vertex variance."""
    n = p.n
    min_var = _mean_variance_qp(p, 1.0, equal_weights(n), mu=np.zeros(n)).value
    max_var = max(p.point(v).value("variance") for v in simplex_vertices(n))
    return float(min_var), float(max_var)


def _stat_index(p: PortfolioMop, name: str) -> int:
    try:
        return p.objectives.index(name)
    except ValueError:
        raise ParameterError("PGP needs objective %r in the problem" % name) from None


def _unit_variance_rows(p: PortfolioMop, x: np.ndarray) -> nlp.RowBlock:
    """The row block of the one row w'Sigma w = 1, over a variable vector x
    whose first n entries are the weights (any trailing entries are
    auxiliary).  Variance need not be an objective, so the row reads the
    moment point directly."""
    n = p.n
    pt = p.point(x[:n])

    def jacobian():
        out = np.zeros((1, x.size))
        out[0, :n] = pt.gradient("variance")
        return out

    def hessian(c):
        out = np.zeros((x.size, x.size))
        out[:n, :n] = pt.hessian("variance")
        return c[0] * out

    return nlp.RowBlock(np.array([pt.value("variance") - 1.0]), jacobian, hessian)


def _pgp_bound_problem(p: PortfolioMop, name: str, seed: int):
    """max statistic subject to variance(w) = 1 over the simplex.

    objective_values already carries the minimization sense for mean and
    skewness, so minimizing the selected component maximizes the raw value.
    """
    n = p.n
    rng = np.random.default_rng(seed)
    starts = [equal_weights(n)] + simplex_vertices(n) + dirichlet_starts(
        n, max(_PGP_STARTS - 1 - n, 0), rng
    )
    best = minimize_objective(
        p,
        _stat_index(p, name),
        starts=starts,
        extra_eq=lambda x: _unit_variance_rows(p, x),
    )
    # convert back to the raw (maximized) statistic
    return float(OBJECTIVE_SENSES[name] * best.value), best.x


def _pgp_problem(p: PortfolioMop, z_stars, exponents, x0) -> nlp.NlpProblem:
    """PGP's main program over ``(w, d1, d3)``: minimize ``d1**alpha +
    d3**beta`` subject to the budget row, ``mean + d1 = z1*``, ``variance =
    1`` and ``skewness + d3 = z3*``, in that order, with ``d >= 0``."""
    n = p.n
    total = n + 2
    alpha, beta = exponents
    z1_star, z3_star = z_stars
    # the goal rows raw_stat(w) + d = z*, through the minimization form:
    # OBJECTIVE_SENSES is involutive, so it also maps minimization values
    # back to raw statistics
    mean_index, skew_index = _stat_index(p, "mean"), _stat_index(p, "skewness")
    mean_sense, skew_sense = OBJECTIVE_SENSES["mean"], OBJECTIVE_SENSES["skewness"]

    def _pow(d: float, e: float) -> float:
        return max(d, 0.0) ** e

    def _dpow(d: float, e: float) -> float:
        base = max(d, 1e-16)
        return e * base ** (e - 1.0)

    def _ddpow(d: float, e: float) -> float:
        base = max(d, 1e-16)
        return e * (e - 1.0) * base ** (e - 2.0)

    def rows(z):
        w, d1, d3 = z[:n], z[n], z[n + 1]
        f = p.objective_values(w)
        budget, budget_grad = _budget_row(z, n)
        variance = _unit_variance_rows(p, z)
        values = [
            _pow(d1, alpha) + _pow(d3, beta),
            budget,
            mean_sense * float(f[mean_index]) + d1 - z1_star,
            variance.values[0],
            skew_sense * float(f[skew_index]) + d3 - z3_star,
        ]

        def jacobian():
            jac = p.objective_jacobian(w)
            out = np.zeros((5, total))
            out[0, n], out[0, n + 1] = _dpow(d1, alpha), _dpow(d3, beta)
            out[1] = budget_grad
            out[2, :n], out[2, n] = mean_sense * jac[mean_index], 1.0
            out[3] = variance.jacobian[0]
            out[4, :n], out[4, n + 1] = skew_sense * jac[skew_index], 1.0
            return out

        def hessian(c):
            hess = p.objective_hessians(w)
            out = np.zeros((total, total))
            out[n, n], out[n + 1, n + 1] = _ddpow(d1, alpha), _ddpow(d3, beta)
            out = c[0] * out
            if c[2] != 0.0:
                out[:n, :n] += c[2] * (mean_sense * hess[mean_index])
            if c[3] != 0.0:
                out += variance.hessian(c[3:4])
            if c[4] != 0.0:
                out[:n, :n] += c[4] * (skew_sense * hess[skew_index])
            return out

        return nlp.RowBlock(np.array(values), jacobian, hessian)

    lb = np.concatenate([p.lower_bounds(), [0.0, 0.0]])
    return nlp.NlpProblem(rows=rows, x0=x0, n_eq=4, lb=lb)


def solve_pgp(p: PortfolioMop, g: PgpParams, *, seed: int = 0) -> nlp.ScalarSolution:
    """Two-phase polynomial goal program on the unit variance slice.

    Phase 1 computes z1* = max mean and z3* = max skewness subject to
    variance = 1 (cached in the params when already supplied); phase 2
    minimizes d1**alpha + d3**beta with d1 = z1* - mean, d3 = z3* - skew,
    variance pinned to 1, over the simplex.
    """
    n = p.n
    for name in ("mean", "skewness"):
        _stat_index(p, name)  # a missing objective fails before any solve
    min_var, max_var = _variance_slice_bounds(p)
    if min_var > 1.0 + 1e-9 or max_var < 1.0 - 1e-9:
        sol = nlp.ScalarSolution(
            x=np.concatenate([equal_weights(n), [0.0, 0.0]]),
            value=float("nan"),
            eq_multipliers=np.zeros(4),
            ineq_multipliers=np.zeros(0),
            lb_multipliers=np.zeros(n + 2),
            ub_multipliers=np.zeros(n + 2),
            status=nlp.SolveStatus.INFEASIBLE,
            kkt_residual=float("nan"),
            constraint_violation=abs(1.0 - np.clip(1.0, min_var, max_var)),
            comp_slackness=float("nan"),
            n_iter=0,
            message=(
                "variance = 1 unattainable on the simplex: attainable range is "
                "[%.6g, %.6g]; rescale returns (see pgp_scale_factor)" % (min_var, max_var)
            ),
        )
        return sol
    if g.z_stars is not None:
        z1_star, z3_star = g.z_stars
        w_mean = equal_weights(n)
    else:
        z1_star, w_mean = _pgp_bound_problem(p, "mean", seed)
        z3_star, _ = _pgp_bound_problem(p, "skewness", seed + 1)

    stats0 = p.raw_stats(w_mean)
    x0 = np.concatenate(
        [w_mean, [max(z1_star - stats0.mean, 0.0), max(z3_star - stats0.skewness, 0.0)]]
    )
    z_stars = (float(z1_star), float(z3_star))
    problem = _pgp_problem(p, z_stars, (float(g.alpha), float(g.beta)), x0)
    sol = nlp.solve(problem)
    w = sol.x[:n]
    out = replace(
        sol,
        weights=w.copy(),
        aux_value=None,
        objective_values=p.objective_values(w),
        info={
            "z1_star": float(z1_star),
            "z3_star": float(z3_star),
            "d1": float(sol.x[n]),
            "d3": float(sol.x[n + 1]),
        },
    )
    return out


_NAN = float("nan")


@dataclass(frozen=True)
class PgpKktReport:
    """Diagnostic transport of an NBI solution into the PGP first-order
    system.  Reports residual norms; never asserts a pass or fail.  A
    not-applicable report leaves the numbers it did not reach at nan."""

    applicable: bool
    reason: str
    d1: float = _NAN
    d3: float = _NAN
    alpha: float = _NAN
    beta: float = _NAN
    kappa: float = _NAN
    mu: tuple[float, float, float] = (_NAN, _NAN, _NAN)
    nhat_dot_lambda: float = _NAN
    stationarity_norm: float = _NAN
    goal_residuals: tuple[float, float, float] = (_NAN, _NAN, _NAN)
    mu2_zero_applicable: bool = False


def _power_root(target: float, d: float, hi: float = 10.0) -> Optional[float]:
    """Smallest root of e * d**(e-1) = target on (0, hi], by grid + bisection."""
    if d <= 0 or target <= 0:
        return None

    def phi(e):
        return e * d ** (e - 1.0) - target

    grid = np.linspace(1e-6, hi, 2001)
    vals = np.array([phi(e) for e in grid])
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = np.nonzero(vals == 0.0)[0]
    if exact.size:
        return float(grid[exact[0]])
    if not flips.size:
        return None
    lo, up = grid[flips[0]], grid[flips[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + up)
        if phi(lo) * phi(mid) <= 0:
            up = mid
        else:
            lo = mid
    return float(0.5 * (lo + up))


def check_pgp_kkt(
    nbi_solution: nlp.ScalarSolution,
    g: PgpParams,
    nbi: NbiParams,
    p: PortfolioMop,
) -> PgpKktReport:
    """Transport an NBI solution into the PGP stationarity system.

    Computes the shortfalls d1, d3 against the cached bound values, solves
    the scalar fixed-point equations for the exponents (alpha appears on
    both sides; bisection on (0, 10]), rescales the NBI goal multipliers
    into PGP multipliers via the d1 stationarity row, and reports the
    resulting residual norms.  Degenerate shortfalls (d1 or d3 <= 0) yield a
    not-applicable report.
    """
    if g.z_stars is None:
        raise ParameterError("PgpParams.z_stars must be populated (run solve_pgp first)")
    if not nbi_solution.converged:
        return PgpKktReport(False, "NBI solution did not converge")
    w = nbi_solution.weights
    if w is None:
        w = nbi_solution.x[: p.n]
    stats = p.raw_stats(w)
    z1_star, z3_star = g.z_stars
    d1 = float(z1_star - stats.mean)
    d3 = float(z3_star - stats.skewness)
    if d1 <= 0 or d3 <= 0:
        reason = "degenerate shortfall: d1=%.3g d3=%.3g" % (d1, d3)
        return PgpKktReport(False, reason, d1=d1, d3=d3)
    lam = np.asarray(nbi_solution.eq_multipliers[1:], dtype=float)  # goal rows
    if lam.size != p.m:
        return PgpKktReport(False, "NBI multipliers missing")
    nhat_dot = float(nbi.nbar @ lam)
    alpha = _power_root(abs(nhat_dot), d1)
    if alpha is None:
        return PgpKktReport(False, "no exponent alpha solves the fixed point", d1=d1, d3=d3)
    idx = {name: i for i, name in enumerate(p.objectives)}
    lam_mean = float(lam[idx["mean"]])
    lam_var = float(lam[idx["variance"]]) if "variance" in idx else 0.0
    lam_skew = float(lam[idx["skewness"]])
    # transported multipliers: mu = kappa * (sense-mapped NBI multipliers),
    # with kappa pinned by the d1 stationarity row alpha*d1^(alpha-1)+mu1=0
    denom = OBJECTIVE_SENSES["mean"] * lam_mean  # = -lam_mean
    if abs(denom) < 1e-14:
        reason = "mean goal multiplier vanishes; scale undefined"
        return PgpKktReport(False, reason, d1=d1, d3=d3)
    kappa = alpha * d1 ** (alpha - 1.0) / -denom
    mu1 = kappa * OBJECTIVE_SENSES["mean"] * lam_mean
    mu2 = kappa * OBJECTIVE_SENSES["variance"] * lam_var
    mu3 = kappa * OBJECTIVE_SENSES["skewness"] * lam_skew
    beta = _power_root(-mu3, d3) if -mu3 > 0 else None
    if beta is None:
        reason = "no exponent beta solves the fixed point (mu3=%.3g)" % mu3
        return PgpKktReport(False, reason, d1=d1, d3=d3)
    pt = p.point(w)
    stat_comb = (
        mu1 * pt.gradient("mean")
        + mu2 * pt.gradient("variance")
        + mu3 * pt.gradient("skewness")
    )
    # project onto the tangent of the active simplex facet
    free = np.ones(p.n, dtype=bool)
    free &= w > p.lower_bounds() + 1e-9
    v = stat_comb.copy()
    if free.any():
        shift = v[free].mean()
        v[free] -= shift
    v[~free] = 0.0
    stationarity_norm = float(np.max(np.abs(v), initial=0.0))
    r1 = alpha * d1 ** (alpha - 1.0) + mu1
    r2 = mu2
    r3 = beta * d3 ** (beta - 1.0) + mu3
    return PgpKktReport(
        applicable=True,
        reason="",
        d1=d1,
        d3=d3,
        alpha=float(alpha),
        beta=float(beta),
        kappa=float(kappa),
        mu=(float(mu1), float(mu2), float(mu3)),
        nhat_dot_lambda=nhat_dot,
        stationarity_norm=stationarity_norm,
        goal_residuals=(float(r1), float(r2), float(r3)),
        mu2_zero_applicable=bool(abs(lam_var) <= 1e-6 * max(1.0, float(np.abs(lam).max()))),
    )
