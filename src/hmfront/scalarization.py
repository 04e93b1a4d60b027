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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import null_space

from . import nlp
from .errors import ParameterError, ShapeError, SolverError
from .moments import ObjectiveVector, stats_gradients
from .problem import OBJECTIVE_SENSES, PortfolioMop, _mean_variance_qp, _simplex_constraint
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
        diffs = self.images[:, None, :] - self.images[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(axis=2)).max())

    def objective_ranges(self) -> np.ndarray:
        return self.images.max(axis=0) - self.images.min(axis=0)


@dataclass(frozen=True)
class _AuxRow:
    """One image-space goal row ``base(w) + coef * aux`` of an aux-valued
    scalarization (aux is delta, s or t depending on the method)."""

    base: object
    grad: object
    hess: object
    coef: float
    name: str = ""


def _aux_problem(p: PortfolioMop, rows, *, sense: float, w0, aux0: float, equality: bool):
    """Assemble a well-scaled (w, aux) problem from raw goal rows.

    Moment objectives span several orders of magnitude (mean ~1e-2,
    skewness ~1e-6 on typical data), so each row is divided by its
    weight-gradient magnitude and the aux variable is reparameterized as
    aux = c * aux' with c chosen so the most sensitive row sees an O(1)
    aux column.  The reparameterization is exact; reported values and
    multipliers are mapped back to raw units by :func:`_finish_aux`.
    """
    n = p.n
    total = n + 1
    w0 = np.asarray(w0, dtype=float)
    s_rows = np.array(
        [max(float(np.max(np.abs(row.grad(w0)))), 1e-10) for row in rows]
    )
    coefs = np.array([row.coef for row in rows])
    cands = [s_rows[i] / abs(coefs[i]) for i in range(len(rows)) if abs(coefs[i]) > 1e-14]
    c_aux = min(cands) if cands else 1.0
    specs = []
    for i, row in enumerate(rows):
        s_i, co = float(s_rows[i]), float(coefs[i])

        def fun(z, row=row, s_i=s_i, co=co):
            return (row.base(z[:n]) + co * c_aux * z[-1]) / s_i

        def jac(z, row=row, s_i=s_i, co=co):
            out = np.empty(total)
            out[:n] = row.grad(z[:n]) / s_i
            out[-1] = co * c_aux / s_i
            return out

        def hess(z, row=row, s_i=s_i):
            out = np.zeros((total, total))
            out[:n, :n] = row.hess(z[:n]) / s_i
            return out

        specs.append(nlp.ConstraintSpec(fun=fun, jac=jac, hess=hess, name=row.name))
    obj_grad = np.zeros(total)
    obj_grad[-1] = float(sense)
    problem = nlp.NlpProblem(
        objective=lambda z: float(sense) * float(z[-1]),
        gradient=lambda z: obj_grad.copy(),
        hessian=lambda z: np.zeros((total, total)),
        x0=np.concatenate([w0, [aux0 / c_aux]]),
        eq_constraints=(_simplex_constraint(n),) + (tuple(specs) if equality else ()),
        ineq_constraints=() if equality else tuple(specs),
        lb=np.concatenate([p.lower_bounds(), [-np.inf]]),
    )
    return problem, s_rows, c_aux


def _finish_aux(
    p: PortfolioMop, sol: nlp.ScalarSolution, s_rows, c_aux: float, sense: float, equality: bool
) -> nlp.ScalarSolution:
    """Map a scaled aux solve back to raw units (aux, value, multipliers)."""
    aux = c_aux * float(sol.x[-1])
    eq = sol.eq_multipliers.copy()
    ineq = sol.ineq_multipliers.copy()
    if equality:
        eq[0] *= c_aux  # budget row
        for i, s_i in enumerate(s_rows):
            eq[i + 1] *= c_aux / s_i
    else:
        if eq.size:
            eq[0] *= c_aux
        for i, s_i in enumerate(s_rows):
            ineq[i] *= c_aux / s_i
    w = sol.x[: p.n]
    return replace(
        sol,
        value=float(sense) * aux,
        eq_multipliers=eq,
        ineq_multipliers=ineq,
        weights=w.copy(),
        aux_value=aux,
        objective_values=p.objective_values(w),
    )


def _objective_row(p: PortfolioMop, idx: int, n: int, total: int):
    """Value/grad/hess of F_idx as functions of the stacked variable vector."""

    def fun(z):
        return float(p.objective_values(z[:n])[idx])

    def jac(z):
        out = np.zeros(total)
        out[:n] = p.objective_jacobian(z[:n])[idx]
        return out

    def hess(z):
        out = np.zeros((total, total))
        out[:n, :n] = p.objective_hessians(z[:n])[idx]
        return out

    return fun, jac, hess


def minimize_objective(
    p: PortfolioMop,
    index: int,
    *,
    sign: float = 1.0,
    starts,
    options: nlp.SolverOptions | None = None,
    extra_eq: tuple[nlp.ConstraintSpec, ...] = (),
) -> nlp.ScalarSolution:
    """Multistart minimize ``sign * F_index`` over the simplex, subject also
    to the equality rows ``extra_eq``.

    The objective is normalized by its gradient magnitude at equal weights
    (the minimizer is unchanged); the reported value is the raw objective.
    """
    n = p.n

    def raw(w):
        return sign * float(p.objective_values(w)[index])

    scale = max(
        float(np.max(np.abs(p.objective_jacobian(equal_weights(n))[index]))), 1e-10
    )
    problem = nlp.NlpProblem(
        objective=lambda w: raw(w) / scale,
        gradient=lambda w: sign * p.objective_jacobian(w)[index] / scale,
        hessian=lambda w: sign * p.objective_hessians(w)[index] / scale,
        x0=equal_weights(n),
        eq_constraints=(_simplex_constraint(n),) + tuple(extra_eq),
        lb=p.lower_bounds(),
    )
    best = nlp.solve_multistart(problem, starts, options).best
    return replace(best, value=raw(best.x), weights=best.x.copy())


def compute_anchors(
    p: PortfolioMop,
    *,
    n_starts: int = 4,
    seed: int = 0,
    options: nlp.SolverOptions | None = None,
    hull: bool = True,
) -> AnchorSet:
    """Solve the m individual minimizations and build the hull geometry.

    Each anchor solve is multistarted (equal weights plus Dirichlet draws)
    to reduce the local-minimum risk of the skewness objective; this is a
    heuristic, not a global guarantee.  With ``hull=False`` the normal is
    skipped (and set to None), which avoids failing on instances whose
    anchors are affinely dependent when only the images are needed.
    """
    n, m = p.n, p.m
    rng = np.random.default_rng(seed)
    starts = [equal_weights(n)] + dirichlet_starts(n, max(n_starts - 1, 0), rng)
    anchors = np.zeros((m, n))
    for i in range(m):
        anchors[i] = minimize_objective(p, i, starts=starts, options=options).x
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
    svals = np.linalg.svd(scaled, compute_uv=False)
    if svals.min() < 1e-8:
        raise SolverError("anchor images are affinely dependent; hull normal undefined")
    basis = null_space(scaled)
    if basis.shape[1] != 1:
        raise SolverError("anchor images are affinely dependent; hull normal undefined")
    nbar = basis[:, 0]
    nbar = nbar / np.linalg.norm(nbar)
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


def _sf_rows(p: PortfolioMop, sf: SfParams) -> list[_AuxRow]:
    """Goal rows c_i - F_i(w) - delta g_i, one per objective."""
    m = p.m
    if sf.g.shape != (m,):
        raise ShapeError("direction g must have length %d" % m)
    c = _resolve_reference(p, sf)
    rows = []
    for i in range(m):
        ci, gi = float(c[i]), float(sf.g[i])
        rows.append(
            _AuxRow(
                base=lambda w, i=i, ci=ci: ci - float(p.objective_values(w)[i]),
                grad=lambda w, i=i: -p.objective_jacobian(w)[i],
                hess=lambda w, i=i: -p.objective_hessians(w)[i],
                coef=-gi,
                name="goal_%d" % i,
            )
        )
    return rows


def _best_of_starts(solve_one, starts):
    """Multistart an aux-valued solve: the :func:`nlp.best_converged` merge
    of the starts (value = sense * aux, so every method minimizes it), or
    the first start's solution when none converged."""
    solutions = [solve_one(np.asarray(s, dtype=float)) for s in starts]
    best = nlp.best_converged(solutions)
    return best if best is not None else solutions[0]


def solve_sf(
    p: PortfolioMop,
    sf: SfParams,
    options: nlp.SolverOptions | None = None,
    *,
    starts=None,
) -> nlp.ScalarSolution:
    """Shortage function: maximal delta with F(x) + delta g <= F(reference).

    delta* is 0 exactly when the reference is efficient and positive when it
    is dominated; ``aux_value`` carries delta*.  Goal-row multipliers appear
    in ``ineq_multipliers`` in objective order.  ``starts`` optionally
    multistarts the solve from the given weight vectors (best delta kept).
    """
    rows = _sf_rows(p, sf)

    def solve_one(w0=None):
        if w0 is None:
            w0 = (
                np.asarray(sf.reference_weights, dtype=float)
                if sf.reference_weights is not None
                else equal_weights(p.n)
            )
        problem, s_rows, c_aux = _aux_problem(
            p, rows, sense=-1.0, w0=w0, aux0=0.0, equality=False
        )
        sol = nlp.solve(problem, options)
        if sol.status is nlp.SolveStatus.INFEASIBLE and sf.reference_weights is not None:
            # with a feasible reference portfolio delta=0 is always attainable
            raise SolverError(
                "shortage solve reported infeasible despite feasible reference"
            )
        return _finish_aux(p, sol, s_rows, c_aux, sense=-1.0, equality=False)

    if starts is None:
        return solve_one()
    return _best_of_starts(solve_one, starts)


def solve_msf(
    p: PortfolioMop,
    sf: SfParams,
    options: nlp.SolverOptions | None = None,
    *,
    starts=None,
) -> nlp.ScalarSolution:
    """Modified shortage function: the three goal rows hold with equality.

    The equality system can be genuinely infeasible for a given reference
    and direction; that outcome is reported as status ``infeasible`` and the
    caller may fall back to :func:`solve_sf`.
    """
    rows = _sf_rows(p, sf)

    def solve_one(w0=None):
        if w0 is None:
            w0 = (
                np.asarray(sf.reference_weights, dtype=float)
                if sf.reference_weights is not None
                else equal_weights(p.n)
            )
        problem, s_rows, c_aux = _aux_problem(
            p, rows, sense=-1.0, w0=w0, aux0=0.0, equality=True
        )
        sol = nlp.solve(problem, options)
        return _finish_aux(p, sol, s_rows, c_aux, sense=-1.0, equality=True)

    if starts is None:
        return solve_one()
    return _best_of_starts(solve_one, starts)


def solve_nbi(
    p: PortfolioMop,
    nbi: NbiParams,
    options: nlp.SolverOptions | None = None,
    *,
    starts=None,
) -> nlp.ScalarSolution:
    """NBI subproblem: maximize s with F(x) = f* + Phi beta + s nbar.

    ``eq_multipliers[1:]`` holds the m goal-row multipliers (index 0 is the
    budget row), which the PGP diagnostic consumes.
    """
    n, m = p.n, p.m
    if nbi.beta.shape != (m,):
        raise ShapeError("beta must have length %d" % m)
    hull = nbi.hull_point
    rows = []
    for i in range(m):
        hi, ni = float(hull[i]), float(nbi.nbar[i])
        rows.append(
            _AuxRow(
                base=lambda w, i=i, hi=hi: float(p.objective_values(w)[i]) - hi,
                grad=lambda w, i=i: p.objective_jacobian(w)[i],
                hess=lambda w, i=i: p.objective_hessians(w)[i],
                coef=-ni,
                name="ray_%d" % i,
            )
        )

    def solve_one(w0=None):
        if w0 is None:
            if nbi.anchor_weights is not None:
                w0 = nbi.beta @ nbi.anchor_weights
            else:
                w0 = equal_weights(n)
        problem, s_rows, c_aux = _aux_problem(
            p, rows, sense=-1.0, w0=w0, aux0=0.0, equality=True
        )
        sol = nlp.solve(problem, options)
        return _finish_aux(p, sol, s_rows, c_aux, sense=-1.0, equality=True)

    if starts is None:
        return solve_one()
    return _best_of_starts(solve_one, starts)


def solve_sp(
    p: PortfolioMop,
    sp: SpParams,
    modified: bool = False,
    options: nlp.SolverOptions | None = None,
    *,
    starts=None,
) -> nlp.ScalarSolution:
    """Pascoletti-Serafini: minimize t with a + t r - F(x) in the orthant.

    With ``modified=True`` the cone inclusion becomes the equality
    ``a + t r - F(x) = 0``.
    """
    n, m = p.n, p.m
    if sp.a.shape != (m,):
        raise ShapeError("reference a must have length %d" % m)
    rows = []
    for i in range(m):
        ai, ri = float(sp.a[i]), float(sp.r[i])
        rows.append(
            _AuxRow(
                base=lambda w, i=i, ai=ai: ai - float(p.objective_values(w)[i]),
                grad=lambda w, i=i: -p.objective_jacobian(w)[i],
                hess=lambda w, i=i: -p.objective_hessians(w)[i],
                coef=ri,
                name="cone_%d" % i,
            )
        )

    def solve_one(w0=None):
        if w0 is None:
            w0 = equal_weights(n)
        f0 = p.objective_values(w0)
        t_candidates = [
            (float(f0[i]) - float(sp.a[i])) / float(sp.r[i])
            for i in range(m)
            if abs(float(sp.r[i])) > 1e-12
        ]
        t0 = max(t_candidates) if t_candidates else 0.0
        problem, s_rows, c_aux = _aux_problem(
            p, rows, sense=1.0, w0=w0, aux0=t0, equality=modified
        )
        sol = nlp.solve(problem, options)
        return _finish_aux(p, sol, s_rows, c_aux, sense=1.0, equality=modified)

    if starts is None:
        return solve_one()
    return _best_of_starts(solve_one, starts)


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


def map_sf_to_sp(sf: SfParams, at, objectives=None, p: PortfolioMop | None = None) -> SpParams:
    """Parameter substitution sending a shortage problem to an SP one.

    ``at`` is the evaluation point of the reference in image space (an
    :class:`ObjectiveVector` or a minimization-form array).  The reference
    is reflected through ``at`` componentwise; with ``at`` equal to the
    reference's own image -- the canonical call -- the reflection is the
    identity and the mapped SP reproduces the shortage optimum with
    t = -delta.  The direction maps componentwise: r = g.
    """
    if isinstance(at, ObjectiveVector):
        if objectives is None and p is not None:
            objectives = p.objectives
        if objectives is None:
            objectives = ("mean", "variance", "skewness")
        at_vec = np.array(
            [OBJECTIVE_SENSES[name] * getattr(at, name) for name in objectives]
        )
    else:
        at_vec = np.asarray(at, dtype=float)
    if sf.reference_objectives is not None:
        c = sf.reference_objectives
    elif p is not None:
        c = p.objective_values(sf.reference_weights)
    else:
        raise ParameterError(
            "pass the PortfolioMop to evaluate a weights-based reference"
        )
    a = 2.0 * at_vec - c
    return SpParams(a=a, r=sf.g.copy())


def pgp_scale_factor(p: PortfolioMop, options: nlp.SolverOptions | None = None) -> float:
    """Return scale kappa such that returns scaled by kappa make the unit
    variance slice attainable (variance scales by kappa^2)."""
    min_var, max_var = _variance_slice_bounds(p, options)
    if min_var <= 0 or max_var <= 0:
        raise SolverError("degenerate covariance; variance normalization impossible")
    return float((min_var * max_var) ** -0.25)


def pgp_efficient_scale(anchors: AnchorSet, variance_index: int = 1) -> float:
    """Scale kappa placing the unit-variance slice inside the efficient
    variance range (geometric middle of the anchor variances).

    :func:`pgp_scale_factor` targets attainability of the slice; this
    variant targets the slice crossing the efficient surface, which the
    goal-programming diagnostics need so that both shortfalls can be
    positive at interior front points.
    """
    variances = anchors.images[:, variance_index]
    lo, hi = float(variances.min()), float(variances.max())
    if lo <= 0 or hi <= 0:
        raise SolverError("anchor variances must be positive")
    return float((lo * hi) ** -0.25)


def _variance_slice_bounds(p: PortfolioMop, options) -> tuple[float, float]:
    """Attainable variance range on the simplex: the minimum-variance QP and
    the largest vertex variance."""
    n = p.n
    sigma = p.moments.sigma
    min_var = _mean_variance_qp(p, 1.0, equal_weights(n), options, mu=np.zeros(n)).value
    max_var = max(float(v @ sigma @ v) for v in simplex_vertices(n))
    return float(min_var), float(max_var)


def _stat_index(p: PortfolioMop, name: str) -> int:
    try:
        return p.objectives.index(name)
    except ValueError:
        raise ParameterError("PGP needs objective %r in the problem" % name) from None


def _pgp_bound_problem(p: PortfolioMop, name: str, n_starts, seed, options):
    """max statistic subject to variance(w) = 1 over the simplex.

    objective_values already carries the minimization sense for mean and
    skewness, so minimizing the selected component maximizes the raw value.
    """
    n = p.n
    sigma = p.moments.sigma
    var_row = nlp.ConstraintSpec(
        fun=lambda x: float(x @ sigma @ x) - 1.0,
        jac=lambda x: 2.0 * (sigma @ x),
        hess=lambda x: 2.0 * sigma,
        name="unit_variance",
    )
    rng = np.random.default_rng(seed)
    starts = [equal_weights(n)] + simplex_vertices(n) + dirichlet_starts(
        n, max(n_starts - 1 - n, 0), rng
    )
    best = minimize_objective(
        p, _stat_index(p, name), starts=starts, options=options, extra_eq=(var_row,)
    )
    # convert back to the raw (maximized) statistic
    return float(OBJECTIVE_SENSES[name] * best.value), best.x


def solve_pgp(
    p: PortfolioMop,
    g: PgpParams,
    *,
    n_starts: int = 8,
    seed: int = 0,
    options: nlp.SolverOptions | None = None,
) -> nlp.ScalarSolution:
    """Two-phase polynomial goal program on the unit variance slice.

    Phase 1 computes z1* = max mean and z3* = max skewness subject to
    variance = 1 (cached in the params when already supplied); phase 2
    minimizes d1**alpha + d3**beta with d1 = z1* - mean, d3 = z3* - skew,
    variance pinned to 1, over the simplex.
    """
    n = p.n
    sigma = p.moments.sigma
    min_var, max_var = _variance_slice_bounds(p, options)
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
        z1_star, w_mean = _pgp_bound_problem(p, "mean", n_starts, seed, options)
        z3_star, _ = _pgp_bound_problem(p, "skewness", n_starts, seed + 1, options)
    g = replace(g, z_stars=(float(z1_star), float(z3_star)))

    mean_idx = _stat_index(p, "mean")
    skew_idx = _stat_index(p, "skewness")
    total = n + 2  # variables (w, d1, d3)
    alpha, beta = float(g.alpha), float(g.beta)

    def _pow(d: float, e: float) -> float:
        return max(d, 0.0) ** e

    def _dpow(d: float, e: float) -> float:
        base = max(d, 1e-16)
        return e * base ** (e - 1.0)

    def _ddpow(d: float, e: float) -> float:
        base = max(d, 1e-16)
        return e * (e - 1.0) * base ** (e - 2.0)

    def fun(z):
        return _pow(z[n], alpha) + _pow(z[n + 1], beta)

    def jac(z):
        out = np.zeros(total)
        out[n] = _dpow(z[n], alpha)
        out[n + 1] = _dpow(z[n + 1], beta)
        return out

    def hess(z):
        out = np.zeros((total, total))
        out[n, n] = _ddpow(z[n], alpha)
        out[n + 1, n + 1] = _ddpow(z[n + 1], beta)
        return out

    def goal_row(stat_idx, d_pos, target, sense):
        # raw_stat(w) + d = target  expressed through the minimization form
        def cfun(z):
            raw = sense * float(p.objective_values(z[:n])[stat_idx])
            return raw + z[d_pos] - target

        def cjac(z):
            out = np.zeros(total)
            out[:n] = sense * p.objective_jacobian(z[:n])[stat_idx]
            out[d_pos] = 1.0
            return out

        def chess(z):
            out = np.zeros((total, total))
            out[:n, :n] = sense * p.objective_hessians(z[:n])[stat_idx]
            return out

        return nlp.ConstraintSpec(fun=cfun, jac=cjac, hess=chess, name="goal")

    var_row = nlp.ConstraintSpec(
        fun=lambda z: float(z[:n] @ sigma @ z[:n]) - 1.0,
        jac=lambda z: np.concatenate([2.0 * (sigma @ z[:n]), [0.0, 0.0]]),
        hess=lambda z: _embed_hess(2.0 * sigma, total, n),
        name="unit_variance",
    )
    # OBJECTIVE_SENSES is involutive, so it also maps minimization values
    # back to raw statistics inside the goal rows.
    mean_row = goal_row(mean_idx, n, float(z1_star), OBJECTIVE_SENSES["mean"])
    skew_row = goal_row(skew_idx, n + 1, float(z3_star), OBJECTIVE_SENSES["skewness"])
    stats0 = p.raw_stats(w_mean)
    x0 = np.concatenate(
        [w_mean, [max(z1_star - stats0.mean, 0.0), max(z3_star - stats0.skewness, 0.0)]]
    )
    lb = np.concatenate([p.lower_bounds(), [0.0, 0.0]])
    problem = nlp.NlpProblem(
        objective=fun,
        gradient=jac,
        hessian=hess,
        x0=x0,
        eq_constraints=(_simplex_constraint(n), mean_row, var_row, skew_row),
        lb=lb,
    )
    sol = nlp.solve(problem, options)
    w = sol.x[:n]
    out = replace(
        sol,
        weights=w.copy(),
        aux_value=None,
        objective_values=p.objective_values(w),
        info={
            **sol.info,
            "z1_star": float(z1_star),
            "z3_star": float(z3_star),
            "d1": float(sol.x[n]),
            "d3": float(sol.x[n + 1]),
        },
    )
    return out


def _embed_hess(h: np.ndarray, total: int, n: int) -> np.ndarray:
    out = np.zeros((total, total))
    out[:n, :n] = h
    return out


@dataclass(frozen=True)
class PgpKktReport:
    """Diagnostic transport of an NBI solution into the PGP first-order
    system.  Reports residual norms; never asserts a pass or fail."""

    applicable: bool
    reason: str
    d1: float
    d3: float
    alpha: float
    beta: float
    kappa: float
    mu: tuple[float, float, float]
    nhat_dot_lambda: float
    stationarity_norm: float
    goal_residuals: tuple[float, float, float]
    mu2_zero_applicable: bool


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
    nan = float("nan")

    def na(reason):
        return PgpKktReport(
            applicable=False,
            reason=reason,
            d1=nan,
            d3=nan,
            alpha=nan,
            beta=nan,
            kappa=nan,
            mu=(nan, nan, nan),
            nhat_dot_lambda=nan,
            stationarity_norm=nan,
            goal_residuals=(nan, nan, nan),
            mu2_zero_applicable=False,
        )

    if g.z_stars is None:
        raise ParameterError("PgpParams.z_stars must be populated (run solve_pgp first)")
    if not nbi_solution.converged:
        return na("NBI solution did not converge")
    w = nbi_solution.weights
    if w is None:
        w = nbi_solution.x[: p.n]
    stats = p.raw_stats(w)
    z1_star, z3_star = g.z_stars
    d1 = float(z1_star - stats.mean)
    d3 = float(z3_star - stats.skewness)
    if d1 <= 0 or d3 <= 0:
        rep = na("degenerate shortfall: d1=%.3g d3=%.3g" % (d1, d3))
        return replace(rep, d1=d1, d3=d3)
    lam = np.asarray(nbi_solution.eq_multipliers[1:], dtype=float)  # goal rows
    if lam.size != p.m:
        return na("NBI multipliers missing")
    nhat_dot = float(nbi.nbar @ lam)
    alpha = _power_root(abs(nhat_dot), d1)
    if alpha is None:
        return replace(na("no exponent alpha solves the fixed point"), d1=d1, d3=d3)
    idx = {name: i for i, name in enumerate(p.objectives)}
    lam_mean = float(lam[idx["mean"]])
    lam_var = float(lam[idx["variance"]]) if "variance" in idx else 0.0
    lam_skew = float(lam[idx["skewness"]])
    # transported multipliers: mu = kappa * (sense-mapped NBI multipliers),
    # with kappa pinned by the d1 stationarity row alpha*d1^(alpha-1)+mu1=0
    denom = OBJECTIVE_SENSES["mean"] * lam_mean  # = -lam_mean
    if abs(denom) < 1e-14:
        return replace(na("mean goal multiplier vanishes; scale undefined"), d1=d1, d3=d3)
    kappa = alpha * d1 ** (alpha - 1.0) / -denom
    mu1 = kappa * OBJECTIVE_SENSES["mean"] * lam_mean
    mu2 = kappa * OBJECTIVE_SENSES["variance"] * lam_var
    mu3 = kappa * OBJECTIVE_SENSES["skewness"] * lam_skew
    beta = _power_root(-mu3, d3) if -mu3 > 0 else None
    if beta is None:
        return replace(
            na("no exponent beta solves the fixed point (mu3=%.3g)" % mu3), d1=d1, d3=d3
        )
    deriv = stats_gradients(w, p.moments)
    stat_comb = (
        mu1 * deriv.grad_mean + mu2 * deriv.grad_variance + mu3 * deriv.grad_skewness
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
