"""Multi-start predictor-corrector continuation along the KKT manifold.

The first-order system traced is the classical multi-objective KKT map
(Hillermeier):  sum_i alpha_i grad f_i(x) = 0 on the feasible tangent space,
sum_i alpha_i = 1, alpha >= 0.  At a KKT point the image tangents of the
front are obtained from the weighted-Hessian system

    W_alpha nu = -J^T mu,      J nu = d,      W_alpha = sum_i alpha_i H_i,

so candidate image directions d live in the column space of
G = J W^-1 J^T restricted to mu with zero sum.  Because J^T alpha = 0 at a
KKT point, G is rank m-1 with alpha spanning its null space; the frame
therefore QR-factorizes the alpha-bordered matrix [alpha | G]: the first
column normalizes alpha and q_2 .. q_m give exactly the m-1 attainable,
mutually orthonormal front-tangent directions d_i = q_{i+1}.

Predictor steps are x + t nu with t = tau / ||J nu||, which makes
consecutive corrected points approximately tau apart in image space.  The
corrector is the min-max second-order descent subproblem (Fliege et al.):

    min t  s.t.  grad F_j(x)^T s + 1/2 s^T hess F_j(x) s <= t  for all j,

solved with the budget row and bound restrictions added and an l-infinity
trust region that keeps the quadratic models honest; a point is
Pareto-critical exactly when the subproblem optimum t* reaches zero.

The budget constraint (sum x = 1) is handled by reduction: gradients,
Hessians and tangents are projected onto the sum-zero subspace, so the
published formulas apply unchanged in the reduced coordinates.
Nonnegativity bounds are handled by facet freezing: once a weight hits its
bound the continuation restricts to that facet.  QR signs are fixed
(nonnegative R diagonal) and archive merges happen in canonical image order,
so a fixed seed reproduces the archive exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import nlp
from .errors import CorrectorStallError, ParameterError, SolverError
from .fronts import FrontApproximation, FrontPoint
from .problem import PortfolioMop
from .scalarization import compute_anchors
from .util import parallel_map, project_to_simplex, sum_zero_basis

__all__ = [
    "SmoothMop",
    "TracerConfig",
    "KktPoint",
    "TangentFrame",
    "PredictorStep",
    "as_smooth_mop",
    "corrector",
    "tangent_frame",
    "predictor",
    "trace",
]

_RIDGE = 1e-8
_CORRECTOR_MAX_ITER = 60
# the corrector's certificate t* is read off the subproblem solution, so the
# subproblem is solved tighter than the solver's defaults
_SUBPROBLEM_OPTIONS = nlp.SolverOptions(tol_kkt=1e-10, tol_feas=1e-11)


@dataclass(frozen=True)
class SmoothMop:
    """Generic smooth multi-objective problem used by the continuation core.

    ``lower`` of None means unbounded below; ``sum_constraint`` adds the
    budget row 1'x = 1.
    """

    m: int
    n: int
    F: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hessians: Callable[[np.ndarray], np.ndarray]
    sum_constraint: bool = False
    lower: Optional[np.ndarray] = None


def as_smooth_mop(p: PortfolioMop) -> SmoothMop:
    return SmoothMop(
        m=p.m,
        n=p.n,
        F=p.objective_values,
        jacobian=p.objective_jacobian,
        hessians=p.objective_hessians,
        sum_constraint=True,
        lower=p.lower_bounds(),
    )


def _coerce_mop(problem) -> SmoothMop:
    if isinstance(problem, SmoothMop):
        return problem
    if isinstance(problem, PortfolioMop):
        return as_smooth_mop(problem)
    raise ParameterError("expected a PortfolioMop or SmoothMop")


@dataclass(frozen=True)
class TracerConfig:
    """Continuation parameters.

    ``tau`` is the target image-space spacing between consecutive points;
    None derives it as 1% of the anchor-image diameter.  ``n_starts``
    bundles are corrected from Dirichlet-sampled seeds; the archive caps at
    ``max_points``.
    """

    tau: Optional[float] = None
    n_starts: int = 8
    max_points: int = 200
    corrector_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.tau is not None and not self.tau > 0:
            raise ParameterError("tau must be positive")
        if self.n_starts < 1:
            raise ParameterError("n_starts must be >= 1")
        if self.max_points < 1:
            raise ParameterError("max_points must be >= 1")
        if not self.corrector_tol > 0:
            raise ParameterError("corrector_tol must be positive")


@dataclass(frozen=True)
class KktPoint:
    """A corrected point on the KKT manifold."""

    x: np.ndarray
    alpha: np.ndarray
    J: np.ndarray
    W: np.ndarray
    kkt_residual: float
    t_star: float
    image: np.ndarray
    active_lower: tuple[int, ...] = ()
    sum_constraint: bool = False


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal image directions with their mu and decision tangents."""

    directions: tuple[np.ndarray, ...]
    mu_vectors: tuple[np.ndarray, ...]
    nu_vectors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PredictorStep:
    point: np.ndarray
    direction_index: int
    sign: float
    step: float
    clipped: bool


def _reduction_basis(n: int, active_lower: tuple[int, ...], sum_constraint: bool) -> np.ndarray:
    """Basis of feasible directions: zero on frozen coordinates, sum-zero on
    the free ones when the budget row is present."""
    free = [i for i in range(n) if i not in active_lower]
    if not free:
        return np.zeros((n, 0))
    if sum_constraint:
        core = sum_zero_basis(len(free))
    else:
        core = np.eye(len(free))
    basis = np.zeros((n, core.shape[1]))
    for row, i in enumerate(free):
        basis[i] = core[row]
    return basis


def _project_feasible(mop: SmoothMop, x: np.ndarray) -> np.ndarray:
    if mop.sum_constraint:
        lower = 0.0 if mop.lower is None else float(mop.lower[0])
        return project_to_simplex(x, lower)
    if mop.lower is not None:
        return np.maximum(x, mop.lower)
    return x


def corrector(point: np.ndarray, problem, tol: float = 1e-8) -> KktPoint:
    """Descend from ``point`` to a Pareto-critical point.

    Each iteration solves the min-max quadratic model subproblem; steps are
    accepted by backtracking until every objective decreases in proportion
    to the certificate t*.  Terminates when t* >= -tol with the trust region
    inactive.  Raises :class:`CorrectorStallError` when a negative
    certificate persists but no acceptable step exists, or after
    ``_CORRECTOR_MAX_ITER`` iterations.
    """
    mop = _coerce_mop(problem)
    n, m = mop.n, mop.m
    x = _project_feasible(mop, np.asarray(point, dtype=float))
    delta = 0.25
    sigma_armijo = 1e-4
    for _ in range(_CORRECTOR_MAX_ITER):
        grads = mop.jacobian(x)
        hessians = mop.hessians(x)
        s, t_raw, t_scaled, alphas, tr_active = _corrector_subproblem(
            mop, x, grads, hessians, delta
        )
        if t_scaled >= -tol and not tr_active:
            return _make_kkt_point(mop, x, alphas, t_raw)
        if t_scaled >= -tol and tr_active:
            delta *= 0.5
            if delta < 1e-10:
                return _make_kkt_point(mop, x, alphas, t_raw)
            continue
        f_now = mop.F(x)
        gamma = 1.0
        accepted = False
        while gamma >= 2.0 ** -24:
            cand = x + gamma * s
            f_cand = mop.F(cand)
            if float(np.max(f_cand - f_now)) <= sigma_armijo * gamma * t_raw:
                x = _project_feasible(mop, cand)
                accepted = True
                break
            gamma *= 0.5
        if accepted:
            delta = min(delta * 1.5, 1.0)
        else:
            delta *= 0.25
            if delta < 1e-12:
                raise CorrectorStallError(
                    "descent certificate %.3e but no acceptable step" % t_scaled
                )
    raise CorrectorStallError("corrector iteration cap reached")


def _corrector_subproblem(mop: SmoothMop, x, grads, hessians, delta):
    """min t over (s, t) with quadratic model rows and feasibility of x + s.

    The rows are normalized by their gradient magnitudes and t is solved in
    units of the smallest row scale, so objectives of very different
    magnitudes (mean vs skewness) condition the subproblem equally.  The
    returned certificate pair is (raw t*, scaled t*).
    """
    n, m = mop.n, mop.m
    total = n + 1
    row_scales = np.array(
        [max(float(np.max(np.abs(grads[j]))), 1e-12) for j in range(m)]
    )
    c_t = float(row_scales.min())
    rows = []
    for j in range(m):
        gj = grads[j]
        hj = hessians[j]
        s_j = float(row_scales[j])

        def fun(z, gj=gj, hj=hj, s_j=s_j):
            s = z[:n]
            return float(c_t * z[-1] - gj @ s - 0.5 * (s @ hj @ s)) / s_j

        def jac(z, gj=gj, hj=hj, s_j=s_j):
            s = z[:n]
            out = np.empty(total)
            out[:n] = (-gj - hj @ s) / s_j
            out[-1] = c_t / s_j
            return out

        def hess(z, hj=hj, s_j=s_j):
            out = np.zeros((total, total))
            out[:n, :n] = -hj / s_j
            return out

        rows.append(nlp.ConstraintSpec(fun=fun, jac=jac, hess=hess, name="model_%d" % j))
    eq = ()
    if mop.sum_constraint:

        def bfun(z):
            return float(z[:n].sum())

        def bjac(z):
            out = np.zeros(total)
            out[:n] = 1.0
            return out

        eq = (
            nlp.ConstraintSpec(
                fun=bfun, jac=bjac, hess=lambda z: np.zeros((total, total)), name="budget"
            ),
        )
    lb = np.full(total, -delta)
    ub = np.full(total, delta)
    if mop.lower is not None:
        lb[:n] = np.maximum(mop.lower - x, -delta)
    lb[-1] = -np.inf
    ub[-1] = np.inf
    problem = nlp.NlpProblem(
        objective=lambda z: float(z[-1]),
        gradient=lambda z: _unit_last(total),
        hessian=lambda z: np.zeros((total, total)),
        x0=np.zeros(total),
        eq_constraints=eq,
        ineq_constraints=tuple(rows),
        lb=lb,
        ub=ub,
    )
    sol = nlp.solve(problem, _SUBPROBLEM_OPTIONS)
    s = sol.x[:n]
    t_scaled = float(sol.x[-1])
    t_raw = c_t * t_scaled
    mu = np.maximum(sol.ineq_multipliers[:m], 0.0) / row_scales
    total_mu = float(mu.sum())
    alphas = mu / total_mu if total_mu > 1e-12 else np.full(m, 1.0 / m)
    at_tr = np.abs(np.abs(s) - delta) <= 1e-9 * max(delta, 1.0)
    if mop.lower is not None:
        at_problem_bound = np.abs(s - (mop.lower - x)) <= 1e-12
        at_tr = at_tr & ~at_problem_bound
    return s, t_raw, t_scaled, alphas, bool(at_tr.any())


def _unit_last(total: int) -> np.ndarray:
    out = np.zeros(total)
    out[-1] = 1.0
    return out


def _make_kkt_point(mop: SmoothMop, x, alphas, t_star) -> KktPoint:
    grads = mop.jacobian(x)
    hessians = mop.hessians(x)
    w_alpha = np.einsum("i,ijk->jk", alphas, hessians)
    active = tuple(
        int(i)
        for i in range(mop.n)
        if mop.lower is not None and x[i] - mop.lower[i] <= 1e-9
    )
    basis = _reduction_basis(mop.n, active, mop.sum_constraint)
    combo = grads.T @ alphas
    if basis.shape[1]:
        resid = float(np.max(np.abs(basis.T @ combo)))
    else:
        resid = 0.0
    return KktPoint(
        x=x.copy(),
        alpha=np.asarray(alphas, dtype=float),
        J=np.asarray(grads, dtype=float),
        W=w_alpha,
        kkt_residual=resid,
        t_star=float(t_star),
        image=mop.F(x),
        active_lower=active,
        sum_constraint=mop.sum_constraint,
    )


def _signed_qr(mat: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def tangent_frame(point: KktPoint) -> TangentFrame:
    """Orthonormal front-tangent directions and their decision tangents.

    Works in the reduced coordinates of the active facet.  A singular
    weighted Hessian is retried with a relative ridge; persistent
    singularity raises :class:`SolverError`.
    """
    m = point.J.shape[0]
    basis = _reduction_basis(point.x.size, point.active_lower, point.sum_constraint)
    if basis.shape[1] == 0:
        raise SolverError("no feasible tangent directions at this point")
    j_red = point.J @ basis
    w_red = basis.T @ point.W @ basis
    w_scale = float(np.max(np.abs(w_red)))
    if w_scale == 0.0:
        raise SolverError("weighted Hessian vanishes; tangent undefined")
    for attempt in range(2):
        try:
            w_use = w_red + attempt * _RIDGE * w_scale * np.eye(w_red.shape[0])
            w_inv_jt = np.linalg.solve(w_use, j_red.T)
            break
        except np.linalg.LinAlgError:
            if attempt:
                raise SolverError("weighted Hessian singular beyond ridge repair")
    gram = j_red @ w_inv_jt  # J W^-1 J^T in reduced coordinates
    bordered = np.column_stack([point.alpha, gram])
    q = _signed_qr(bordered)
    # candidate directions q_2..q_m; keep those reachable through mu with
    # zero sum (the derivative of the alpha normalization)
    mu_basis = sum_zero_basis(m)
    reach = gram @ mu_basis  # m x (m-1)
    directions = []
    mus = []
    nus = []
    n_dirs = min(m - 1, basis.shape[1])
    for i in range(1, 1 + n_dirs):
        d = q[:, i]
        xi, *_ = np.linalg.lstsq(reach, -d, rcond=None)
        mu = mu_basis @ xi
        nu_red = -w_inv_jt @ mu
        jnu = j_red @ nu_red
        if float(np.linalg.norm(jnu)) < 1e-12:
            continue
        directions.append(d)
        mus.append(mu)
        nus.append(basis @ nu_red)
    if not directions:
        raise SolverError("no usable tangent directions (flat image)")
    return TangentFrame(
        directions=tuple(directions), mu_vectors=tuple(mus), nu_vectors=tuple(nus)
    )


def predictor(
    point: KktPoint,
    frame: TangentFrame,
    cfg: TracerConfig,
    problem,
) -> list[PredictorStep]:
    """Predictor points x + t nu in both signs of every tangent direction.

    The step is t = tau / ||J nu||; predictors leaving the feasible set are
    projected back and flagged as clipped.
    """
    if cfg.tau is None:
        raise ParameterError("predictor needs an explicit tau")
    mop = _coerce_mop(problem)
    steps: list[PredictorStep] = []
    for idx, nu in enumerate(frame.nu_vectors):
        jnu = point.J @ nu
        norm = float(np.linalg.norm(jnu))
        if norm < 1e-12:
            continue
        t = cfg.tau / norm
        for sign in (1.0, -1.0):
            raw = point.x + sign * t * nu
            proj = _project_feasible(mop, raw)
            clipped = bool(np.max(np.abs(proj - raw)) > 1e-14)
            steps.append(
                PredictorStep(
                    point=proj,
                    direction_index=idx,
                    sign=sign,
                    step=t,
                    clipped=clipped,
                )
            )
    return steps


def _dedup_insert(archive, images, cand: KktPoint, radius: float) -> bool:
    """Insert unless an archived point with the same active facet lies within
    the dedup radius.  A nearby point on a *different* facet is kept: it is
    the portal through which tracing continues when a weight hits its bound
    (facet restart), and rejecting it would stall the continuation at every
    kink of the front."""
    for pt, img in zip(archive, images):
        if (
            float(np.linalg.norm(cand.image - img)) < radius
            and pt.active_lower == cand.active_lower
        ):
            return False
    archive.append(cand)
    images.append(cand.image)
    return True


def _canonical_order(points: list[KktPoint]) -> list[KktPoint]:
    return sorted(points, key=lambda pt: tuple(pt.image))


def trace(
    problem: PortfolioMop,
    cfg: TracerConfig | None = None,
    *,
    seed: int = 0,
) -> FrontApproximation:
    """Multi-start continuation producing an approximately equidistant front.

    Seeds ``n_starts`` Dirichlet portfolios, corrects each to the KKT
    manifold, then expands every archive point through its tangent frame in
    predictor-corrector waves.  Candidates within tau/2 of an archived image
    are dropped (canonical image ordering first, so the outcome does not
    depend on merge order), and the run stops at ``max_points`` or when no
    direction yields a new point.
    """
    cfg = cfg or TracerConfig()
    if not isinstance(problem, PortfolioMop):
        raise ParameterError("trace expects a PortfolioMop")
    mop = as_smooth_mop(problem)
    anchors = compute_anchors(problem, seed=seed, hull=False)
    tau = cfg.tau
    if tau is None:
        tau = 0.01 * anchors.image_diameter
        if not tau > 0:
            raise SolverError("anchor images coincide; cannot scale tau")
        cfg = replace(cfg, tau=tau)
    rng = np.random.default_rng(seed)
    # bundle seeds: anchor-pair midpoints reach front components that hang
    # off the hull edges (the corrector's descent flow rarely enters them
    # from interior draws), plus Dirichlet samples for the interior
    seeds = [
        0.5 * (anchors.weights[i] + anchors.weights[j])
        for i in range(problem.m)
        for j in range(i + 1, problem.m)
    ]
    seeds += [rng.dirichlet(np.ones(problem.n)) for _ in range(cfg.n_starts)]

    def correct_seed(w):
        try:
            return corrector(w, mop, cfg.corrector_tol)
        except (CorrectorStallError, SolverError):
            return None

    corrected = [pt for pt in parallel_map(correct_seed, seeds) if pt is not None]
    if not corrected:
        raise SolverError("no seed portfolio could be corrected to the KKT manifold")
    archive: list[KktPoint] = []
    images: list[np.ndarray] = []
    for pt in _canonical_order(corrected):
        if len(archive) >= cfg.max_points:
            break
        _dedup_insert(archive, images, pt, tau / 2.0)
    frontier = list(archive)
    while frontier and len(archive) < cfg.max_points:
        wave, frontier = frontier, []

        def expand(pt: KktPoint):
            out = []
            try:
                frame = tangent_frame(pt)
            except SolverError:
                return out
            for step in predictor(pt, frame, cfg, mop):
                try:
                    out.append(corrector(step.point, mop, cfg.corrector_tol))
                except (CorrectorStallError, SolverError):
                    continue
            return out

        candidates: list[KktPoint] = []
        for group in parallel_map(expand, wave):
            candidates.extend(group)
        for cand in _canonical_order(candidates):
            if len(archive) >= cfg.max_points:
                break
            if _dedup_insert(archive, images, cand, tau / 2.0):
                frontier.append(cand)
    # facet portals may have admitted twins closer than tau/2; with the
    # expansion finished they are no longer needed, so thin to a clean
    # tau/2-separated set in canonical order
    thinned: list[KktPoint] = []
    thin_images: list[np.ndarray] = []
    for pt in _canonical_order(archive):
        if all(float(np.linalg.norm(pt.image - img)) >= tau / 2.0 for img in thin_images):
            thinned.append(pt)
            thin_images.append(pt.image)
    archive = thinned
    archive.sort(key=lambda pt: float(pt.image[0]))
    points = [
        FrontPoint.at(
            problem,
            pt.x,
            {"t_star": pt.t_star, "kkt_residual": pt.kkt_residual},
            {"alpha_%d" % (i + 1): float(a) for i, a in enumerate(pt.alpha)},
        )
        for pt in archive
    ]
    return FrontApproximation(
        method="tracer",
        objectives=problem.objectives,
        points=points,
        metadata={
            "tau": float(tau),
            "n_starts": cfg.n_starts,
            "max_points": cfg.max_points,
            "seed": seed,
        },
    )
