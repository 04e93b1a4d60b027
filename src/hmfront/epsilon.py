"""Adaptive epsilon-constraint driver with multiplier-scaled refinement.

The driver covers three-objective problems: two objectives are bounded by a
grid of epsilon values and the third is minimized (skewness is always the
minimized objective, in minimization form -skewness, with the other two
constrained).  Each bounded objective (-mean, variance or kurtosis) is
convex on the simplex (see :data:`hmfront.problem.CONVEX_OBJECTIVES`), so a
grid range needs no multistart: its maximum is at a vertex, read there
without a solve, and its minimum is one solve from equal weights.  Cells
are laid out at

    eps_i = eps_min_i + L_i/2 + l_i * L_i,   L_i = (eps_max_i - eps_min_i)/N_i

and every cell solves

    min f_minimized(x)  s.t.  f_1(x) <= eps_1,  f_2(x) <= eps_2,  x in simplex.

Infeasible cells are counted and left out of the archive.  A grid row is
swept in increasing eps_2, each cell warm-started from its left neighbour,
and ends at its first converged cell whose eps_2 multiplier is exactly 0:
the rest of the row would return that cell's point again, so those cells
are counted as converged duplicates (``FrontArchive.skipped``) without a
solve.  This is the bypass of AUGMECON (Mavrotas 2009).

Down a column it is eps_1 that grows, and a column bypass on the multiplier
alone is not safe on this non-convex problem: a cell solved from its left
neighbour can reach another local solution than the cell above it.  So a
cell is replayed from an earlier cell of its column only where the solve is
proven the same: the earlier cell's eps_1 row took no part in its solve
(``ScalarSolution.inert_rows``) and both start from the same weights.  A
replayed cell is recorded as if it had been solved: it counts in
``attempted``, not in ``skipped``, and every output is unchanged.

An infeasible cell is proven infeasible without a solve where it can be.
Write F_a, F_b for the two bounded objectives (``grid.constrained``, bounded
by eps_1 and eps_2).  Both are convex, so for any point x^ and any lam >= 0
the function h = F_b + lam * F_a is convex, and at every simplex point w

    h(w) >= h(x^) + grad h(x^)'(w - x^) >= h(x^) - gap,
    gap = grad h(x^)'x^ - min_k grad h(x^)_k,

because grad h(x^)'w is an average of the entries of grad h(x^).  A simplex
point with F_a(w) <= e_a therefore has F_b(w) >= h(x^) - gap - lam * e_a: a
supporting line of the (F_a, F_b) frontier, valid for every e_a (the duality
gap of Frank and Wolfe; Jaggi 2013).  The grid sweep solves one line per row
whose first cell no converged cell proves feasible: the convex problem min
F_b s.t. F_a <= eps_1 of that row, with lam its multiplier.  A cell whose
eps_2 lies below a line by more than :func:`nlp.solve`'s verdict tolerates
is one that solve would report infeasible, so it is recorded as infeasible
without an SQP run (:func:`_cell_solver`), and every output is unchanged.
AUGMECON2 (Mavrotas and Florios 2013) skips cells on the same kind of
argument.

Refinement around an archived entry places (2k+1)^2 - 1 new epsilon points
spaced ``alpha / (1 + mu_i^2)`` along axis i, where mu_i is the archived
Lagrange multiplier of the corresponding epsilon row: strongly binding
constraints shrink the local spacing so the image-space spacing stays near
``alpha``.  The interactive "pick a point" step is replaced by a batch
policy that repeatedly refines the entry with the widest nearest-neighbour
image gap.  A refinement that repeats the archive's last one (same centre,
spacing and radius) records that one's solves again.

Grid cells are weakly efficient only; dominated points can appear on
non-convex instances, so the archive exposes both raw and dominance-filtered
views.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import nlp
from .errors import ParameterError, SolverError
from .problem import OBJECTIVE_DEGREES, PortfolioMop
from .quality import nearest_gaps
from .scalarization import SpParams, _Goal, _grad_scales, _scaled_problem, minimize_objective
from .util import equal_weights, simplex_vertices

# default grid counts (N1, N2) of run_adaptive_epsilon
GRID_N = (50, 50)
# most cells one run_adaptive_epsilon may schedule, grid and refinements
# together: a 500 x 500 grid
_MAX_CELLS = 250_000
# rounding allowance of the infeasibility certificate, relative to the size
# of the terms its bound sums (see _cell_solver)
_ROUNDING = 1e-12

__all__ = [
    "EpsilonGrid",
    "ArchiveEntry",
    "FrontArchive",
    "RefinementRequest",
    "build_grid",
    "solve_grid",
    "refine",
    "run_adaptive_epsilon",
    "epsilon_as_sp",
]


@dataclass(frozen=True)
class EpsilonGrid:
    """Cell-center grid over the two constrained objectives."""

    N: tuple[int, int]
    eps_min: np.ndarray
    eps_max: np.ndarray
    L: np.ndarray
    centers: np.ndarray  # (N1*N2, 2), row-major in (l1, l2)
    constrained: tuple[int, int]
    minimized: int
    # the supporting lines of the bounded pair's frontier that the last
    # solve_grid on this grid solved, each (offset, slope, size); refine
    # tests its cells against them (see _cell_solver)
    lines: list = field(default_factory=list, compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.N[0] * self.N[1]


@dataclass(frozen=True)
class ArchiveEntry:
    """One converged cell: epsilon, solution weights, epsilon-row multipliers."""

    eps: np.ndarray
    x: np.ndarray
    multipliers: np.ndarray
    image: np.ndarray


@dataclass
class FrontArchive:
    """Converged grid entries plus bookkeeping; image is deduplicated.

    ``attempted`` counts every cell, solved or not; ``skipped`` counts the
    cells the grid sweep did not solve because their point was already
    archived (see :func:`solve_grid`).
    """

    problem: PortfolioMop
    grid: EpsilonGrid
    entries: list[ArchiveEntry] = field(default_factory=list)
    attempted: int = 0
    infeasible_count: int = 0
    failed_count: int = 0
    skipped: int = 0
    _keys: set = field(default_factory=set)
    # the last refinement's centre, alpha, k and (eps, solution) per cell
    _last_refinement: Optional[tuple] = None

    def image(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, self.problem.m))
        return np.array([e.image for e in self.entries])

    def _key(self, image: np.ndarray) -> tuple:
        return tuple(np.floor(image / 1e-9 + 0.5).astype(np.int64))

    def add(self, entry: ArchiveEntry) -> bool:
        key = self._key(entry.image)
        if key in self._keys:
            return False
        self._keys.add(key)
        self.entries.append(entry)
        return True

    def record(self, eps: np.ndarray, sol: nlp.ScalarSolution) -> bool:
        """Count one solved cell and archive it if it converged; returns
        whether a new entry was added."""
        self.attempted += 1
        if sol.status is nlp.SolveStatus.INFEASIBLE:
            self.infeasible_count += 1
            return False
        if not sol.converged:
            self.failed_count += 1
            return False
        return self.add(
            ArchiveEntry(
                eps=eps.copy(),
                x=sol.x.copy(),
                multipliers=sol.ineq_multipliers.copy(),
                image=sol.objective_values,
            )
        )

    def record_skipped(self, count: int) -> None:
        """Count ``count`` cells whose point is already archived, without a
        solve, as converged duplicates."""
        self.attempted += count
        self.skipped += count

    def sort(self) -> None:
        self.entries.sort(key=lambda e: (float(e.eps[0]), float(e.eps[1])))


@dataclass(frozen=True)
class RefinementRequest:
    """Neighbourhood refinement around an archived entry: image-space spacing
    alpha > 0 and integer radius k >= 1 (yields (2k+1)^2 - 1 new cells)."""

    center: ArchiveEntry
    alpha: float
    k: int = 1

    def __post_init__(self) -> None:
        _check_refinement(self.alpha, self.k)


def _check_refinement(alpha: float | None, k: int) -> None:
    """Range-check a refinement's spacing ``alpha`` (``None``: the driver
    picks it) and radius ``k``."""
    if alpha is not None and not alpha > 0:
        raise ParameterError("alpha must be positive")
    if k < 1:
        raise ParameterError("k must be >= 1")


def _range_solves(p: PortfolioMop, idx: int) -> tuple[float, float]:
    """Range of the convex objective ``idx`` over the simplex: the largest
    vertex value, and the minimum from one solve started at equal weights."""
    hi = max(float(p.objective_values(v)[idx]) for v in simplex_vertices(p.n))
    lo = minimize_objective(p, idx, starts=[equal_weights(p.n)]).value
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise SolverError("objective range solve returned non-finite bound")
    if hi - lo <= 1e-15:
        raise SolverError("objective %d is constant on the simplex; grid degenerate" % idx)
    return float(lo), hi


def build_grid(p: PortfolioMop, N: tuple[int, int]) -> EpsilonGrid:
    """Lay out the epsilon grid; skewness is the minimized objective.

    The two bounded objectives are convex (see the module docstring): each
    range is the largest vertex value and one minimize solve, so a grid
    takes two solves and draws no random starts.
    """
    if p.m != 3:
        raise ParameterError("the epsilon grid driver needs exactly 3 objectives")
    n1, n2 = int(N[0]), int(N[1])
    if n1 < 1 or n2 < 1:
        raise ParameterError("grid counts must be >= 1")
    if "skewness" not in p.objectives:
        raise ParameterError("minimized objective 'skewness' not in problem")
    min_idx = p.objectives.index("skewness")
    constrained = tuple(i for i in range(3) if i != min_idx)
    eps_min = np.zeros(2)
    eps_max = np.zeros(2)
    for pos, idx in enumerate(constrained):
        eps_min[pos], eps_max[pos] = _range_solves(p, idx)
    counts = (n1, n2)
    L = np.array([(eps_max[i] - eps_min[i]) / counts[i] for i in range(2)])
    centers = np.empty((n1 * n2, 2))
    row = 0
    for l1 in range(n1):
        c1 = eps_min[0] + L[0] / 2.0 + l1 * L[0]
        for l2 in range(n2):
            centers[row, 0] = c1
            centers[row, 1] = eps_min[1] + L[1] / 2.0 + l2 * L[1]
            row += 1
    return EpsilonGrid(
        N=(n1, n2),
        eps_min=eps_min,
        eps_max=eps_max,
        L=L,
        centers=centers,
        constrained=constrained,
        minimized=min_idx,
    )


def _solve_cell(
    p: PortfolioMop,
    eps: np.ndarray,
    constrained: tuple[int, int],
    minimized: int,
    x0: np.ndarray,
) -> nlp.ScalarSolution:
    """Solve one cell from ``x0``.  Rows and objective are normalized to
    unit gradient scale at ``x0`` internally; the reported value is the raw
    minimized objective and every multiplier is in raw units."""
    goals = [_Goal(idx, -1.0, float(eps[pos])) for pos, idx in enumerate(constrained)]
    problem, finish = _scaled_problem(p, x0, goals, objective=(minimized, 1.0))
    return finish(nlp.solve(problem))


def _support_line(
    p: PortfolioMop, grid: EpsilonGrid, e_a: float, x0: np.ndarray
) -> tuple[Optional[tuple], np.ndarray]:
    """One supporting line of the bounded pair's frontier, from the convex
    solve min F_b s.t. F_a <= ``e_a`` over the simplex started at ``x0``.

    Returns the line ``(offset, slope, size)`` and the solve's point: every
    simplex point with F_a(w) <= e has F_b(w) >= offset - slope * e (see the
    module docstring), and ``size`` sums the magnitudes of the terms that
    make up ``offset``.  The line holds whatever the solve's outcome, with
    x^ its point and lam its multiplier (0 if negative); it is ``None``
    where it is not finite, so that it can never prove a cell infeasible.
    """
    a, b = grid.constrained
    problem, finish = _scaled_problem(p, x0, [_Goal(a, -1.0, e_a)], objective=(b, 1.0))
    sol = finish(nlp.solve(problem))
    x = sol.x
    slope = max(float(sol.ineq_multipliers[0]), 0.0)
    f, jac = sol.objective_values, p.objective_jacobian(x)
    grad = jac[b] + slope * jac[a]
    at_x, least = float(grad @ x), float(grad.min())
    offset = float(f[b]) + slope * float(f[a]) - (at_x - least)
    size = abs(float(f[b])) + slope * abs(float(f[a])) + float(abs(grad) @ abs(x)) + abs(least)
    return ((offset, slope, size) if math.isfinite(offset + size) else None), x


def _stretch(value: float, degree: int) -> tuple[float, float]:
    """``value * t**degree`` at both ends of the budget row's tolerance,
    ``t = 1 -+ nlp._INFEASIBLE_TOL``: the extremes over that range."""
    tol = nlp._INFEASIBLE_TOL
    return value * (1.0 - tol) ** degree, value * (1.0 + tol) ** degree


def _certified(p: PortfolioMop, grid: EpsilonGrid, eps: np.ndarray, x0: np.ndarray) -> bool:
    """Whether a line of ``grid.lines`` proves that :func:`_solve_cell`
    would report the cell ``eps``, started at ``x0``, infeasible (see
    :func:`_cell_solver` for the proof and its margin)."""
    lines = grid.lines
    e_a, e_b = float(eps[0]), float(eps[1])
    # the margin only lowers a line's bound and raises eps_2, so a line that
    # does not clear eps_2 without it proves nothing
    if not lines or max(c - lam * e_a for c, lam, _ in lines) <= e_b:
        return False
    a, b = grid.constrained
    d_a, d_b = OBJECTIVE_DEGREES[p.objectives[a]], OBJECTIVE_DEGREES[p.objectives[b]]
    tol = nlp._INFEASIBLE_TOL
    scales = _grad_scales(p.objective_jacobian(x0))
    a_top = max(_stretch(e_a + tol * float(scales[a]), -d_a))
    b_top = e_b + tol * float(scales[b])
    for c, lam, size in lines:
        bound = min(_stretch(c - lam * a_top, d_b))
        if bound - b_top > _ROUNDING * (size + lam * abs(a_top) + abs(b_top)):
            return True
    return False


def _certified_infeasible(p: PortfolioMop, x0: np.ndarray) -> nlp.ScalarSolution:
    """The result of a cell proven infeasible without an SQP run: ``x`` is
    its start, value and residuals are NaN, no multiplier and no row inert."""
    n = p.n
    return nlp.ScalarSolution(
        x=x0.copy(),
        value=math.nan,
        eq_multipliers=np.zeros(1),
        ineq_multipliers=np.zeros(2),
        lb_multipliers=np.zeros(n),
        ub_multipliers=np.zeros(n),
        status=nlp.SolveStatus.INFEASIBLE,
        kkt_residual=math.nan,
        constraint_violation=math.nan,
        comp_slackness=math.nan,
        n_iter=0,
        message="proven infeasible by a supporting line of the bounded pair's frontier",
        inert_rows=np.zeros(2, dtype=bool),
    )


def _cell_solver(p: PortfolioMop, grid: EpsilonGrid):
    """The cell solve of one sweep, ``solve(eps, x0)``, which replays a cell
    whose solve is known, and proves a cell infeasible where it can, instead
    of solving it.

    A cell's ``eps_1`` row is ``(eps_1 - F_1(x)) / s_1``, with ``s_1`` read
    at ``x0``: a larger ``eps_1`` raises its value at every point and leaves
    its gradient and Hessian as they are.  When the row was inert in a solve
    (``ScalarSolution.inert_rows[0]``, see :func:`nlp.minimize`), a cell with
    the same ``eps_2`` float, an ``eps_1`` no smaller and a start ``x0`` of
    the same bytes therefore gives the same solve to the last bit.  The
    sweep keeps, per ``eps_2``, the last solve whose ``eps_1`` row was inert,
    with its ``eps_1`` and the bytes of its ``x0``, and returns that solution
    for every such cell.

    A cell that is not replayed is tested against the supporting lines of
    ``grid.lines`` (:func:`_support_line`).  A line ``(c, lam)`` says that
    every simplex point u with F_a(u) <= e has F_b(u) >= c - lam * e: with
    h = F_b + lam * F_a convex and x^ the line's point, h(u) >= h(x^) +
    grad h(x^)'(u - x^) >= h(x^) - gap = c, since grad h(x^)'u >= min_k grad
    h(x^)_k on the simplex.  :func:`nlp.solve` reports a cell infeasible
    unless it reaches a point x >= 0 whose rows are violated by at most
    ``nlp._INFEASIBLE_TOL`` (tol): the budget row, |sum(x) - 1| <= tol, and
    the goal rows, F_i(x) <= eps_i + tol * s_i, with the row scales ``s_i``
    of :func:`_scaled_problem` read at ``x0``.  Such an x is t * u with u on
    the simplex and t in [1 - tol, 1 + tol], and F_i(x) = t**d_i * F_i(u),
    with d_i the degree of F_i (:data:`~hmfront.problem.OBJECTIVE_DEGREES`).
    So F_a(u) <= A, the largest of (eps_1 + tol * s_a) / t**d_a over t;
    then F_b(u) >= c - lam * A, and F_b(x) >= B, the least of t**d_b * (c -
    lam * A) over t.  Where B exceeds eps_2 + tol * s_b, by more than
    ``_ROUNDING`` times the size of the terms summed, no such x exists: the
    cell's SQP run and its restoration both end above tol, and the solve
    reports it infeasible.  The cell is then returned as infeasible without
    an SQP run (:func:`_certified_infeasible`).  Where the line falls below
    ``eps_2`` before the margin is taken, nothing is read; a cell that a
    converged cell proves feasible always ends there, up to the
    tolerance of that solve.
    """
    memo = {}  # eps_2 bytes -> (eps_1, x0 bytes, solution)

    def solve(eps: np.ndarray, x0: np.ndarray) -> nlp.ScalarSolution:
        column, start = eps[1].tobytes(), x0.tobytes()
        known = memo.get(column)
        if known is not None and known[0] <= eps[0] and known[1] == start:
            return known[2]
        if _certified(p, grid, eps, x0):
            return _certified_infeasible(p, x0)
        sol = _solve_cell(p, eps, grid.constrained, grid.minimized, x0)
        if sol.inert_rows[0]:
            memo[column] = (float(eps[0]), start, sol)
        return sol

    return solve


def solve_grid(p: PortfolioMop, grid: EpsilonGrid) -> FrontArchive:
    """Solve the grid cells; archive converged entries with multipliers.

    Cells within a grid row are warm-started from their left neighbour's
    solution; each row starts from equal weights.  Infeasible cells are
    counted and not archived.

    A row ends at its first converged cell whose ``eps_2`` multiplier is
    exactly 0 (the AUGMECON bypass): ``eps_2`` only grows along the row, so
    that cell's point satisfies the KKT conditions of every later cell, and
    each later cell would be warm-started from it.  The later cells are
    counted in ``attempted`` and ``skipped`` as converged duplicates,
    without a solve.

    Down a column ``eps_1`` only grows, and a cell whose solve the cell above
    it (or one further up) proves identical is replayed from it
    (:func:`_cell_solver`).  A replayed cell is recorded exactly as if it
    had been solved: it counts in ``attempted`` and not in ``skipped``, and
    the archive is the same.

    Before a row whose first cell no converged cell proves feasible, the
    sweep solves a supporting line at the row's ``eps_1``
    (:func:`_support_line`), each started from the previous line's point,
    into ``grid.lines``, which it empties first.  Once a row's first cell
    converged, the first cell of every later row (a larger ``eps_1``, the
    same ``eps_2``) is feasible.  A cell the lines prove infeasible is
    recorded as infeasible without a solve (:func:`_cell_solver`).
    """
    n1, n2 = grid.N
    archive = FrontArchive(problem=p, grid=grid)
    solve = _cell_solver(p, grid)
    grid.lines.clear()
    x_line = equal_weights(p.n)
    first_feasible = False  # whether a row's first cell converged
    for l1 in range(n1):
        x0 = equal_weights(p.n)
        if not first_feasible:
            line, x_line = _support_line(p, grid, float(grid.centers[l1 * n2, 0]), x_line)
            if line is not None:
                grid.lines.append(line)
        for l2 in range(n2):
            eps = grid.centers[l1 * n2 + l2]
            sol = solve(eps, x0)
            archive.record(eps, sol)
            if sol.converged:
                first_feasible = first_feasible or l2 == 0
                if sol.ineq_multipliers[1] == 0.0:
                    archive.record_skipped(n2 - 1 - l2)
                    break
                x0 = sol.x
    archive.sort()
    return archive


def refinement_lattice(entry: ArchiveEntry, alpha: float, k: int) -> list[np.ndarray]:
    """Epsilon points refined around an entry: a (2k+1)^2 - 1 lattice with
    per-axis spacing alpha / (1 + mu_i^2) from the archived multipliers, so
    strongly binding constraints shrink the parameter spacing."""
    mu1, mu2 = float(entry.multipliers[0]), float(entry.multipliers[1])
    step1 = alpha / (1.0 + mu1 ** 2)
    step2 = alpha / (1.0 + mu2 ** 2)
    return [
        np.array([entry.eps[0] + i * step1, entry.eps[1] + j * step2])
        for i in range(-k, k + 1)
        for j in range(-k, k + 1)
        if (i, j) != (0, 0)
    ]


def refine(archive: FrontArchive, req: RefinementRequest) -> FrontArchive:
    """Augment the archive around one entry.

    New epsilon points come from :func:`refinement_lattice`; the centre cell
    itself is excluded.  All-infeasible (or all-duplicate) neighbourhoods
    leave the archive unchanged and emit a warning.

    Every cell starts from the centre's weights, and the lattice runs down
    each ``eps_2`` column in increasing ``eps_1``, so a cell is replayed
    where :func:`_cell_solver` proves its solve identical to one above it.
    A request for the same centre, ``alpha`` and ``k`` as the archive's
    last refinement has the same cells and the same solves, so those are
    recorded again without a solve.  Replayed cells count in ``attempted``
    as solved, not in ``skipped``, and the archive is the same.
    """
    entry = req.center
    if not any(e is entry or np.array_equal(e.eps, entry.eps) for e in archive.entries):
        raise ParameterError("refinement center is not an archive entry")
    last = archive._last_refinement
    if last is not None and last[0] is entry and last[1:3] == (req.alpha, req.k):
        results = last[3]
    else:
        solve = _cell_solver(archive.problem, archive.grid)
        lattice = refinement_lattice(entry, req.alpha, req.k)
        results = [(eps, solve(eps, entry.x)) for eps in lattice]
        archive._last_refinement = (entry, req.alpha, req.k, results)
    added = sum(archive.record(eps, sol) for eps, sol in results)
    if added == 0:
        warnings.warn("refinement produced no new feasible points", stacklevel=2)
    archive.sort()
    return archive


def _widest_gap_entry(archive: FrontArchive) -> Optional[ArchiveEntry]:
    pts = archive.image()
    if len(pts) < 2:
        return archive.entries[0] if archive.entries else None
    return archive.entries[int(np.argmax(nearest_gaps(pts)))]


def _median(values: np.ndarray) -> float:
    """The median of ``values``, the number ``np.median`` gives, without
    its first-call import of ``numpy.ma`` (about 13 ms per process)."""
    v = np.sort(values)
    mid = v.size // 2
    return float(v[mid]) if v.size % 2 else float((v[mid - 1] + v[mid]) / 2.0)


def run_adaptive_epsilon(
    p: PortfolioMop,
    N: tuple[int, int] = GRID_N,
    *,
    alpha: float | None = None,
    k: int = 1,
    rounds: int = 5,
) -> FrontArchive:
    """Grid sweep plus ``rounds`` batch refinements at the widest image gap.

    When ``alpha`` is not given and ``rounds > 0`` it defaults to the median
    nearest-neighbour image gap of the initial archive.  A run may schedule
    at most ``_MAX_CELLS`` cells, the grid's N1 * N2 plus (2k+1)^2 - 1 per
    round, counted before the grid is built.
    """
    if rounds < 0:
        raise ParameterError("rounds must be >= 0")
    _check_refinement(alpha, k)
    # a count below 1 is left to build_grid to reject
    cells = max(int(N[0]), 0) * max(int(N[1]), 0) + rounds * ((2 * k + 1) ** 2 - 1)
    if cells > _MAX_CELLS:
        raise ParameterError(
            "the epsilon grid and its refinements would have %d cells, more than %d"
            % (cells, _MAX_CELLS)
        )
    grid = build_grid(p, N)
    archive = solve_grid(p, grid)
    if not archive.entries:
        return archive
    if alpha is None and rounds > 0:
        pts = archive.image()
        if len(pts) >= 2:
            alpha = _median(nearest_gaps(pts))
        else:
            alpha = float(np.linalg.norm(grid.L))
        alpha = max(alpha, 1e-12)
    for _ in range(rounds):
        entry = _widest_gap_entry(archive)
        if entry is None:
            break
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            refine(archive, RefinementRequest(center=entry, alpha=alpha, k=k))
    return archive


def epsilon_as_sp(eps, minimized_index: int = 2) -> SpParams:
    """Express a grid cell as Pascoletti-Serafini parameters.

    ``eps`` bounds the ``eps.size`` constrained objectives, so the image
    space has ``eps.size + 1`` coordinates.  The reference takes the epsilon
    bounds on the constrained coordinates and zero on the minimized one; the
    direction is the unit vector of the minimized coordinate, so the SP
    optimum value equals the cell optimum.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ParameterError("eps must be a nonempty vector")
    m = eps.size + 1
    if not 0 <= minimized_index < m:
        raise ParameterError("minimized_index must lie in 0..%d" % eps.size)
    a = np.insert(eps, minimized_index, 0.0)
    r = np.zeros(m)
    r[minimized_index] = 1.0
    return SpParams(a=a, r=r)
