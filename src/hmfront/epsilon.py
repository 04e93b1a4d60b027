"""Adaptive epsilon-constraint driver with multiplier-scaled refinement.

The driver covers three-objective problems: two objectives are bounded by a
grid of epsilon values and the third is minimized (skewness is always the
minimized objective, in minimization form -skewness, with the other two
constrained).  Each bounded objective (-mean, variance or kurtosis) is
convex on the simplex: -mean is linear, and variance and kurtosis are means
of (c_t'w)^2 and (c_t'w)^4 over the centered returns c_t.  So a grid range
needs no multistart: the maximum of a convex function over the simplex is
at a vertex, read there without a solve, and the minimum is one local solve
from equal weights.  Cells are laid out at

    eps_i = eps_min_i + L_i/2 + l_i * L_i,   L_i = (eps_max_i - eps_min_i)/N_i

and every cell solves

    min f_minimized(x)  s.t.  f_1(x) <= eps_1,  f_2(x) <= eps_2,  x in simplex.

Infeasible cells are counted and left out of the archive.  A grid row is
swept in increasing eps_2, each cell warm-started from its left neighbour,
and ends at its first converged cell whose eps_2 multiplier is exactly 0:
the rest of the row would return that cell's point again, so those cells
are counted as converged duplicates (``FrontArchive.skipped``) without a
solve.  This is the bypass of AUGMECON (Mavrotas 2009).

Refinement around an archived entry places (2k+1)^2 - 1 new epsilon points
spaced ``alpha / (1 + mu_i^2)`` along axis i, where mu_i is the archived
Lagrange multiplier of the corresponding epsilon row: strongly binding
constraints shrink the local spacing so the image-space spacing stays near
``alpha``.  The interactive "pick a point" step is replaced by a batch
policy that repeatedly refines the entry with the widest nearest-neighbour
image gap.

Grid cells are weakly efficient only; dominated points can appear on
non-convex instances, so the archive exposes both raw and dominance-filtered
views.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import nlp
from .errors import ParameterError, SolverError
from .problem import PortfolioMop
from .quality import nearest_gaps
from .scalarization import SpParams, _Goal, _scaled_problem, minimize_objective
from .util import equal_weights, parallel_map, simplex_vertices

# default grid counts (N1, N2) of run_adaptive_epsilon
GRID_N = (50, 50)

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
    """
    n1, n2 = grid.N
    archive = FrontArchive(problem=p, grid=grid)

    def solve_row(l1: int):
        out = []
        x0 = equal_weights(p.n)
        for l2 in range(n2):
            eps = grid.centers[l1 * n2 + l2]
            sol = _solve_cell(p, eps, grid.constrained, grid.minimized, x0)
            out.append((eps, sol))
            if sol.converged:
                if sol.ineq_multipliers[1] == 0.0:
                    break
                x0 = sol.x
        return out

    for row in parallel_map(solve_row, range(n1)):
        for eps, sol in row:
            archive.record(eps, sol)
        archive.record_skipped(n2 - len(row))
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
    """
    entry = req.center
    if not any(e is entry or np.array_equal(e.eps, entry.eps) for e in archive.entries):
        raise ParameterError("refinement center is not an archive entry")
    p = archive.problem
    grid = archive.grid

    def solve_offset(eps):
        sol = _solve_cell(p, eps, grid.constrained, grid.minimized, entry.x)
        return eps, sol

    results = parallel_map(solve_offset, refinement_lattice(entry, req.alpha, req.k))
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
    nearest-neighbour image gap of the initial archive.
    """
    if rounds < 0:
        raise ParameterError("rounds must be >= 0")
    _check_refinement(alpha, k)
    grid = build_grid(p, N)
    archive = solve_grid(p, grid)
    if not archive.entries:
        return archive
    if alpha is None and rounds > 0:
        pts = archive.image()
        if len(pts) >= 2:
            alpha = float(np.median(nearest_gaps(pts)))
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


def epsilon_as_sp(eps, minimized_index: int = 2, m: int = 3) -> SpParams:
    """Express a grid cell as Pascoletti-Serafini parameters.

    The reference takes the epsilon bounds on the constrained coordinates
    and zero on the minimized one; the direction is the unit vector of the
    minimized coordinate, so the SP optimum value equals the cell optimum.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (m - 1,):
        raise ParameterError("eps must have length %d" % (m - 1))
    a = np.insert(eps, minimized_index, 0.0)
    r = np.zeros(m)
    r[minimized_index] = 1.0
    return SpParams(a=a, r=r)
