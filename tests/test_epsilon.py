"""Adaptive epsilon-constraint grid, refinement and the SP special case."""

import numpy as np
import pytest

from hmfront import ParameterError, SolveStatus
from hmfront import epsilon as em
from hmfront import scalarization as sc
from hmfront.util import equal_weights
from oracles import brute_nondominated_mask, relative_stationarity, simplex_sweep


@pytest.fixture(scope="module")
def grid(convex_mop):
    return em.build_grid(convex_mop, (6, 6), seed=0)


@pytest.fixture(scope="module")
def archive(convex_mop, grid):
    return em.solve_grid(convex_mop, grid)


def test_grid_center_formula_exact():
    eps_min = np.array([0.0, 0.0])
    eps_max = np.array([1.0, 1.0])
    L = np.array([0.5, 0.5])
    # centers must reproduce eps_min + L/2 + l*L bit for bit
    g = em.EpsilonGrid(
        N=(2, 2),
        eps_min=eps_min,
        eps_max=eps_max,
        L=L,
        centers=np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]),
        constrained=(0, 1),
        minimized=2,
    )
    for row, (l1, l2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert g.centers[row, 0] == eps_min[0] + L[0] / 2.0 + l1 * L[0]
        assert g.centers[row, 1] == eps_min[1] + L[1] / 2.0 + l2 * L[1]


def test_build_grid_centers_match_formula(convex_mop, grid):
    n1, n2 = grid.N
    row = 0
    for l1 in range(n1):
        for l2 in range(n2):
            assert grid.centers[row, 0] == grid.eps_min[0] + grid.L[0] / 2.0 + l1 * grid.L[0]
            assert grid.centers[row, 1] == grid.eps_min[1] + grid.L[1] / 2.0 + l2 * grid.L[1]
            row += 1
    assert grid.size == n1 * n2


def test_build_grid_single_cell(convex_mop):
    g = em.build_grid(convex_mop, (1, 1), seed=0)
    assert g.size == 1
    assert g.centers[0, 0] == g.eps_min[0] + g.L[0] / 2.0


def test_build_grid_requires_three_objectives(mv_mop):
    with pytest.raises(ParameterError):
        em.build_grid(mv_mop, (2, 2))


def test_grid_ranges_cover_dense_sweep(convex_mop, grid):
    sweep = simplex_sweep(3, 60)
    values = np.array([convex_mop.objective_values(w) for w in sweep])
    for pos, idx in enumerate(grid.constrained):
        assert grid.eps_min[pos] <= values[:, idx].min() + 1e-9
        assert grid.eps_max[pos] >= values[:, idx].max() - 1e-9
    # every center strictly inside the range
    assert np.all(grid.centers[:, 0] > grid.eps_min[0])
    assert np.all(grid.centers[:, 0] < grid.eps_max[0])


def test_corner_cell_with_slack_constraints_hits_unconstrained_min(convex_mop, grid):
    # largest epsilon in both coordinates: constraints inactive, solution is
    # the plain minimizer of the third objective
    eps = np.array([grid.eps_max[0] + 1.0, grid.eps_max[1] + 1.0])
    sol = em._solve_cell(
        convex_mop, eps, grid.constrained, grid.minimized, equal_weights(3)
    )
    assert sol.converged
    assert np.all(sol.ineq_multipliers <= 1e-12)
    best = sc.minimize_objective(
        convex_mop, grid.minimized, starts=[equal_weights(3)]
    )
    assert sol.value == pytest.approx(best.value, abs=1e-10)


def test_cell_multipliers_are_in_raw_units(convex_mop, grid):
    # grad F_min + lambda 1 + sum_i mu_i grad F_i - nu = 0 in raw units; on
    # this grid most cells end on a face of the simplex, so the bound
    # multipliers are exercised too
    with_bound = 0
    for eps in grid.centers:
        sol = em._solve_cell(
            convex_mop, eps, grid.constrained, grid.minimized, equal_weights(3)
        )
        if not sol.converged:
            continue
        jac = convex_mop.objective_jacobian(sol.x)
        terms = [jac[grid.minimized], np.full(3, sol.eq_multipliers[0]), -sol.lb_multipliers]
        terms += [mu * jac[idx] for mu, idx in zip(sol.ineq_multipliers, grid.constrained)]
        assert relative_stationarity(terms) < 1e-8
        with_bound += bool(np.any(sol.lb_multipliers > 0))
    assert with_bound > 0


def test_cell_below_ideal_is_infeasible(convex_mop, grid):
    eps = np.array([grid.eps_min[0] - 10.0 * grid.L[0], grid.eps_min[1]])
    sol = em._solve_cell(
        convex_mop, eps, grid.constrained, grid.minimized, equal_weights(3)
    )
    assert sol.status is SolveStatus.INFEASIBLE


def test_archive_counts_and_feasibility(convex_mop, archive):
    assert archive.attempted == 36
    converged = archive.attempted - archive.infeasible_count - archive.failed_count
    assert converged >= 0.8 * (archive.attempted - archive.infeasible_count)
    for entry in archive.entries:
        assert abs(entry.x.sum() - 1.0) < 1e-8
        assert entry.x.min() > -1e-9
        assert np.all(entry.multipliers >= -1e-10)


def test_archive_weakly_nondominated(archive):
    pts = archive.image()
    assert brute_nondominated_mask(pts, tol=1e-9).all()


def test_archive_image_deduplicated(archive):
    pts = archive.image()
    quant = np.floor(pts / 1e-9 + 0.5).astype(np.int64)
    assert len({tuple(q) for q in quant}) == len(pts)


def test_refinement_zero_multiplier_exact_lattice(archive):
    entry = next(e for e in archive.entries if np.all(e.multipliers == 0.0))
    alpha, k = 0.37 * float(archive.grid.L[0]), 1
    lattice = em.refinement_lattice(entry, alpha, k)
    assert len(lattice) == (2 * k + 1) ** 2 - 1
    expected = {
        (entry.eps[0] + i * alpha, entry.eps[1] + j * alpha)
        for i in range(-k, k + 1)
        for j in range(-k, k + 1)
        if (i, j) != (0, 0)
    }
    assert {tuple(eps) for eps in lattice} == expected  # bitwise exact


def test_refinement_multiplier_scaling_formula(archive):
    entry = max(archive.entries, key=lambda e: float(e.multipliers[0]))
    mu1, mu2 = entry.multipliers
    assert mu1 > 0  # scaling must actually bite
    alpha = 0.25 * float(archive.grid.L[0])
    lattice = em.refinement_lattice(entry, alpha, k=2)
    assert len(lattice) == 24
    step1 = alpha / (1.0 + mu1 ** 2)
    step2 = alpha / (1.0 + mu2 ** 2)
    expected = {
        (entry.eps[0] + i * step1, entry.eps[1] + j * step2)
        for i in range(-2, 3)
        for j in range(-2, 3)
        if (i, j) != (0, 0)
    }
    assert {tuple(eps) for eps in lattice} == expected  # bitwise exact
    assert step1 < alpha  # large mu shrinks the per-axis spacing


def test_refinement_augments_archive(convex_mop, archive):
    import warnings

    arch2 = em.solve_grid(convex_mop, archive.grid)
    entry = max(arch2.entries, key=lambda e: float(e.multipliers[0]))
    alpha = 0.25 * float(arch2.grid.L[0])
    before = len(arch2.entries)
    attempted_before = arch2.attempted
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        em.refine(arch2, em.RefinementRequest(center=entry, alpha=alpha, k=1))
    assert arch2.attempted == attempted_before + 8
    assert len(arch2.entries) >= before


def test_refinement_rejects_foreign_center(convex_mop, archive):
    foreign = em.ArchiveEntry(
        eps=np.array([999.0, 999.0]),
        x=equal_weights(3),
        multipliers=np.zeros(2),
        image=np.zeros(3),
        solution=archive.entries[0].solution,
    )
    with pytest.raises(ParameterError):
        em.refine(archive, em.RefinementRequest(center=foreign, alpha=0.1, k=1))


def test_refinement_request_validation(archive):
    with pytest.raises(ParameterError):
        em.RefinementRequest(center=archive.entries[0], alpha=0.0, k=1)
    with pytest.raises(ParameterError):
        em.RefinementRequest(center=archive.entries[0], alpha=0.1, k=0)


def test_epsilon_as_sp_substitution():
    sp = em.epsilon_as_sp(np.array([0.2, 0.4]), minimized_index=2, m=3)
    assert np.array_equal(sp.a, np.array([0.2, 0.4, 0.0]))
    assert np.array_equal(sp.r, np.array([0.0, 0.0, 1.0]))


def test_cell_value_equals_sp_value(convex_mop, grid, archive):
    for entry in archive.entries[:8]:
        sp = em.epsilon_as_sp(entry.eps, minimized_index=grid.minimized, m=3)
        sol = sc.solve_sp(convex_mop, sp, starts=[entry.x, equal_weights(3)])
        assert sol.converged
        assert abs(entry.solution.value - sol.aux_value) < 1e-6


def test_infeasible_cell_maps_to_infeasible_sp(convex_mop, grid):
    eps = np.array([grid.eps_min[0] - 10.0 * grid.L[0], grid.eps_min[1]])
    cell = em._solve_cell(
        convex_mop, eps, grid.constrained, grid.minimized, equal_weights(3)
    )
    sp = em.epsilon_as_sp(eps, minimized_index=grid.minimized, m=3)
    sol = sc.solve_sp(convex_mop, sp)
    assert cell.status is SolveStatus.INFEASIBLE
    assert sol.status is SolveStatus.INFEASIBLE



def test_run_adaptive_epsilon_driver(convex_mop):
    arch = em.run_adaptive_epsilon(convex_mop, (5, 5), rounds=2, k=1, seed=0)
    assert arch.attempted >= 25  # grid plus refinement attempts
    pts = arch.image()
    assert brute_nondominated_mask(pts, tol=1e-7).all()
