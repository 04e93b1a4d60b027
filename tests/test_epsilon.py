"""Adaptive epsilon-constraint grid, refinement and the SP special case."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfront import (
    ParameterError,
    PortfolioMop,
    SolveStatus,
    compute_moments,
    nlp,
    synthetic_returns,
)
from hmfront import epsilon as em
from hmfront import scalarization as sc
from hmfront.problem import OBJECTIVE_SENSES
from hmfront.util import equal_weights
from oracles import (
    brute_nondominated_mask,
    full_sweep,
    qp_simplex_bruteforce,
    relative_stationarity,
    simplex_sweep,
)


@pytest.fixture(scope="module")
def grid(convex_mop):
    return em.build_grid(convex_mop, (6, 6))


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
    g = em.build_grid(convex_mop, (1, 1))
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


# the objective sets the grid accepts: skewness is minimized, the other two
# are bounded
_GRID_OBJECTIVES = (
    ("mean", "variance", "skewness"),
    ("mean", "skewness", "kurtosis"),
    ("variance", "skewness", "kurtosis"),
)
# lattice resolution per n, about 3,000 sweep points at most
_SWEEP_RESOLUTION = {2: 400, 3: 60, 4: 20, 5: 12, 6: 10, 7: 8}


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(2, 7),
    seed=st.integers(0, 2**16),
    objectives=st.sampled_from(_GRID_OBJECTIVES),
)
def test_grid_ranges_are_vertex_maxima_and_convex_minima(n, seed, objectives):
    returns = synthetic_returns(n, 200, seed, 0.5)
    moments = compute_moments(returns)
    p = PortfolioMop(moments=moments, objectives=objectives)
    grid = em.build_grid(p, (1, 1))
    vertices = np.eye(n)
    # the sweep's statistics straight from the observations
    sweep = simplex_sweep(n, _SWEEP_RESOLUTION[n])
    obs = returns.observations
    centered = (obs - obs.mean(axis=0)) @ sweep.T
    raw = {
        "mean": obs.mean(axis=0) @ sweep.T,
        "variance": np.mean(centered ** 2, axis=0),
        "kurtosis": np.mean(centered ** 4, axis=0),
    }
    for pos, idx in enumerate(grid.constrained):
        name = objectives[idx]
        lo, hi = grid.eps_min[pos], grid.eps_max[pos]
        assert hi == max(p.objective_values(v)[idx] for v in vertices)
        tol = 1e-12 * (hi - lo)
        assert lo <= np.min(OBJECTIVE_SENSES[name] * raw[name]) + tol
        if name == "mean":
            assert abs(lo - (-np.max(moments.mu))) <= tol
        if name == "variance":
            assert abs(lo - qp_simplex_bruteforce(moments.sigma, np.zeros(n))[0]) <= tol


def test_build_grid_takes_one_solve_per_bounded_objective(convex_mop, monkeypatch):
    calls = []
    real_solve = nlp.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    def no_rng(*args, **kwargs):
        raise AssertionError("build_grid drew random numbers")

    monkeypatch.setattr(nlp, "solve", counting_solve)
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    em.build_grid(convex_mop, (6, 6))
    assert len(calls) == 2


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


def _skewed_mop():
    # skewed enough that some rows never reach a cell with a slack eps_2
    return PortfolioMop(moments=compute_moments(synthetic_returns(3, 400, 7, 0.6)))


@pytest.mark.parametrize("instance", ["convex", "skewed"])
def test_row_bypass_matches_full_sweep(convex_mop, monkeypatch, instance):
    p = convex_mop if instance == "convex" else _skewed_mop()
    grid = em.build_grid(p, (6, 6))
    # the cells each row reaches, solved or replayed down a column: every
    # one is recorded once
    reached_per_row = {}
    real_record = em.FrontArchive.record

    def counting_record(self, eps, sol):
        reached_per_row[float(eps[0])] = reached_per_row.get(float(eps[0]), 0) + 1
        return real_record(self, eps, sol)

    with monkeypatch.context() as m:
        m.setattr(em.FrontArchive, "record", counting_record)
        bypass = em.solve_grid(p, grid)
    full, rows = full_sweep(p, grid)

    assert len(bypass.entries) == len(full.entries)
    for a, b in zip(bypass.entries, full.entries):
        assert np.array_equal(a.eps, b.eps)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.multipliers, b.multipliers)
    counts = ("attempted", "infeasible_count", "failed_count")
    assert [getattr(bypass, c) for c in counts] == [getattr(full, c) for c in counts]

    n2 = grid.N[1]
    expected_skipped = 0
    for l1, sols in enumerate(rows):
        first_slack = next(
            (j for j, s in enumerate(sols) if s.converged and s.ineq_multipliers[1] == 0.0),
            n2 - 1,  # a row without such a cell is solved to its end
        )
        assert reached_per_row[float(grid.centers[l1 * n2, 0])] == first_slack + 1
        expected_skipped += n2 - 1 - first_slack
    assert bypass.skipped == expected_skipped > 0
    if instance == "skewed":
        assert min(reached_per_row.values()) < n2 == max(reached_per_row.values())


def _memo_free(m):
    """Solve every cell the sweeps reach: no replay down a column and no
    repeated refinement."""

    def cell_solver(p, grid):
        def solve(eps, x0):
            return em._solve_cell(p, eps, grid.constrained, grid.minimized, x0)

        return solve

    real_refine = em.refine

    def refine(archive, req):
        archive._last_refinement = None
        return real_refine(archive, req)

    m.setattr(em, "_cell_solver", cell_solver)
    m.setattr(em, "refine", refine)


def _counting_solves(m):
    """Count the cell solves, one list entry per solve."""
    calls = []
    real = em._solve_cell

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    m.setattr(em, "_solve_cell", counting)
    return calls


def _assert_same_archive(a, b):
    assert len(a.entries) == len(b.entries)
    for x, y in zip(a.entries, b.entries):
        for name in ("eps", "x", "multipliers", "image"):
            assert np.array_equal(getattr(x, name), getattr(y, name))
    counts = ("attempted", "skipped", "infeasible_count", "failed_count")
    assert [getattr(a, c) for c in counts] == [getattr(b, c) for c in counts]


@pytest.mark.parametrize("instance", ["convex", "skewed"])
def test_grid_replay_matches_a_memo_free_sweep(convex_mop, instance):
    p = convex_mop if instance == "convex" else _skewed_mop()
    grid = em.build_grid(p, (6, 6))
    with pytest.MonkeyPatch.context() as m:
        solves = _counting_solves(m)
        replayed = em.solve_grid(p, grid)
    with pytest.MonkeyPatch.context() as m:
        _memo_free(m)
        full_solves = _counting_solves(m)
        full = em.solve_grid(p, grid)
    _assert_same_archive(replayed, full)
    assert replayed.attempted == 36
    # every cell the sweep reached was recorded, and at least one was replayed
    assert len(solves) < len(full_solves) == replayed.attempted - replayed.skipped


@pytest.mark.parametrize("instance", ["convex", "skewed"])
def test_refine_replay_matches_a_memo_free_refinement(convex_mop, instance):
    import warnings

    p = convex_mop if instance == "convex" else _skewed_mop()
    grid = em.build_grid(p, (6, 6))
    replayed, full = em.solve_grid(p, grid), em.solve_grid(p, grid)
    alpha = 0.25 * float(grid.L[0])
    solves, full_solves = [], []
    for i in range(len(replayed.entries)):
        # the lattice of k = 2 has five cells down each of its columns
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as m:
            warnings.simplefilter("ignore")
            calls = _counting_solves(m)
            em.refine(replayed, em.RefinementRequest(center=replayed.entries[i], alpha=alpha, k=2))
            solves.append(len(calls))
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as m:
            warnings.simplefilter("ignore")
            _memo_free(m)
            calls = _counting_solves(m)
            em.refine(full, em.RefinementRequest(center=full.entries[i], alpha=alpha, k=2))
            full_solves.append(len(calls))
        _assert_same_archive(replayed, full)
    assert full_solves == [24] * len(full_solves)
    assert sum(solves) < sum(full_solves)


def test_repeated_refinement_rounds_record_the_same_solves(convex_mop):
    # at 50 x 50 on the acceptance instance the widest gap after round 3 is
    # still round 3's centre, so rounds 4 and 5 refine it again with the
    # same lattice
    solves_per_round = []

    def rounds_of(m):
        calls = _counting_solves(m)
        real_refine = em.refine

        def refine(archive, req):
            before = len(calls)
            out = real_refine(archive, req)
            solves_per_round.append(len(calls) - before)
            return out

        m.setattr(em, "refine", refine)

    with pytest.MonkeyPatch.context() as m:
        rounds_of(m)
        replayed = em.run_adaptive_epsilon(convex_mop, (50, 50), rounds=5)
    with pytest.MonkeyPatch.context() as m:
        _memo_free(m)
        rounds_of(m)
        full = em.run_adaptive_epsilon(convex_mop, (50, 50), rounds=5)
    _assert_same_archive(replayed, full)
    assert replayed.attempted == 2500 + 5 * 8
    assert solves_per_round[5:] == [8] * 5
    assert solves_per_round[3:5] == [0, 0]


def _assert_bit_identical(a: nlp.ScalarSolution, b: nlp.ScalarSolution) -> None:
    for name in (
        "x",
        "value",
        "eq_multipliers",
        "ineq_multipliers",
        "lb_multipliers",
        "ub_multipliers",
        "kkt_residual",
        "constraint_violation",
        "comp_slackness",
        "weights",
        "objective_values",
        "inert_rows",
    ):
        u, v = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert u.dtype == v.dtype and u.shape == v.shape, name
        assert u.tobytes() == v.tobytes(), name
    assert (a.status, a.message, a.n_iter) == (b.status, b.message, b.n_iter)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**16),
    level=st.floats(0.2, 0.9),
    shift=st.floats(0.0, 2.0),
)
def test_inert_eps1_row_gives_the_same_solve_at_a_looser_bound(n, seed, level, shift):
    p = PortfolioMop(moments=compute_moments(synthetic_returns(n, 200, seed, level)))
    grid = em.build_grid(p, (3, 3))
    ran = set()
    real_penalty, real_restore = nlp._penalty_qp, nlp._restore_feasibility

    def penalty(*args):
        ran.add("feasibility step")
        return real_penalty(*args)

    def restore(*args):
        ran.add("restoration")
        return real_restore(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nlp, "_penalty_qp", penalty)
        m.setattr(nlp, "_restore_feasibility", restore)
        for l1 in range(3):
            x0 = equal_weights(n)
            for l2 in range(3):
                eps = grid.centers[3 * l1 + l2]
                ran.clear()
                sol = em._solve_cell(p, eps, grid.constrained, grid.minimized, x0)
                # a binding row, or any row of a solve that took a
                # feasibility step or restored, took part in the solve
                if sol.converged and sol.ineq_multipliers[0] > 0.0:
                    assert not sol.inert_rows[0]
                if ran:
                    assert not sol.inert_rows.any()
                if sol.inert_rows[0]:
                    looser = np.array([np.nextafter(eps[0], np.inf) + shift * grid.L[0], eps[1]])
                    again = em._solve_cell(p, looser, grid.constrained, grid.minimized, x0)
                    _assert_bit_identical(sol, again)
                if sol.converged:
                    x0 = sol.x


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
        assert abs(entry.image[grid.minimized] - sol.aux_value) < 1e-6


def test_infeasible_cell_maps_to_infeasible_sp(convex_mop, grid):
    eps = np.array([grid.eps_min[0] - 10.0 * grid.L[0], grid.eps_min[1]])
    cell = em._solve_cell(
        convex_mop, eps, grid.constrained, grid.minimized, equal_weights(3)
    )
    sp = em.epsilon_as_sp(eps, minimized_index=grid.minimized, m=3)
    sol = sc.solve_sp(convex_mop, sp)
    assert cell.status is SolveStatus.INFEASIBLE
    assert sol.status is SolveStatus.INFEASIBLE



def test_default_alpha_is_computed_only_for_refinement_rounds(convex_mop, monkeypatch):
    calls = []
    real = em.nearest_gaps

    def spy(pts):
        calls.append(len(pts))
        return real(pts)

    monkeypatch.setattr(em, "nearest_gaps", spy)
    em.run_adaptive_epsilon(convex_mop, (5, 5), rounds=0)
    assert calls == []
    em.run_adaptive_epsilon(convex_mop, (5, 5), rounds=1)
    assert calls  # the default alpha, then the widest gap


def test_run_adaptive_epsilon_driver(convex_mop):
    arch = em.run_adaptive_epsilon(convex_mop, (5, 5), rounds=2, k=1)
    assert arch.attempted >= 25  # grid plus refinement attempts
    pts = arch.image()
    assert brute_nondominated_mask(pts, tol=1e-7).all()


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
    )
)
def test_median_of_gaps_equals_numpy_median(gaps):
    # the default refinement step is the median nearest-neighbour gap
    values = np.array(gaps)
    assert em._median(values) == float(np.median(values))
