"""Scalarization family: solves, parameter maps, dual-solve agreements."""

import numpy as np
import pytest

from hmfront import (
    ParameterError,
    PortfolioMop,
    ReturnsMatrix,
    SolveStatus,
    compute_moments,
)
from hmfront import scalarization as sc
from hmfront.util import equal_weights
from oracles import brute_nondominated_mask, relative_stationarity, simplex_sweep


@pytest.fixture(scope="module")
def anchors(convex_mop):
    return sc.compute_anchors(convex_mop, seed=1)


@pytest.fixture(scope="module")
def direction(anchors):
    g = anchors.objective_ranges()
    return np.where(g > 0, g, 1.0)


def test_sf_params_validation():
    with pytest.raises(ParameterError):
        sc.SfParams(g=np.array([1.0, -0.1, 0.0]), reference_weights=np.ones(3) / 3)
    with pytest.raises(ParameterError):
        sc.SfParams(g=np.zeros(3), reference_weights=np.ones(3) / 3)
    with pytest.raises(ParameterError):
        sc.SfParams(g=np.ones(3))  # no reference at all


def test_sp_params_validation():
    with pytest.raises(ParameterError):
        sc.SpParams(a=np.zeros(3), r=np.zeros(3))
    sp = sc.SpParams(a=np.zeros(3), r=np.array([0.0, 0.0, 1.0]))
    assert sp.cone == "nonnegative-orthant"


def test_anchor_images_are_individual_minima(convex_mop, anchors):
    # every anchor value must be minimal among a dense sweep of portfolios
    sweep = simplex_sweep(3, 40)
    values = np.array([convex_mop.objective_values(w) for w in sweep])
    for i in range(3):
        assert anchors.ideal[i] <= values[:, i].min() + 1e-9


def test_sf_on_efficient_reference_gives_zero_delta(convex_mop, anchors, direction):
    ref = anchors.weights[0]  # max-mean anchor is efficient
    sol = sc.solve_sf(convex_mop, sc.SfParams(g=direction, reference_weights=ref))
    assert sol.converged
    assert abs(sol.aux_value) < 1e-8
    assert np.max(np.abs(sol.weights - ref)) < 1e-5


def test_sf_on_dominated_reference_gives_positive_delta(convex_mop, direction):
    # the equal-weight portfolio is dominated on this instance; certify by a
    # dense sweep that finds a strict dominator
    ref = equal_weights(3)
    f_ref = convex_mop.objective_values(ref)
    sweep = simplex_sweep(3, 50)
    dominated = any(
        np.all(convex_mop.objective_values(w) < f_ref - 1e-12) for w in sweep
    )
    assert dominated
    sol = sc.solve_sf(convex_mop, sc.SfParams(g=direction, reference_weights=ref))
    assert sol.converged
    assert sol.aux_value > 1e-8


def test_sf_single_direction_expands_mean(convex_mop):
    g = np.array([1.0, 0.0, 0.0])
    ref = equal_weights(3)
    sol = sc.solve_sf(convex_mop, sc.SfParams(g=g, reference_weights=ref))
    assert sol.converged
    f_ref = convex_mop.objective_values(ref)
    # active first constraint: delta equals the achieved first-coordinate gain
    gain = f_ref[0] - sol.objective_values[0]
    assert gain == pytest.approx(sol.aux_value, abs=1e-8)


def test_msf_on_efficient_reference(convex_mop, anchors, direction):
    ref = anchors.weights[0]
    sol = sc.solve_msf(convex_mop, sc.SfParams(g=direction, reference_weights=ref))
    assert sol.converged
    assert abs(sol.aux_value) < 1e-7


def test_msf_backstepped_reference_recovers_distance(convex_mop, anchors, direction):
    # build a dominated reference objective vector by stepping back from a
    # known efficient image along the direction; MSF must recover the step
    front_sol = sc.solve_sf(
        convex_mop, sc.SfParams(g=direction, reference_weights=equal_weights(3))
    )
    target = front_sol.objective_values
    delta0 = 0.35
    ref_obj = target + delta0 * direction
    sol = sc.solve_msf(
        convex_mop,
        sc.SfParams(g=direction, reference_objectives=ref_obj),
        starts=[front_sol.weights, equal_weights(3)],
    )
    assert sol.converged
    assert sol.aux_value == pytest.approx(delta0, abs=1e-6)


def test_msf_zero_direction_component_infeasible(convex_mop, anchors):
    # pin the mean via g_mean = 0 at an unattainable level: equality system
    # cannot hold
    g = np.array([0.0, 1.0, 1.0])
    ref_obj = np.array(
        [anchors.ideal[0] - 1.0, anchors.images[1, 1], anchors.images[1, 2]]
    )
    sol = sc.solve_msf(convex_mop, sc.SfParams(g=g, reference_objectives=ref_obj))
    assert sol.status is SolveStatus.INFEASIBLE


def test_nbi_vertex_beta_hits_anchor(convex_mop, anchors):
    for i in range(3):
        beta = np.eye(3)[i]
        sol = sc.solve_nbi(convex_mop, sc.nbi_params(anchors, beta))
        assert sol.converged
        assert np.max(np.abs(sol.objective_values - anchors.images[i])) < 1e-6


def test_nbi_bi_objective_ray_intersection_oracle(convex_returns):
    # m = 2: the front is a curve; check the NBI solution against a dense
    # parametric sweep intersected with the hull-midpoint ray
    mop = PortfolioMop(
        moments=compute_moments(convex_returns), objectives=("mean", "variance")
    )
    anchors = sc.compute_anchors(mop, seed=1)
    beta = np.array([0.5, 0.5])
    sol = sc.solve_nbi(mop, sc.nbi_params(anchors, beta))
    assert sol.converged
    # oracle: the constraint line hull + s*nbar intersects the attainable
    # image; verify the solution image satisfies it and is attainable
    resid = sol.objective_values - anchors.ideal - anchors.phi @ beta - sol.aux_value * anchors.nbar
    assert np.max(np.abs(resid)) < 1e-9
    sweep = simplex_sweep(3, 140)
    images = np.array([mop.objective_values(w) for w in sweep])
    scales = np.maximum(np.abs(images).max(axis=0), 1e-12)
    dist = np.min(np.linalg.norm((images - sol.objective_values) / scales, axis=1))
    assert dist < 2e-2  # sweep resolution, relative image units


def test_map_nbi_to_msf_vertex_substitution(anchors):
    nbi = sc.nbi_params(anchors, np.eye(3)[0])
    sf = sc.map_nbi_to_msf(nbi)
    assert np.allclose(sf.reference_objectives, anchors.images[0], atol=1e-12)
    assert np.all(sf.g >= 0)


def test_nbi_msf_roundtrip_agreement(convex_mop, anchors, rng):
    checked = 0
    for _ in range(8):
        beta = rng.dirichlet(np.ones(3))
        nbi = sc.nbi_params(anchors, beta)
        starts = [beta @ anchors.weights, equal_weights(3)]
        nsol = sc.solve_nbi(convex_mop, nbi, starts=starts)
        msol = sc.solve_msf(convex_mop, sc.map_nbi_to_msf(nbi), starts=starts)
        if nsol.status is SolveStatus.INFEASIBLE:
            assert msol.status is SolveStatus.INFEASIBLE
            continue
        assert abs(nsol.aux_value - msol.aux_value) < 1e-8
        assert np.max(np.abs(nsol.weights - msol.weights)) < 1e-5
        checked += 1
    assert checked >= 4


def test_nbi_modified_sp_agreement(convex_mop, anchors, rng):
    checked = 0
    for _ in range(8):
        beta = rng.dirichlet(np.ones(3))
        nbi = sc.nbi_params(anchors, beta)
        starts = [beta @ anchors.weights, equal_weights(3)]
        nsol = sc.solve_nbi(convex_mop, nbi, starts=starts)
        ssol = sc.solve_sp(
            convex_mop,
            sc.SpParams(a=nbi.hull_point, r=-anchors.nbar),
            modified=True,
            starts=starts,
        )
        if nsol.status is SolveStatus.INFEASIBLE:
            assert ssol.status is SolveStatus.INFEASIBLE
            continue
        assert abs(nsol.aux_value + ssol.aux_value) < 1e-6
        assert np.max(np.abs(nsol.weights - ssol.weights)) < 1e-5
        checked += 1
    assert checked >= 4


def test_sp_attainable_reference_gives_nonpositive_t(convex_mop, direction):
    w_hat = np.array([0.25, 0.4, 0.35])
    a = convex_mop.objective_values(w_hat)
    sol = sc.solve_sp(convex_mop, sc.SpParams(a=a, r=direction))
    assert sol.converged
    assert sol.aux_value <= 1e-10


def test_map_sf_to_sp_identity_cases(convex_mop, direction):
    ref = equal_weights(3)
    c = convex_mop.objective_values(ref)
    sf = sc.SfParams(g=direction, reference_weights=ref)
    sp = sc.map_sf_to_sp(sf, c, p=convex_mop)
    assert np.allclose(sp.a, c, atol=1e-15)  # reflection fixes the point
    assert np.array_equal(sp.r, direction)
    g_unit = np.array([0.0, 1.0, 0.0])
    sp2 = sc.map_sf_to_sp(
        sc.SfParams(g=g_unit, reference_weights=ref), c, p=convex_mop
    )
    assert np.array_equal(sp2.r, g_unit)


def test_sf_sp_duality(convex_mop, direction, rng):
    for _ in range(6):
        ref = rng.dirichlet(np.ones(3))
        sf = sc.SfParams(g=direction, reference_weights=ref)
        sf_sol = sc.solve_sf(convex_mop, sf)
        sp = sc.map_sf_to_sp(sf, convex_mop.objective_values(ref), p=convex_mop)
        sp_sol = sc.solve_sp(convex_mop, sp, starts=[ref, equal_weights(3)])
        assert sf_sol.converged and sp_sol.converged
        assert abs(sf_sol.aux_value + sp_sol.aux_value) < 1e-8


def test_sp_multipliers_are_in_raw_units(convex_mop, direction):
    # L = t - sum_i mu_i (a_i + t r_i - F_i(w)) + lambda (sum w - 1) - nu w:
    # stationary in w and in t, with every multiplier in raw units
    rng = np.random.default_rng(0)
    with_bound = 0
    for _ in range(8):
        ref = rng.dirichlet(np.ones(3))
        sf = sc.SfParams(g=direction, reference_weights=ref)
        sp = sc.map_sf_to_sp(sf, convex_mop.objective_values(ref), p=convex_mop)
        sol = sc.solve_sp(convex_mop, sp)
        assert sol.converged
        mu = sol.ineq_multipliers
        jac = convex_mop.objective_jacobian(sol.weights)
        terms = [np.full(3, sol.eq_multipliers[0]), -sol.lb_multipliers[:3]]
        terms += [mu[i] * jac[i] for i in range(3)]
        assert relative_stationarity(terms) < 1e-8
        assert abs(1.0 - mu @ sp.r) < 1e-8
        with_bound += bool(np.any(sol.lb_multipliers > 0))
    assert with_bound > 0


def test_scalarization_outputs_feasible_and_mutually_nondominated(
    convex_mop, anchors, direction, rng
):
    images = []
    for _ in range(6):
        beta = rng.dirichlet(np.ones(3))
        sol = sc.solve_nbi(convex_mop, sc.nbi_params(anchors, beta))
        if not sol.converged:
            continue
        assert abs(sol.weights.sum() - 1.0) < 1e-8
        assert sol.weights.min() > -1e-9
        images.append(sol.objective_values)
    for _ in range(4):
        ref = rng.dirichlet(np.ones(3))
        sol = sc.solve_sf(convex_mop, sc.SfParams(g=direction, reference_weights=ref))
        if sol.converged:
            images.append(sol.objective_values)
    images = np.array(images)
    assert len(images) >= 6
    keep = brute_nondominated_mask(images, tol=1e-9)
    assert keep.all()


def test_sf_zero_delta_on_other_methods_outputs(convex_mop, anchors, direction, rng):
    beta = rng.dirichlet(np.ones(3))
    nsol = sc.solve_nbi(convex_mop, sc.nbi_params(anchors, beta))
    if not nsol.converged:
        pytest.skip("ray missed the attainable set for this draw")
    sol = sc.solve_sf(
        convex_mop, sc.SfParams(g=direction, reference_weights=nsol.weights)
    )
    assert sol.converged
    assert sol.aux_value <= 1e-6


# ---------------------------------------------------------------------------
# polynomial goal programming
# ---------------------------------------------------------------------------


def _scaled_mop(returns, scale):
    scaled = ReturnsMatrix(assets=returns.assets, observations=returns.observations * scale)
    return PortfolioMop(moments=compute_moments(scaled))


@pytest.fixture(scope="module")
def pgp_mop(convex_returns, convex_mop, anchors):
    return _scaled_mop(convex_returns, sc.pgp_efficient_scale(convex_mop, anchors))


def test_pgp_efficient_scale_ignores_objective_order(convex_mop, anchors):
    reordered = PortfolioMop(
        moments=convex_mop.moments, objectives=("variance", "mean", "skewness")
    )
    scale = sc.pgp_efficient_scale(reordered, sc.compute_anchors(reordered, seed=1))
    assert scale == pytest.approx(sc.pgp_efficient_scale(convex_mop, anchors), rel=1e-12)


def test_pgp_params_validation():
    with pytest.raises(ParameterError):
        sc.PgpParams(alpha=0.0, beta=1.0)


def test_pgp_unit_variance_unattainable_is_reported(convex_mop):
    sol = sc.solve_pgp(convex_mop, sc.PgpParams(alpha=1.0, beta=1.0), seed=0)
    assert sol.status is SolveStatus.INFEASIBLE
    assert "rescale" in sol.message


def test_pgp_linear_case_objective_is_sum_of_shortfalls(pgp_mop):
    sol = sc.solve_pgp(pgp_mop, sc.PgpParams(alpha=1.0, beta=1.0), seed=0)
    assert sol.converged
    assert sol.value == pytest.approx(sol.info["d1"] + sol.info["d3"], abs=1e-9)
    stats = pgp_mop.raw_stats(sol.weights)
    assert stats.variance == pytest.approx(1.0, abs=1e-8)
    assert sol.info["d1"] >= -1e-10
    assert sol.info["d3"] >= -1e-10


def test_pgp_non_conflicting_goals_reach_zero(convex_returns, convex_mop):
    # with the slice placed at the attainable-range middle this instance has
    # a portfolio attaining both bounds at once
    scale = sc.pgp_scale_factor(convex_mop)
    mop = _scaled_mop(convex_returns, scale)
    sol = sc.solve_pgp(mop, sc.PgpParams(alpha=1.0, beta=1.0), seed=0)
    assert sol.converged
    assert abs(sol.info["d1"]) < 1e-8
    assert abs(sol.info["d3"]) < 1e-7
    assert abs(sol.value) < 1e-7


def _unit_variance_slice_points(mop, boundary_resolution=200):
    """Exact variance-1 portfolios: crossings of segments from the minimum
    variance portfolio to dense simplex-boundary points."""
    from hmfront.util import equal_weights as eq

    w_mv = sc.minimize_objective(
        mop, mop.objectives.index("variance"), starts=[eq(3)]
    ).x
    sigma = mop.moments.sigma
    points = []
    ts = np.linspace(0.0, 1.0, boundary_resolution)
    edges = [(0, 1), (1, 2), (0, 2)]
    for i, j in edges:
        for t in ts:
            b = np.zeros(3)
            b[i], b[j] = t, 1.0 - t
            d = b - w_mv
            # var((1-s) w_mv + s b) = 1 is quadratic in s
            aa = float(d @ sigma @ d)
            bb = 2.0 * float(w_mv @ sigma @ d)
            cc = float(w_mv @ sigma @ w_mv) - 1.0
            disc = bb * bb - 4 * aa * cc
            if aa <= 0 or disc < 0:
                continue
            for s in ((-bb + np.sqrt(disc)) / (2 * aa), (-bb - np.sqrt(disc)) / (2 * aa)):
                if 0.0 <= s <= 1.0:
                    points.append(w_mv + s * d)
    return points


def test_pgp_quadratic_matches_slice_sweep_oracle(pgp_mop):
    pgp = sc.PgpParams(alpha=2.0, beta=2.0)
    sol = sc.solve_pgp(pgp_mop, pgp, seed=0)
    assert sol.converged
    z1, z3 = sol.info["z1_star"], sol.info["z3_star"]
    best = np.inf
    for w in _unit_variance_slice_points(pgp_mop):
        stats = pgp_mop.raw_stats(w)
        assert abs(stats.variance - 1.0) < 1e-9
        val = max(z1 - stats.mean, 0) ** 2 + max(z3 - stats.skewness, 0) ** 2
        best = min(best, val)
    # feasible sweep points cannot beat the optimum; the sweep resolution
    # bounds how far above it the best sample can sit
    assert sol.value <= best + 1e-9
    assert best - sol.value < 5e-4


def test_check_pgp_kkt_degenerate_shortfall_not_applicable(pgp_mop):
    anchors2 = sc.compute_anchors(pgp_mop, seed=1)
    base = sc.solve_pgp(pgp_mop, sc.PgpParams(alpha=1.0, beta=1.0), seed=0)
    pgp = sc.PgpParams(alpha=1.0, beta=1.0, z_stars=(base.info["z1_star"], base.info["z3_star"]))
    # vertex beta: the NBI solution sits at the max-mean anchor, whose mean
    # exceeds the slice bound, so d1 <= 0
    nbi = sc.nbi_params(anchors2, np.eye(3)[0])
    nsol = sc.solve_nbi(pgp_mop, nbi)
    assert nsol.converged
    rep = sc.check_pgp_kkt(nsol, pgp, nbi, pgp_mop)
    assert not rep.applicable
    assert "shortfall" in rep.reason


def test_check_pgp_kkt_interior_beta_finite_report(pgp_mop):
    anchors2 = sc.compute_anchors(pgp_mop, seed=1)
    base = sc.solve_pgp(pgp_mop, sc.PgpParams(alpha=1.0, beta=1.0), seed=0)
    pgp = sc.PgpParams(alpha=1.0, beta=1.0, z_stars=(base.info["z1_star"], base.info["z3_star"]))
    rng = np.random.default_rng(11)
    applicable = []
    for _ in range(16):
        beta = rng.dirichlet(np.ones(3))
        nbi = sc.nbi_params(anchors2, beta)
        nsol = sc.solve_nbi(pgp_mop, nbi, starts=[beta @ anchors2.weights, equal_weights(3)])
        if not nsol.converged:
            continue
        rep = sc.check_pgp_kkt(nsol, pgp, nbi, pgp_mop)
        if rep.applicable:
            applicable.append(rep)
    assert applicable, "no interior beta produced an applicable report"
    for rep in applicable:
        assert np.isfinite(rep.alpha) and 0 < rep.alpha <= 10
        assert np.isfinite(rep.beta) and 0 < rep.beta <= 10
        assert np.isfinite(rep.mu).all()
        # the exponent fixed points zero their rows by construction
        assert abs(rep.goal_residuals[0]) < 1e-9
        assert abs(rep.goal_residuals[2]) < 1e-9
        # the transported combination is stationary on the simplex tangent
        assert rep.stationarity_norm < 1e-6


def test_pgp_scale_factor_makes_slice_attainable(convex_returns, convex_mop):
    scale = sc.pgp_scale_factor(convex_mop)
    mop = _scaled_mop(convex_returns, scale)
    lo, hi = sc._variance_slice_bounds(mop)
    assert lo <= 1.0 <= hi
