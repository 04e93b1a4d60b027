"""Portfolio MOP senses and the Taylor-utility scalarizations."""

import numpy as np
import pytest

from hmfront import (
    ParameterError,
    PortfolioMop,
    UtilityParams,
    compute_moments,
    iterative_utility_optimize,
    symmetric_returns,
    utility_objective,
    utility_optimize,
)
from hmfront.moments import MomentPoint
from hmfront.problem import utility_gradient
from oracles import fd_gradient, loop_stats, qp_simplex_bruteforce


def test_lambda_coefficients():
    u = UtilityParams(lam=2.0)
    assert u.lambda1 == pytest.approx(2.0)
    assert u.lambda2 == pytest.approx(4.0 / 3.0)
    assert u.lambda3 == pytest.approx(2.0 / 3.0)
    with pytest.raises(ParameterError):
        UtilityParams(lam=0.0)
    with pytest.raises(ParameterError):
        UtilityParams(lam=-1.0)


def test_objective_subset_validation(convex_mop):
    moments = convex_mop.moments
    with pytest.raises(ParameterError):
        PortfolioMop(moments=moments, objectives=("mean",))
    with pytest.raises(ParameterError):
        PortfolioMop(moments=moments, objectives=("mean", "mean", "variance"))
    with pytest.raises(ParameterError):
        PortfolioMop(moments=moments, objectives=("mean", "sharpe"))
    assert PortfolioMop(moments=moments, objectives=("mean", "variance")).m == 2


def test_sense_mapping_turns_domination_into_minimization(convex_mop):
    # a portfolio that is better in every investor sense must have a
    # strictly smaller minimization image
    better = type(convex_mop.moments)(
        mu=np.array([0.02, 0.01, 0.0]),
        sigma=np.eye(3) * 1e-4,
        m3=np.zeros((3, 9)),
        m4=np.zeros((3, 27)),
        T=10,
        n=3,
    )
    p = PortfolioMop(moments=better)
    w_hi = np.array([1.0, 0.0, 0.0])
    w_lo = np.array([0.0, 0.0, 1.0])
    f_hi = p.objective_values(w_hi)
    f_lo = p.objective_values(w_lo)
    assert f_hi[0] < f_lo[0]  # higher mean => smaller first component


def test_zero_variance_data_reduces_to_negative_mean():
    obs = np.tile(np.array([0.01, 0.02, 0.005]), (5, 1))
    r_assets = ("A", "B", "C")
    from hmfront import ReturnsMatrix

    m = compute_moments(ReturnsMatrix(assets=r_assets, observations=obs))
    p = PortfolioMop(moments=m)
    u = UtilityParams(lam=3.0)
    w = np.array([0.2, 0.5, 0.3])
    assert utility_objective(w, p, u) == pytest.approx(-float(w @ m.mu), abs=1e-18)


def test_utility_value_matches_loop_oracle(convex_returns, convex_mop, rng):
    u = UtilityParams(lam=4.0)
    for _ in range(5):
        w = rng.dirichlet(np.ones(3))
        stats = loop_stats(w, convex_returns.observations)
        want = (
            -stats["mean"]
            + u.lambda1 * stats["variance"]
            - u.lambda2 * stats["skewness"]
            + u.lambda3 * stats["kurtosis"]
        )
        assert utility_objective(w, convex_mop, u) == pytest.approx(want, abs=1e-12)


def test_utility_gradient_matches_finite_differences(convex_mop, rng):
    u = UtilityParams(lam=2.5)
    w = rng.dirichlet(np.ones(3))
    fd = fd_gradient(lambda x: utility_objective(x, convex_mop, u), w)
    exact = utility_gradient(w, convex_mop, u)
    assert np.max(np.abs(fd - exact)) / max(np.max(np.abs(exact)), 1e-10) < 1e-5


def test_utility_gradient_builds_no_hessian(convex_mop, rng, monkeypatch):
    u = UtilityParams(lam=2.5)
    w = rng.dirichlet(np.ones(3))
    pt = MomentPoint(w, convex_mop.moments)
    want = (
        -pt.gradient("mean")
        + u.lambda1 * pt.gradient("variance")
        - u.lambda2 * pt.gradient("skewness")
        + u.lambda3 * pt.gradient("kurtosis")
    )

    def fail(self, name):
        raise AssertionError("Hessian of %s built" % name)

    monkeypatch.setattr(MomentPoint, "hessian", fail)
    assert np.array_equal(utility_gradient(w, convex_mop, u), want)


def test_utility_permutation_invariance(convex_returns, rng):
    from hmfront import ReturnsMatrix

    u = UtilityParams(lam=2.0)
    perm = np.array([1, 2, 0])
    m1 = compute_moments(convex_returns)
    m2 = compute_moments(
        ReturnsMatrix(
            assets=tuple(convex_returns.assets[i] for i in perm),
            observations=convex_returns.observations[:, perm],
        )
    )
    p1, p2 = PortfolioMop(moments=m1), PortfolioMop(moments=m2)
    w = rng.dirichlet(np.ones(3))
    assert utility_objective(w, p1, u) == pytest.approx(
        utility_objective(w[perm], p2, u), abs=1e-15
    )


def test_utility_converges_to_negative_mean_for_tiny_lambda(convex_mop, rng):
    u = UtilityParams(lam=1e-6)
    w = rng.dirichlet(np.ones(3))
    got = utility_objective(w, convex_mop, u)
    want = -float(w @ convex_mop.moments.mu)
    assert abs(got - want) / abs(want) < 1e-4


def test_iterative_schedule_validation(convex_mop):
    with pytest.raises(ParameterError):
        iterative_utility_optimize(convex_mop, [])
    with pytest.raises(ParameterError):
        iterative_utility_optimize(convex_mop, [2.0, 2.0])
    with pytest.raises(ParameterError):
        iterative_utility_optimize(convex_mop, [2.0, -1.0])


def test_iterative_schedule_endpoints(convex_mop):
    schedule = [20.0 - 2.0 * k for k in range(10)]
    path = iterative_utility_optimize(convex_mop, schedule)
    assert len(path) == 10
    assert path[0][0] == pytest.approx(20.0)
    assert path[-1][0] == pytest.approx(2.0)


def test_iterative_on_symmetric_data_equals_plain_mv_qp():
    r = symmetric_returns(3, 200, 8)
    m = compute_moments(r)
    p = PortfolioMop(moments=m)
    schedule = [8.0, 4.0]
    path = iterative_utility_optimize(p, schedule)
    for lam, w in path:
        u = UtilityParams(lam=lam)
        val, w_star = qp_simplex_bruteforce(u.lambda1 * m.sigma, -m.mu)
        assert np.max(np.abs(w - w_star)) < 1e-7


def test_iterative_inner_fixed_point_stagnates(convex_mop):
    # re-freezing at the solution and re-solving must not move the weights
    path = iterative_utility_optimize(convex_mop, [6.0])
    lam, w = path[0]
    u = UtilityParams(lam=lam)
    from hmfront.problem import _mean_variance_qp

    again = _mean_variance_qp(convex_mop, u.lambda1, w, None)
    assert np.max(np.abs(again.x - w)) < 1e-6


def test_utility_optimize_against_brute_force_grid(convex_mop):
    u = UtilityParams(lam=6.0)
    sol = utility_optimize(convex_mop, u, n_starts=8, seed=0)
    assert sol.converged
    from oracles import simplex_sweep

    sweep = simplex_sweep(3, 60)
    vals = [utility_objective(w, convex_mop, u) for w in sweep]
    assert sol.value <= min(vals) + 1e-9
