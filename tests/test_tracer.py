"""Predictor-corrector continuation: corrector, tangents, full traces."""

from dataclasses import replace

import numpy as np
import pytest

from hmfront import CorrectorStallError, ParameterError, PortfolioMop, SolveStatus, compute_moments
from hmfront import tracer as tr
from hmfront.util import project_to_simplex
from oracles import min_variance_at_mean, simplex_sweep, strictly_dominates_any


def two_quadratics(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    return tr.SmoothMop(
        m=2,
        n=n,
        F=lambda x: np.array([np.sum((x - a) ** 2), np.sum((x - b) ** 2)]),
        jacobian=lambda x: np.array([2.0 * (x - a), 2.0 * (x - b)]),
        hessians=lambda x: np.array([2.0 * np.eye(n), 2.0 * np.eye(n)]),
    )


def test_corrector_at_critical_point_returns_immediately():
    mop = two_quadratics([0.0, 0.0], [1.0, 1.0])
    pt = tr.corrector(np.array([0.4, 0.4]), mop, 1e-10)
    assert pt.t_star >= -1e-10
    assert np.allclose(pt.x, [0.4, 0.4], atol=1e-12)


def test_corrector_projects_onto_segment():
    # Pareto set of the two quadratics is the segment [a, b]; the corrector
    # must land on it, near the orthogonal projection of the start
    mop = two_quadratics([0.0, 0.0], [1.0, 1.0])
    start = np.array([0.8, 0.2])
    pt = tr.corrector(start, mop, 1e-10)
    proj = np.array([0.5, 0.5])  # analytic projection onto the diagonal
    assert np.max(np.abs(pt.x - proj)) < 1e-8
    assert pt.kkt_residual < 1e-8


def test_corrector_raises_when_its_subproblem_does_not_converge(monkeypatch):
    solve = tr.nlp.solve

    def capped_solve(problem):
        return replace(solve(problem), status=SolveStatus.MAX_ITER, message="capped")

    monkeypatch.setattr(tr.nlp, "solve", capped_solve)
    mop = two_quadratics([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(CorrectorStallError, match="capped"):
        tr.corrector(np.array([0.8, 0.2]), mop, 1e-10)


def test_corrector_dominated_portfolio_becomes_nondominated(convex_mop, rng):
    sweep = simplex_sweep(3, 100)
    sweep_images = np.array([convex_mop.objective_values(w) for w in sweep])
    for _ in range(5):
        w0 = rng.dirichlet(np.ones(3))
        pt = tr.corrector(w0, convex_mop, 1e-10)
        assert pt.t_star >= -1e-8
        dominated = any(
            strictly_dominates_any(img, pt.image) for img in sweep_images
        )
        assert not dominated


def test_tangent_frame_dimension_and_consistency():
    mop = two_quadratics([0.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    pt = tr.corrector(np.array([0.3, 0.3, 0.0]), mop, 1e-12)
    frame = tr.tangent_frame(pt)
    assert len(frame.directions) == 1  # m = 2 gives exactly one direction
    d = frame.directions[0]
    nu = frame.nu_vectors[0]
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(pt.J @ nu - d)) < 1e-9
    # tangent parallel to b - a
    direction = nu / np.linalg.norm(nu)
    target = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert min(
        np.max(np.abs(direction - target)), np.max(np.abs(direction + target))
    ) < 1e-8


def test_tangent_frame_orthonormal_directions(convex_mop):
    pt = tr.corrector(np.array([0.3, 0.45, 0.25]), convex_mop, 1e-10)
    frame = tr.tangent_frame(pt)
    assert len(frame.directions) == 2
    d = np.array(frame.directions)
    gram = d @ d.T
    assert np.max(np.abs(gram - np.eye(len(d)))) < 1e-10
    for dd, nu in zip(frame.directions, frame.nu_vectors):
        assert np.max(np.abs(pt.J @ nu - dd)) < 1e-9
        assert abs(nu.sum()) < 1e-9  # tangent to the budget constraint
        # image tangent orthogonal to the convex multipliers
        assert abs(dd @ pt.alpha) < 1e-6


def test_predictor_step_formula(convex_mop):
    pt = tr.corrector(np.array([0.3, 0.45, 0.25]), convex_mop, 1e-10)
    frame = tr.tangent_frame(pt)
    cfg = tr.TracerConfig(tau=0.1)
    steps = tr.predictor(pt, frame, cfg, convex_mop)
    assert len(steps) == 2 * len(frame.directions)
    for step in steps:
        jnu = pt.J @ frame.nu_vectors[step.direction_index]
        assert step.step == pytest.approx(0.1 / float(np.linalg.norm(jnu)), rel=1e-12)


def test_predictor_t_formula_literal():
    # tau = 0.1 and ||J nu|| = 2 must give t = 0.05
    mop = two_quadratics([0.0, 0.0], [2.0, 0.0])
    pt = tr.corrector(np.array([1.0, 0.0]), mop, 1e-12)
    frame = tr.tangent_frame(pt)
    jnu = pt.J @ frame.nu_vectors[0]
    norm = float(np.linalg.norm(jnu))
    cfg = tr.TracerConfig(tau=0.1 * norm / 2.0 * 2.0)  # any tau; check ratio
    steps = tr.predictor(pt, frame, cfg, mop)
    assert steps[0].step == pytest.approx(cfg.tau / norm, rel=1e-14)


def test_predictor_clips_at_simplex_boundary(convex_mop):
    # an oversized step from an interior point leaves the simplex and must
    # come back projected and flagged
    pt = tr.corrector(np.array([0.3, 0.45, 0.25]), convex_mop, 1e-10)
    frame = tr.tangent_frame(pt)
    cfg = tr.TracerConfig(tau=1.0)  # huge step forces clipping
    steps = tr.predictor(pt, frame, cfg, convex_mop)
    assert any(s.clipped for s in steps)
    for s in steps:
        assert abs(s.point.sum() - 1.0) < 1e-10
        assert s.point.min() >= -1e-12


def test_vertex_point_has_no_tangent_directions(convex_mop):
    # a 0-dimensional facet (vertex) admits no feasible tangents; the frame
    # reports that instead of fabricating directions
    from hmfront import SolverError

    pt = tr.corrector(np.array([1.0, 0.0, 0.0]), convex_mop, 1e-10)
    if len(pt.active_lower) == 2:
        with pytest.raises(SolverError):
            tr.tangent_frame(pt)
    else:
        pytest.skip("corrector left the vertex on this instance")


def test_trace_config_validation():
    with pytest.raises(ParameterError):
        tr.TracerConfig(tau=-1.0)
    with pytest.raises(ParameterError):
        tr.TracerConfig(n_starts=0)
    with pytest.raises(ParameterError):
        tr.TracerConfig(max_points=0)


def test_trace_max_points_one(convex_mop):
    front = tr.trace(convex_mop, tr.TracerConfig(max_points=1, n_starts=2), seed=0)
    assert len(front.points) == 1


def test_trace_mv_matches_parametric_qp(mv_mop):
    front = tr.trace(mv_mop, tr.TracerConfig(n_starts=4, max_points=60), seed=0)
    assert len(front.points) >= 20
    mu, sig = mv_mop.moments.mu, mv_mop.moments.sigma
    for pt in front.points:
        oracle = min_variance_at_mean(sig, mu, pt.mean)
        assert oracle is not None
        assert abs(pt.variance - oracle) < 1e-4


def test_trace_spacing_band(convex_mop):
    front = tr.trace(convex_mop, tr.TracerConfig(n_starts=6, max_points=150), seed=0)
    img = front.image()
    tau = front.metadata["tau"]
    d = np.sqrt(((img[:, None, :] - img[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    nearest = d.min(axis=1)
    in_band = np.mean((nearest >= tau / 2.0) & (nearest <= 2.0 * tau))
    assert in_band >= 0.9
    assert nearest.min() >= tau / 2.0  # dedup guarantee


def test_trace_multistart_consistency(mv_mop):
    cfg1 = tr.TracerConfig(tau=2e-5, n_starts=1, max_points=300)
    cfg8 = tr.TracerConfig(tau=2e-5, n_starts=8, max_points=300)
    f1 = tr.trace(mv_mop, cfg1, seed=0)
    f8 = tr.trace(mv_mop, cfg8, seed=0)
    img1, img8 = f1.image(), f8.image()
    # connected convex front: both configs cover the same set up to dedup
    from hmfront.quality import coverage_error

    assert coverage_error(img1, img8) < 2.0 * 2e-5
    assert coverage_error(img8, img1) < 2.0 * 2e-5


def test_trace_deterministic(convex_mop):
    cfg = tr.TracerConfig(n_starts=4, max_points=40)
    f1 = tr.trace(convex_mop, cfg, seed=3)
    f2 = tr.trace(convex_mop, cfg, seed=3)
    assert len(f1.points) == len(f2.points)
    for a, b in zip(f1.points, f2.points):
        assert np.array_equal(a.weights, b.weights)



def test_trace_points_critical_and_sorted(convex_mop):
    front = tr.trace(convex_mop, tr.TracerConfig(n_starts=4, max_points=50), seed=0)
    means = [pt.mean for pt in front.points]
    assert means == sorted(means, reverse=True)
    for pt in front.points:
        assert pt.params["t_star"] >= -1e-8


def test_trace_orders_its_front_by_descending_mean(convex_returns):
    # the order the CLI writes, whatever the order of the objectives
    mop = PortfolioMop(
        moments=compute_moments(convex_returns), objectives=("variance", "mean", "skewness")
    )
    front = tr.trace(mop, tr.TracerConfig(n_starts=4, max_points=50), seed=0)
    means = [pt.mean for pt in front.points]
    assert len(means) > 1
    assert means == sorted(means, reverse=True)


def test_project_to_simplex_past_2_pow_53():
    # the k = 1 test of the sort-based projection holds in exact arithmetic
    # but rounds to false when an entry is this large
    out = project_to_simplex(np.array([1e17, 0.0, -1e17]))
    assert np.array_equal(out, [1.0, 0.0, 0.0])
