"""Front-quality measures and the dominance filter."""

import numpy as np
import pytest

from hmfront import MeasureUndefinedError, coverage_error, dominance_filter, quality_report, uniformity
from oracles import brute_nondominated_mask


def test_strict_dominance_pair():
    out = dominance_filter(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert out.tolist() == [[1.0, 1.0]]


def test_incomparable_pair_kept():
    pts = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert dominance_filter(pts).tolist() == pts.tolist()


def test_dominance_matches_bruteforce(rng):
    pts = rng.normal(size=(200, 3))
    got = dominance_filter(pts)
    want = pts[brute_nondominated_mask(pts)]
    assert np.array_equal(got, want)


def test_dominance_filter_idempotent_and_order_insensitive(rng):
    pts = rng.normal(size=(60, 3))
    once = dominance_filter(pts)
    twice = dominance_filter(once)
    assert np.array_equal(once, twice)
    perm = rng.permutation(len(pts))
    scrambled = dominance_filter(pts[perm])
    assert {tuple(p) for p in scrambled} == {tuple(p) for p in once}


def test_dominance_filter_keeps_duplicates():
    pts = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert len(dominance_filter(pts)) == 2  # ties are not strict dominators


def test_dominance_filter_empty():
    assert dominance_filter(np.zeros((0, 3))).shape == (0, 3)


def test_uniformity_pair_distance():
    pts = np.array([[0.0, 0.0], [0.3, 0.0]])
    assert uniformity(pts) == pytest.approx(0.3)


def test_uniformity_equispaced_lattice():
    h = 0.17
    pts = np.array([[i * h, 0.0] for i in range(6)])
    assert uniformity(pts) == pytest.approx(h)


def test_uniformity_matches_bruteforce(rng):
    pts = rng.normal(size=(40, 3))
    d = min(
        float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(40)
        for j in range(i + 1, 40)
    )
    assert uniformity(pts) == pytest.approx(d, rel=1e-12)


def test_uniformity_needs_two_points():
    with pytest.raises(MeasureUndefinedError):
        uniformity(np.array([[1.0, 2.0]]))


def test_coverage_identity_zero(rng):
    pts = rng.normal(size=(25, 3))
    assert coverage_error(pts, pts) == 0.0


def test_coverage_endpoint_of_unit_segment():
    reference = np.array([[0.0, 0.0], [1.0, 0.0]])
    front = np.array([[0.0, 0.0]])
    assert coverage_error(front, reference) == pytest.approx(1.0)


def test_coverage_monotone_under_front_growth(rng):
    reference = rng.normal(size=(50, 3))
    front = rng.normal(size=(5, 3))
    e1 = coverage_error(front, reference)
    grown = np.vstack([front, rng.normal(size=(10, 3))])
    e2 = coverage_error(grown, reference)
    assert e2 <= e1 + 1e-15


def test_isometry_invariance(rng):
    pts = rng.normal(size=(20, 3))
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    shift = np.array([0.3, -1.2, 0.05])
    moved = pts @ rot.T + shift
    assert uniformity(moved) == pytest.approx(uniformity(pts), rel=1e-10)
    ref = rng.normal(size=(30, 3))
    assert coverage_error(moved, ref @ rot.T + shift) == pytest.approx(
        coverage_error(pts, ref), rel=1e-10
    )


def test_quality_report_fields(rng):
    ref = rng.normal(size=(40, 3))
    base = dominance_filter(ref)[:10]  # start from a nondominated set
    front = np.vstack([base, base[:1] + 5.0])  # one dominated straggler
    report = quality_report(front, ref)
    assert report.dominated_count == 1
    assert report.cardinality == len(front) - 1
    assert np.isfinite(report.uniformity)
    assert np.isfinite(report.coverage_error)


def test_quality_report_needs_points(rng):
    with pytest.raises(MeasureUndefinedError):
        quality_report(np.array([[0.0, 0.0]]), rng.normal(size=(5, 2)))


def test_traced_front_covers_epsilon_reference(convex_mop):
    # cross-method run: the continuation front must stay within 2 tau of a
    # dense epsilon-constraint reference of the same instance
    from hmfront import epsilon as em
    from hmfront import tracer as tr

    reference = em.run_adaptive_epsilon(convex_mop, (20, 20), rounds=0).image()
    tau = 2e-5
    front = tr.trace(
        convex_mop, tr.TracerConfig(tau=tau, n_starts=8, max_points=600), seed=0
    )
    assert coverage_error(front.image(), reference) <= 2.0 * tau
