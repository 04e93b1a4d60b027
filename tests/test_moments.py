"""Moment estimation: tensor layouts, oracle agreement, derivatives."""

import numpy as np
import pytest

from hmfront import (
    DataError,
    InsufficientDataError,
    ReturnsMatrix,
    ShapeError,
    compute_moments,
    load_returns_csv,
    portfolio_stats,
    portfolio_stats_from_returns,
    synthetic_returns,
)
from hmfront.moments import MomentPoint, _symmetrize
from oracles import fd_gradient, fd_hessian, loop_stats


def _random_instance(seed, n=4, t_count=50):
    rng = np.random.RandomState(seed)
    obs = rng.randn(t_count, n) * 0.03 + rng.rand(n) * 0.01
    return ReturnsMatrix(assets=tuple("A%d" % i for i in range(n)), observations=obs)


def test_constant_series_has_zero_central_moments():
    r = ReturnsMatrix(assets=("X",), observations=np.array([[0.01], [0.01], [0.01]]))
    m = compute_moments(r)
    assert m.mu[0] == pytest.approx(0.01)
    assert m.sigma[0, 0] == 0.0
    assert m.m3[0, 0] == 0.0
    assert m.m4[0, 0] == 0.0


def test_symmetric_three_point_series():
    r = ReturnsMatrix(assets=("X",), observations=np.array([[-1.0], [0.0], [1.0]]))
    m = compute_moments(r)
    assert m.mu[0] == 0.0
    assert m.sigma[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m.m3[0, 0] == 0.0
    assert m.m4[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_contraction_matches_observation_loop_oracle(rng):
    r = _random_instance(7)
    m = compute_moments(r)
    for _ in range(10):
        w = rng.dirichlet(np.ones(4))
        got = portfolio_stats(w, m)
        want = loop_stats(w, r.observations)
        assert got.mean == pytest.approx(want["mean"], abs=1e-10)
        assert got.variance == pytest.approx(want["variance"], abs=1e-10)
        assert got.skewness == pytest.approx(want["skewness"], abs=1e-10)
        assert got.kurtosis == pytest.approx(want["kurtosis"], abs=1e-10)


def test_observation_loop_evaluator_agrees_with_tensors(rng):
    r = _random_instance(11)
    m = compute_moments(r)
    w = rng.dirichlet(np.ones(4))
    a = portfolio_stats(w, m)
    b = portfolio_stats_from_returns(w, r)
    assert np.allclose(a.as_array(), b.as_array(), atol=1e-12)


def test_unit_vector_selects_single_asset_moments():
    r = _random_instance(3)
    m = compute_moments(r)
    t3 = m.m3_tensor()
    t4 = m.m4_tensor()
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        stats = portfolio_stats(e, m)
        assert stats.mean == pytest.approx(m.mu[i], abs=1e-15)
        assert stats.variance == pytest.approx(m.sigma[i, i], abs=1e-15)
        assert stats.skewness == pytest.approx(t3[i, i, i], abs=1e-15)
        assert stats.kurtosis == pytest.approx(t4[i, i, i, i], abs=1e-15)


def test_duplicated_asset_half_split_matches_single():
    rng = np.random.RandomState(5)
    col = rng.randn(60) * 0.02
    obs = np.column_stack([col, col])
    m = compute_moments(ReturnsMatrix(assets=("A", "B"), observations=obs))
    single = loop_stats(np.array([1.0]), col[:, None])
    stats = portfolio_stats(np.array([0.5, 0.5]), m)
    assert stats.mean == pytest.approx(single["mean"], abs=1e-14)
    assert stats.variance == pytest.approx(single["variance"], abs=1e-14)
    assert stats.skewness == pytest.approx(single["skewness"], abs=1e-16)
    assert stats.kurtosis == pytest.approx(single["kurtosis"], abs=1e-16)


def test_tensor_index_symmetries_exact():
    m = compute_moments(_random_instance(13, n=3, t_count=40))
    t3 = m.m3_tensor()
    t4 = m.m4_tensor()
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.array_equal(t3, np.transpose(t3, perm))
    for perm in ((0, 1, 3, 2), (1, 0, 2, 3), (3, 2, 1, 0)):
        assert np.array_equal(t4, np.transpose(t4, perm))


@pytest.mark.parametrize("n", [3, 10, 25])
def test_cokurtosis_product_matches_the_einsum_definition(n):
    # T n^2 > n^4 below n = 20 at T = 400, where einsum finds no matrix
    # product; n = 25 is past that switch
    r = synthetic_returns(n, 400, 3, 0.8)
    m4 = compute_moments(r).m4_tensor()
    x = r.observations - r.observations.mean(axis=0)
    want = np.einsum("ti,tj,tk,tl->ijkl", x, x, x, x, optimize=True) / r.T
    assert np.max(abs(m4 - want)) <= 1e-14 * np.max(abs(want))
    for perm in ((0, 1, 3, 2), (1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)):
        assert np.array_equal(m4, np.transpose(m4, perm))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetrize_gathers_each_canonical_entry(n):
    # the gather of the former per-order helpers, written out for orders 3 and 4
    rng = np.random.default_rng(n)
    t3, t4 = rng.standard_normal((n,) * 3), rng.standard_normal((n,) * 4)
    i3 = np.sort(np.indices((n, n, n)).reshape(3, -1), axis=0)
    i4 = np.sort(np.indices((n, n, n, n)).reshape(4, -1), axis=0)
    assert np.array_equal(_symmetrize(t3), t3[i3[0], i3[1], i3[2]].reshape(n, n, n))
    assert np.array_equal(_symmetrize(t4), t4[i4[0], i4[1], i4[2], i4[3]].reshape(n, n, n, n))


def test_scale_covariance():
    r = _random_instance(17)
    m1 = compute_moments(r)
    c = 2.5
    m2 = compute_moments(ReturnsMatrix(assets=r.assets, observations=r.observations * c))
    w = np.full(4, 0.25)
    s1 = portfolio_stats(w, m1)
    s2 = portfolio_stats(w, m2)
    assert s2.mean == pytest.approx(c * s1.mean, rel=1e-12)
    assert s2.variance == pytest.approx(c ** 2 * s1.variance, rel=1e-12)
    assert s2.skewness == pytest.approx(c ** 3 * s1.skewness, rel=1e-12)
    assert s2.kurtosis == pytest.approx(c ** 4 * s1.kurtosis, rel=1e-12)


def test_permutation_equivariance(rng):
    r = _random_instance(19)
    m = compute_moments(r)
    perm = np.array([2, 0, 3, 1])
    r_p = ReturnsMatrix(
        assets=tuple(r.assets[i] for i in perm), observations=r.observations[:, perm]
    )
    m_p = compute_moments(r_p)
    w = rng.dirichlet(np.ones(4))
    a = portfolio_stats(w[perm], m_p)
    b = portfolio_stats(w, m)
    assert np.allclose(a.as_array(), b.as_array(), atol=1e-14)


def test_gradients_match_finite_differences(rng):
    r = _random_instance(23)
    m = compute_moments(r)
    w = rng.dirichlet(np.ones(4))
    d = MomentPoint(w, m)
    for name in ("mean", "variance", "skewness", "kurtosis"):
        fd = fd_gradient(lambda x, nm=name: getattr(portfolio_stats(x, m), nm), w)
        exact = d.gradient(name)
        denom = max(float(np.max(np.abs(exact))), 1e-10)
        assert float(np.max(np.abs(fd - exact))) / denom < 1e-5


def test_hessians_match_finite_differences(rng):
    r = _random_instance(29)
    m = compute_moments(r)
    w = rng.dirichlet(np.ones(4))
    for name in ("variance", "skewness", "kurtosis"):
        fd = fd_hessian(lambda x, nm=name: MomentPoint(x, m).gradient(nm), w)
        exact = MomentPoint(w, m).hessian(name)
        denom = max(float(np.max(np.abs(exact))), 1e-10)
        assert float(np.max(np.abs(fd - exact))) / denom < 1e-5


def test_identity_covariance_variance_gradient():
    n = 3
    m = compute_moments(_random_instance(31, n=n, t_count=30))
    ident = type(m)(
        mu=np.zeros(n),
        sigma=np.eye(n),
        m3=np.zeros((n, n * n)),
        m4=np.zeros((n, n ** 3)),
        T=30,
        n=n,
    )
    w = np.array([0.2, 0.3, 0.5])
    assert np.allclose(MomentPoint(w, ident).gradient("variance"), 2 * w)


def test_scalar_skew_gradient():
    m3 = 0.37
    m = type(compute_moments(_random_instance(1, n=1, t_count=10)))(
        mu=np.array([0.0]),
        sigma=np.array([[1.0]]),
        m3=np.array([[m3]]),
        m4=np.array([[1.0]]),
        T=10,
        n=1,
    )
    d = MomentPoint(np.array([1.0]), m)
    assert d.gradient("skewness")[0] == pytest.approx(3 * m3)


def test_returns_validation_errors():
    with pytest.raises(InsufficientDataError):
        ReturnsMatrix(assets=("A",), observations=np.array([[0.1]]))
    with pytest.raises(DataError):
        ReturnsMatrix(assets=("A", "A"), observations=np.zeros((3, 2)))
    bad = np.zeros((3, 2))
    bad[1, 1] = np.nan
    with pytest.raises(DataError, match="row 2, column 2"):
        ReturnsMatrix(assets=("A", "B"), observations=bad)


def test_dimension_mismatch_raises():
    m = compute_moments(_random_instance(37))
    with pytest.raises(ShapeError):
        portfolio_stats(np.array([0.5, 0.5]), m)


def test_csv_round_trip(tmp_path):
    r = synthetic_returns(3, 20, 9, 0.3)
    path = tmp_path / "returns.csv"
    lines = [",".join(r.assets)]
    for row in r.observations:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines), encoding="utf-8")
    loaded = load_returns_csv(path)
    assert loaded.assets == r.assets
    assert np.array_equal(loaded.observations, r.observations)


def test_csv_error_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("A,B\n0.1,0.2\n0.3,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 3, column 2"):
        load_returns_csv(path)


def test_symmetric_returns_kill_odd_moments():
    from hmfront import symmetric_returns

    m = compute_moments(symmetric_returns(3, 200, 4))
    assert float(np.max(np.abs(m.m3))) < 1e-18
