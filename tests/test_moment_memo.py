"""The memoised moment oracle of PortfolioMop: exact agreement with fresh
evaluation under any call order, buffer reuse and result mutation."""

import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfront import (
    PortfolioMop,
    ReturnsMatrix,
    UtilityParams,
    compute_moments,
    portfolio_stats,
    portfolio_stats_from_returns,
)
from hmfront.moments import MomentPoint
from hmfront.problem import (
    OBJECTIVE_NAMES,
    OBJECTIVE_SENSES,
    utility_gradient,
    utility_objective,
)

KINDS = ("values", "jacobian", "hessians")


def _returns(seed, n, t_count=40):
    # same scale as acceptance criterion 01
    rng = np.random.RandomState(seed)
    obs = rng.randn(t_count, n) * 0.03 + rng.rand(n) * 0.01
    return ReturnsMatrix(assets=tuple("A%d" % i for i in range(n)), observations=obs)


def _fresh(p, w, kind):
    """The oracle's answer recomputed from the moment functions directly."""
    senses = [OBJECTIVE_SENSES[name] for name in p.objectives]
    if kind == "values":
        stats = portfolio_stats(w, p.moments)
        return np.array([s * getattr(stats, name) for s, name in zip(senses, p.objectives)])
    pt = MomentPoint(w, p.moments)
    get = pt.gradient if kind == "jacobian" else pt.hessian
    return np.array([s * get(name) for s, name in zip(senses, p.objectives)])


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    order = draw(st.permutations(OBJECTIVE_NAMES))
    objectives = tuple(order[: draw(st.integers(2, 4))])
    raw = draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(
                lambda v: sum(v) > 1e-3
            ),
            min_size=1,
            max_size=3,
        )
    )
    points = [np.array(v) / sum(v) for v in raw]
    calls = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(points) - 1), st.sampled_from(KINDS), st.booleans()
            ),
            min_size=1,
            max_size=12,
        )
    )
    return n, seed, objectives, points, calls


@settings(deadline=None, max_examples=60)
@given(oracle_cases())
def test_oracle_matches_fresh_evaluation(case):
    n, seed, objectives, points, calls = case
    returns = _returns(seed, n)
    p = PortfolioMop(moments=compute_moments(returns), objectives=objectives)
    # a caller may hand in the same buffer with new contents
    buf = np.empty(n)
    for idx, kind, reuse in calls:
        if reuse:
            buf[:] = points[idx]
            arg = buf
        else:
            arg = points[idx].copy()
        got = getattr(p, "objective_" + kind)(arg)
        assert np.array_equal(got, _fresh(p, points[idx], kind))
        got[...] = np.nan  # a caller may change what it was given
        buf[:] = np.nan  # and overwrite its buffer before the next iterate
    for w in points:
        values = p.objective_values(w)
        want = portfolio_stats_from_returns(w, returns)
        for value, name in zip(values, objectives):
            raw_stat = OBJECTIVE_SENSES[name] * value
            assert abs(raw_stat - getattr(want, name)) <= 1e-10


def test_jacobian_builds_no_hessian(convex_mop, monkeypatch):
    def fail(self, name):
        raise AssertionError("Hessian of %s built" % name)

    p = PortfolioMop(moments=convex_mop.moments, objectives=OBJECTIVE_NAMES)
    monkeypatch.setattr(MomentPoint, "hessian", fail)
    w = np.array([0.2, 0.3, 0.5])
    p.objective_values(w)
    p.objective_jacobian(w)
    p.objective_jacobian(w + 0.0)


def test_revisit_reuses_the_point(convex_mop, monkeypatch):
    built = []
    init = MomentPoint.__init__

    def counting_init(self, w, m):
        built.append(1)
        init(self, w, m)

    p = PortfolioMop(moments=convex_mop.moments)
    monkeypatch.setattr(MomentPoint, "__init__", counting_init)
    w = np.array([0.2, 0.3, 0.5])
    p.objective_values(w)
    p.objective_jacobian(w.copy())
    p.objective_hessians(w)
    assert len(built) == 1
    p.objective_values(np.array([0.5, 0.3, 0.2]))
    p.objective_values(w)
    assert len(built) == 3


def test_statistics_and_utility_read_the_memoized_point(convex_mop, monkeypatch):
    p = PortfolioMop(moments=convex_mop.moments)
    u = UtilityParams(lam=2.5)
    w = np.array([0.2, 0.3, 0.5])
    fresh = MomentPoint(w, p.moments)
    built = []
    init = MomentPoint.__init__

    def counting_init(self, w, m):
        built.append(1)
        init(self, w, m)

    p.objective_values(w)
    monkeypatch.setattr(MomentPoint, "__init__", counting_init)
    stats = p.raw_stats(w)
    value = utility_objective(w, p, u)
    grad = utility_gradient(w, p, u)
    assert built == []
    assert np.array_equal(stats.as_array(), [fresh.value(name) for name in OBJECTIVE_NAMES])
    want_value = (
        -fresh.value("mean")
        + u.lambda1 * fresh.value("variance")
        - u.lambda2 * fresh.value("skewness")
        + u.lambda3 * fresh.value("kurtosis")
    )
    want_grad = (
        -fresh.gradient("mean")
        + u.lambda1 * fresh.gradient("variance")
        - u.lambda2 * fresh.gradient("skewness")
        + u.lambda3 * fresh.gradient("kurtosis")
    )
    assert np.array_equal(value, want_value)
    assert np.array_equal(grad, want_grad)


def test_memo_slots_are_per_thread(convex_mop):
    p = PortfolioMop(moments=convex_mop.moments)
    w_main = np.array([0.2, 0.3, 0.5])
    w_other = np.array([0.6, 0.3, 0.1])
    first = p.objective_values(w_main)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(p.objective_values(w_other)))
    worker.start()
    worker.join()
    assert np.array_equal(seen[0], _fresh(p, w_other, "values"))
    # the worker's point did not evict this thread's slot
    assert p._memo.key == w_main.tobytes()
    assert np.array_equal(p.objective_values(w_main), first)


def test_threads_sharing_a_problem_read_their_own_points(convex_mop):
    p = PortfolioMop(moments=convex_mop.moments)
    rng = np.random.default_rng(5)
    points = [rng.dirichlet(np.ones(3)) for _ in range(4)]
    want = {
        kind: [_fresh(p, w, kind) for w in points] for kind in ("values", "jacobian")
    }
    wrong = []

    def work(offset):
        for step in range(300):
            i = (offset + step) % len(points)
            for kind in ("values", "jacobian"):
                if not np.array_equal(getattr(p, "objective_" + kind)(points[i]), want[kind][i]):
                    wrong.append((offset, step, kind))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert wrong == []


def test_memo_is_not_a_field(convex_mop):
    a = PortfolioMop(moments=convex_mop.moments)
    a.objective_values(np.array([0.2, 0.3, 0.5]))
    b = PortfolioMop(moments=convex_mop.moments)
    assert "_memo" not in {f.name for f in fields(PortfolioMop)}
    assert a == b and repr(a) == repr(b)
    c = replace(a)
    assert c == a and getattr(c._memo, "key", None) is None


def test_wrong_shape_is_rejected_after_a_hit(convex_mop):
    from hmfront import ShapeError

    p = PortfolioMop(moments=convex_mop.moments)
    w = np.array([0.2, 0.3, 0.5])
    p.objective_values(w)
    with pytest.raises(ShapeError):
        p.objective_values(w.reshape(1, 3))
