"""Row blocks: derivatives against finite differences, and moment reads per
SQP iteration."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfront import PortfolioMop, compute_moments, nlp, synthetic_returns
from hmfront import epsilon as em
from hmfront import scalarization as sc
from hmfront import tracer as tr
from hmfront.util import equal_weights

_H = 1e-5  # finite-difference step, in the problem's scaled units


def _fd_jacobian(rows, z):
    cols = []
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = _H
        cols.append((rows(z + e).values - rows(z - e).values) / (2.0 * _H))
    return np.array(cols).T


def _fd_weighted_hessian(rows, z, c):
    """Second central differences of ``c @ values``."""
    k = z.size
    phi = lambda x: float(c @ rows(x).values)  # noqa: E731
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei, ej = np.zeros(k), np.zeros(k)
            ei[i], ej[j] = _H, _H
            out[i, j] = (
                phi(z + ei + ej) - phi(z + ei - ej) - phi(z - ei + ej) + phi(z - ei - ej)
            ) / (4.0 * _H * _H)
    return out


def _assert_block_derivatives(rows, z, c):
    block = rows(z)
    jac = block.jacobian
    assert jac.shape == (block.values.size, z.size)
    fd_jac = _fd_jacobian(rows, z)
    assert np.max(np.abs(jac - fd_jac)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))
    hess = block.hessian(c)
    fd_hess = _fd_weighted_hessian(rows, z, c)
    assert np.max(np.abs(hess - fd_hess)) <= 1e-4 * max(1.0, np.max(np.abs(hess)))


def _instance(n, seed, kurtosis):
    objectives = ("mean", "variance", "skewness") + (("kurtosis",) if kurtosis else ())
    moments = compute_moments(synthetic_returns(n, 200, seed, 0.5))
    return PortfolioMop(moments=moments, objectives=objectives)


_instances = st.tuples(st.integers(2, 5), st.integers(0, 2**16), st.booleans())


def _goals(p, rng, coef):
    """Goal rows on a random subset of the objectives, with targets taken
    at another portfolio so that the scaled rows stay of order one."""
    targets = p.objective_values(rng.dirichlet(np.ones(p.n)))
    return [
        sc._Goal(int(i), float(rng.choice([-1.0, 1.0])), float(targets[i]), coef=c)
        for i, c in zip(rng.permutation(p.m)[: rng.integers(1, p.m + 1)], coef(p.m))
    ]


@settings(deadline=None, max_examples=25)
@given(_instances, st.integers(0, 2**32 - 1))
def test_scaled_objective_rows_match_finite_differences(instance, seed):
    p = _instance(*instance)
    rng = np.random.default_rng(seed)
    w0 = rng.dirichlet(np.ones(p.n))
    goals = _goals(p, rng, lambda m: [0.0] * m)
    problem, _ = sc._scaled_problem(
        p, w0, goals, objective=(int(rng.integers(p.m)), float(rng.choice([-1.0, 1.0])))
    )
    c = rng.normal(size=2 + len(goals))
    _assert_block_derivatives(problem.rows, rng.dirichlet(np.ones(p.n)), c)


@settings(deadline=None, max_examples=25)
@given(_instances, st.integers(0, 2**32 - 1), st.booleans())
def test_scaled_aux_rows_match_finite_differences(instance, seed, equality):
    p = _instance(*instance)
    rng = np.random.default_rng(seed)
    w0 = rng.dirichlet(np.ones(p.n))
    goals = _goals(p, rng, lambda m: rng.normal(size=m))
    problem, _ = sc._scaled_problem(
        p, w0, goals, aux=(float(rng.choice([-1.0, 1.0])), float(rng.normal())), equality=equality
    )
    assert problem.n_eq == 1 + (len(goals) if equality else 0)
    z = np.append(rng.dirichlet(np.ones(p.n)), rng.normal())
    _assert_block_derivatives(problem.rows, z, rng.normal(size=2 + len(goals)))


@settings(deadline=None, max_examples=25)
@given(_instances, st.integers(0, 2**32 - 1))
def test_pgp_rows_match_finite_differences(instance, seed):
    p = _instance(*instance)
    rng = np.random.default_rng(seed)
    exponents = tuple(float(e) for e in rng.uniform(0.5, 3.0, size=2))
    # shortfalls kept away from 0, where d**alpha is not smooth
    z = np.concatenate([rng.dirichlet(np.ones(p.n)), rng.uniform(0.1, 1.0, size=2)])
    problem = sc._pgp_problem(p, tuple(rng.normal(size=2)), exponents, z)
    _assert_block_derivatives(problem.rows, z, rng.normal(size=5))


@settings(deadline=None, max_examples=25)
@given(_instances, st.integers(0, 2**32 - 1))
def test_corrector_rows_match_finite_differences(instance, seed):
    p = _instance(*instance)
    rng = np.random.default_rng(seed)
    mop = tr.as_smooth_mop(p)
    x = rng.dirichlet(np.ones(p.n))
    problem, _, _ = tr._corrector_problem(
        mop, x, mop.jacobian(x), mop.hessians(x), 0.25
    )
    z = np.append(rng.uniform(-0.25, 0.25, size=p.n), rng.normal())
    _assert_block_derivatives(problem.rows, z, rng.normal(size=2 + p.m))


def test_epsilon_cell_reads_moments_at_most_four_times_per_sqp_iteration(
    convex_mop, monkeypatch
):
    # one read each for the values at a trial point and for the Jacobian and
    # the Hessian stack at an accepted iterate, whatever the number of rows
    calls, iterations = [0], [0]
    evaluate, minimize = PortfolioMop._evaluate, nlp.minimize

    def counting_evaluate(self, w, kind):
        calls[0] += 1
        return evaluate(self, w, kind)

    def counting_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        iterations[0] += res.nit
        return res

    grid = em.build_grid(convex_mop, (6, 6), seed=0)
    monkeypatch.setattr(PortfolioMop, "_evaluate", counting_evaluate)
    monkeypatch.setattr(nlp, "minimize", counting_minimize)
    sol = em._solve_cell(
        convex_mop, grid.centers[0], grid.constrained, grid.minimized, equal_weights(3)
    )
    assert sol.converged and iterations[0] > 0
    assert calls[0] <= 4 * iterations[0]
