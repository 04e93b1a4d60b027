"""Row blocks: derivatives against finite differences, and moment reads per
SQP iteration."""

import sys
from dataclasses import replace

import numpy as np
import pytest
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

    grid = em.build_grid(convex_mop, (6, 6))
    monkeypatch.setattr(PortfolioMop, "_evaluate", counting_evaluate)
    monkeypatch.setattr(nlp, "minimize", counting_minimize)
    sol = em._solve_cell(
        convex_mop, grid.centers[0], grid.constrained, grid.minimized, equal_weights(3)
    )
    assert sol.converged and iterations[0] > 0
    assert calls[0] <= 4 * iterations[0]


def _epsilon_cell(p):
    """A solve of the first cell of the 6 x 6 epsilon grid, from equal weights."""
    grid = em.build_grid(p, (6, 6))
    return lambda: em._solve_cell(
        p, grid.centers[0], grid.constrained, grid.minimized, equal_weights(p.n)
    )


def _corrector_subproblem(p):
    """A solve of the tracer's first corrector subproblem at equal weights."""
    mop = tr.as_smooth_mop(p)
    x = equal_weights(p.n)
    problem, _, _ = tr._corrector_problem(mop, x, mop.jacobian(x), mop.hessians(x), 0.25)
    return lambda: nlp.solve(problem)


@pytest.mark.parametrize("subproblem", [_epsilon_cell, _corrector_subproblem])
def test_sqp_reads_the_jacobian_once_per_iterate(convex_mop, monkeypatch, subproblem):
    # the SQP reads the Jacobian at its start and at every accepted iterate,
    # and the Hessian at most as often (a run that stops on the last QP's
    # multipliers reads the Jacobian alone); trial points need values only
    runs = []
    minimize = nlp.minimize

    def counting_minimize(rows, x0, **kwargs):
        reads = {"jacobian": 0, "hessian": 0}

        def counted(x):
            block = rows(x)

            def jacobian():
                reads["jacobian"] += 1
                return block.jacobian

            def hessian(c):
                reads["hessian"] += 1
                return block.hessian(c)

            return nlp.RowBlock(block.values, jacobian, hessian)

        res = minimize(counted, x0, **kwargs)
        runs.append((res.nit, reads))
        return res

    solve = subproblem(convex_mop)
    monkeypatch.setattr(nlp, "minimize", counting_minimize)
    assert solve().converged
    assert runs and all(nit > 0 for nit, _ in runs)
    for nit, reads in runs:
        assert reads["jacobian"] == nit + 1
        assert reads["hessian"] <= nit + 1


def _calls_from_hmfront(fn):
    """``fn()`` and the number of calls hmfront's own code made during it:
    C functions called from an hmfront frame, and Python functions whose
    caller is an hmfront frame.  What numpy does inside a call is not
    counted, so the count does not depend on numpy's internals."""
    count = [0]

    def from_hmfront(frame):
        return frame is not None and frame.f_globals.get("__name__", "").startswith("hmfront")

    def profile(frame, event, arg):
        if event == "c_call" and from_hmfront(frame):
            count[0] += 1
        elif event == "call" and from_hmfront(frame.f_back):
            count[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, count[0]


# calls per SQP iteration measured on the two subproblems below, whole
# solves included (problem assembly, restoration and result mapping)
_CALLS_PER_ITERATION = {"_epsilon_cell": 174, "_corrector_subproblem": 105}


@pytest.mark.parametrize("subproblem", [_epsilon_cell, _corrector_subproblem])
def test_sqp_call_budget_per_iteration(convex_mop, monkeypatch, subproblem):
    # a budget for the solver's own Python: at most a quarter above the
    # measured count, so that a change that adds work to every iteration
    # shows here before it shows in the benchmark
    iterations = [0]
    minimize = nlp.minimize

    def counting_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        iterations[0] += res.nit
        return res

    solve = subproblem(convex_mop)
    monkeypatch.setattr(nlp, "minimize", counting_minimize)
    sol, calls = _calls_from_hmfront(solve)
    assert sol.converged and iterations[0] > 0
    assert calls <= 1.25 * _CALLS_PER_ITERATION[subproblem.__name__] * iterations[0]


def _nbi_ray(p):
    """A solve of the NBI ray through the centre of the anchor hull."""
    anchors = sc.compute_anchors(p)
    nbi = sc.nbi_params(anchors, np.full(p.m, 1.0 / p.m))
    return lambda: sc.solve_nbi(p, nbi, starts=[equal_weights(p.n)])


@pytest.mark.parametrize("subproblem", [_epsilon_cell, _nbi_ray])
def test_scaled_subproblem_reads_each_moment_once_per_point(
    convex_mop, monkeypatch, subproblem
):
    # the reads made while a subproblem is set up (the Jacobian for the
    # scales, the values for an aux start) serve the SQP's first iterate,
    # and the values at the solution serve the mapping back to raw units
    reads = []
    evaluate = PortfolioMop._evaluate

    def recording_evaluate(self, w, kind):
        reads.append((np.asarray(w, dtype=float).tobytes(), kind))
        return evaluate(self, w, kind)

    solve = subproblem(convex_mop)
    monkeypatch.setattr(PortfolioMop, "_evaluate", recording_evaluate)
    assert solve().converged
    assert reads and len(reads) == len(set(reads))


def test_corrector_reads_moments_once_per_iteration(mv_mop, monkeypatch):
    # one Jacobian and one Hessian read per iteration, at the point whose
    # subproblem it solves; the KKT point reuses the last iteration's reads
    mop = tr.as_smooth_mop(mv_mop)
    reads = {"jacobian": 0, "hessians": 0}

    def counted(name):
        read = getattr(mop, name)

        def counting_read(x):
            reads[name] += 1
            return read(x)

        return counting_read

    subproblems = [0]
    solve = nlp.solve

    def counting_solve(problem):
        subproblems[0] += 1
        return solve(problem)

    monkeypatch.setattr(nlp, "solve", counting_solve)
    counting = replace(mop, jacobian=counted("jacobian"), hessians=counted("hessians"))
    tr.corrector(np.array([0.01, 0.01, 0.98]), counting)
    assert subproblems[0] > 1
    assert reads == {"jacobian": subproblems[0], "hessians": subproblems[0]}
