"""Backend solver contract: KKT residuals, multipliers, determinism."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfront import (
    MultistartError,
    NlpProblem,
    RowBlock,
    SolveStatus,
    solve,
    solve_multistart,
)
from hmfront import nlp
from hmfront import scalarization as sc
from hmfront.util import equal_weights
from oracles import qp_simplex_bruteforce


def _quadratic_problem(Q, c, x0, lb=None):
    """min x'Qx + c'x subject to the budget row sum(x) = 1."""
    n = c.size

    def rows(x):
        return RowBlock(
            np.array([float(x @ Q @ x + c @ x), float(x.sum() - 1.0)]),
            lambda: np.vstack([2.0 * (Q @ x) + c, np.ones(n)]),
            lambda w: w[0] * (2.0 * Q),
        )

    return NlpProblem(rows=rows, x0=x0, n_eq=1, lb=np.zeros(n) if lb is None else lb)


def test_textbook_inequality_multiplier():
    # min x^2 s.t. x - 1 >= 0
    def rows(x):
        return RowBlock(
            np.array([x[0] ** 2, x[0] - 1.0]),
            lambda: np.array([[2.0 * x[0]], [1.0]]),
            lambda w: np.array([[2.0 * w[0]]]),
        )

    prob = NlpProblem(rows=rows, x0=np.array([3.0]), n_ineq=1)
    sol = solve(prob)
    assert sol.status is SolveStatus.CONVERGED
    assert sol.x[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.ineq_multipliers[0] == pytest.approx(2.0, abs=1e-8)
    assert sol.inert_rows.tolist() == [False]  # a binding row takes part


def test_minimum_variance_equal_weights_multiplier():
    # min w'w s.t. 1 - sum(w) = 0 gives w = 1/3 and multiplier 2/3 for the
    # constraint as written
    def rows(x):
        return RowBlock(
            np.array([float(x @ x), float(1.0 - x.sum())]),
            lambda: np.vstack([2.0 * x, -np.ones(3)]),
            lambda w: w[0] * 2.0 * np.eye(3),
        )

    prob = NlpProblem(rows=rows, x0=np.array([0.7, 0.2, 0.1]), n_eq=1)
    sol = solve(prob)
    assert sol.status is SolveStatus.CONVERGED
    assert np.allclose(sol.x, 1.0 / 3.0, atol=1e-10)
    assert sol.eq_multipliers[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_random_qp_matches_support_enumeration(rng):
    for trial in range(6):
        a = rng.normal(size=(4, 4))
        Q = a @ a.T + 0.5 * np.eye(4)
        c = rng.normal(size=4)
        prob = _quadratic_problem(Q, c, np.full(4, 0.25))
        sol = solve(prob)
        assert sol.status is SolveStatus.CONVERGED
        val, w = qp_simplex_bruteforce(Q, c)
        assert sol.value == pytest.approx(val, abs=1e-8)
        assert np.max(np.abs(sol.x - w)) < 1e-7


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_convex_simplex_qp_matches_support_enumeration(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    Q = a @ a.T + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    sol = solve(_quadratic_problem(Q, c, rng.dirichlet(np.ones(n))))
    assert sol.status is SolveStatus.CONVERGED
    val, w = qp_simplex_bruteforce(Q, c)
    assert sol.value == pytest.approx(val, abs=1e-8)
    assert np.max(np.abs(sol.x - w)) < 1e-7


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_indefinite_simplex_objective_reaches_a_second_order_point(n, seed):
    # an indefinite Hessian needs the inertia correction; the solve must end
    # at a KKT point whose Hessian is positive semidefinite on the directions
    # that keep the budget and move only the positive weights
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    Q = 0.5 * (a + a.T)
    c = rng.normal(size=n)
    sol = solve(_quadratic_problem(Q, c, rng.dirichlet(np.ones(n))))
    assert sol.status is SolveStatus.CONVERGED
    assert sol.kkt_residual <= 1e-8 and sol.comp_slackness <= 1e-8
    free = np.flatnonzero(sol.x > 1e-9)
    if free.size > 1:
        z = np.linalg.svd(np.ones((1, free.size)))[2][1:].T
        reduced = z.T @ (2.0 * Q[np.ix_(free, free)]) @ z
        assert np.linalg.eigvalsh(reduced).min() >= -1e-8 * max(1.0, np.abs(Q).max())


def test_stationarity_invariant_on_converged(rng):
    for trial in range(4):
        a = rng.normal(size=(3, 3))
        Q = a @ a.T + 0.3 * np.eye(3)
        c = rng.normal(size=3)
        sol = solve(_quadratic_problem(Q, c, np.full(3, 1 / 3)))
        assert sol.status is SolveStatus.CONVERGED
        assert sol.kkt_residual <= 1e-8
        assert sol.constraint_violation <= 1e-9
        assert np.all(sol.ineq_multipliers >= -1e-8)
        assert sol.comp_slackness <= 1e-8


def _merit_value(problem, x, rho):
    """L1 exact-penalty merit of ``x``."""
    values = problem.rows(x).values
    pen = float(np.sum(np.abs(values[1 : 1 + problem.n_eq])))
    pen += float(np.sum(np.maximum(-values[1 + problem.n_eq :], 0.0)))
    pen += float(np.sum(np.maximum(problem.lb - x, 0.0)))
    pen += float(np.sum(np.maximum(x - problem.ub, 0.0)))
    return float(values[0]) + rho * pen


def test_merit_monotone_over_accepted_phases(rng):
    # the SQP accepts a step only when the l1 exact-penalty merit does not
    # increase; it reads the Jacobian once per iteration, at the accepted
    # iterate (and once at the start), so record the iterates there
    iterates = []

    def recording(problem):
        def rows(x):
            block = problem.rows(x)

            def jacobian():
                iterates.append(x.copy())
                return block.jacobian

            return RowBlock(block.values, jacobian, block.hessian)

        return replace(problem, rows=rows)

    for trial in range(4):
        a = rng.normal(size=(4, 4))
        Q = a @ a.T + np.eye(4)
        c = rng.normal(size=4)
        prob = _quadratic_problem(Q, c, np.array([0.7, 0.1, 0.1, 0.1]))
        iterates.clear()
        sol = solve(recording(prob))
        assert sol.converged and iterates
        rho = 2.0 * max(
            1.0,
            float(np.max(np.abs(sol.eq_multipliers), initial=0.0)),
            float(np.max(np.abs(sol.ineq_multipliers), initial=0.0)),
        )
        merits = np.array([_merit_value(prob, x, rho) for x in [prob.x0] + iterates])
        drops = np.diff(merits)
        assert np.all(drops <= 1e-9 * (1.0 + np.abs(merits[:-1])))


def test_upper_and_lower_bound_multipliers():
    # min 1/2 |x - c|^2 s.t. sum(x) = 1, 0 <= x <= 0.5: x = (0.5, c2 - lam,
    # c3 - lam, 0) with lam = (c2 + c3 - 0.5) / 2, upper-bound multiplier
    # c1 - 0.5 - lam on x1 and lower-bound multiplier lam - c4 on x4
    c = np.array([1.0, 0.4, 0.3, -0.5])

    def rows(x):
        return RowBlock(
            np.array([float(0.5 * (x - c) @ (x - c)), float(x.sum() - 1.0)]),
            lambda: np.vstack([x - c, np.ones(4)]),
            lambda w: w[0] * np.eye(4),
        )

    prob = NlpProblem(
        rows=rows, x0=np.full(4, 0.25), n_eq=1, lb=np.zeros(4), ub=np.full(4, 0.5)
    )
    sol = solve(prob)
    assert sol.status is SolveStatus.CONVERGED
    lam = (c[1] + c[2] - 0.5) / 2.0
    assert np.allclose(sol.x, [0.5, c[1] - lam, c[2] - lam, 0.0], atol=1e-8)
    assert sol.eq_multipliers[0] == pytest.approx(lam, abs=1e-8)
    assert np.array_equal(sol.ub_multipliers > 0, [True, False, False, False])
    assert np.array_equal(sol.lb_multipliers > 0, [False, False, False, True])
    assert np.all(sol.ub_multipliers[1:] == 0.0) and np.all(sol.lb_multipliers[:3] == 0.0)
    assert sol.ub_multipliers[0] == pytest.approx(c[0] - 0.5 - lam, abs=1e-8)
    assert sol.lb_multipliers[3] == pytest.approx(lam - c[3], abs=1e-8)


def test_each_multiplier_lands_at_its_own_index():
    # min |x - c|^2 subject to x0 + x1 + 10 >= 0 (slack) and 1 - x0 >= 0
    # (binding, multiplier 2), with finite lower bounds on x1, x2, x4 and
    # finite upper bounds on x3, x4: x2 >= 0 binds (multiplier 2) and x3 <= 1
    # binds (multiplier 4); the bound rows of the QP number 3 + 2, so no
    # bound index is its variable's index
    c = np.array([2.0, 0.5, -1.0, 3.0, 0.25])

    def rows(x):
        return RowBlock(
            np.array([float((x - c) @ (x - c)), x[0] + x[1] + 10.0, 1.0 - x[0]]),
            lambda: np.vstack([2.0 * (x - c), [1.0, 1.0, 0, 0, 0], [-1.0, 0, 0, 0, 0]]),
            lambda w: w[0] * 2.0 * np.eye(5),
        )

    inf = np.inf
    prob = NlpProblem(
        rows=rows,
        x0=np.array([0.0, 0.0, 0.5, 0.0, 0.0]),
        n_ineq=2,
        lb=np.array([-inf, -5.0, 0.0, -inf, -1.0]),
        ub=np.array([inf, inf, inf, 1.0, 1.0]),
    )
    sol = solve(prob)
    assert sol.status is SolveStatus.CONVERGED
    assert np.allclose(sol.x, [1.0, 0.5, 0.0, 1.0, 0.25], atol=1e-10)
    for got, index, value in [
        (sol.ineq_multipliers, 1, 2.0),
        (sol.lb_multipliers, 2, 2.0),
        (sol.ub_multipliers, 3, 4.0),
    ]:
        assert got[index] == pytest.approx(value, abs=1e-8)
        assert np.count_nonzero(got) == 1


def test_multipliers_after_a_final_feasibility_step_are_the_working_sets():
    # x = (a, c, z): min z subject to z >= 0, -exp(-a) >= 0, -1 - c^2 >= 0
    # and z - 1 >= 0.  At x = 0 the first working set holds z >= 0 alone of
    # the rows of z, with least-squares multiplier 1.  The row -1 - c^2 has
    # gradient 0 at c = 0, so every QP is inconsistent and every step is a
    # feasibility step: the first lifts z to 1, off z >= 0, and the others
    # move a by about 1 each, until the run gives up.  The multipliers stay
    # those of x = 0, but z >= 0 is no longer in the working set, so no
    # multiplier is reported
    def rows(x):
        a, c, z = x
        e = float(np.exp(-a))
        return RowBlock(
            np.array([z, z, -e, -1.0 - c * c, z - 1.0]),
            lambda: np.array([[0, 0, 1.0], [0, 0, 1.0], [e, 0, 0], [0, -2.0 * c, 0], [0, 0, 1.0]]),
            lambda w: np.diag([-w[2] * e, -2.0 * w[3], 0.0]),
        )

    res = nlp.minimize(rows, np.zeros(3), bounds=(None, None), constraints=(0, 4))
    assert res.message == "linearization inconsistent"
    assert res.nit == nlp._MAX_FEASIBILITY_STEPS
    assert res.x[2] == 1.0
    assert not res.ineq_multipliers.any()
    assert not res.lb_multipliers.any() and not res.ub_multipliers.any()


def _contradictory_bounds(fun, grad, curvature):
    """min ``fun`` (gradient ``grad``, constant second derivative
    ``curvature``) subject to x >= 2 and x <= 1 as inequality rows."""

    def rows(x):
        return RowBlock(
            np.array([fun(x), x[0] - 2.0, 1.0 - x[0]]),
            lambda: np.array([[grad(x)], [1.0], [-1.0]]),
            lambda w: np.array([[w[0] * curvature]]),
        )

    return NlpProblem(rows=rows, x0=np.array([0.0]), n_ineq=2)


def test_infeasible_detection():
    # x >= 2 and x <= 1 cannot hold together
    prob = _contradictory_bounds(lambda x: x[0] ** 2, lambda x: 2.0 * x[0], 2.0)
    sol = solve(prob)
    assert sol.status is SolveStatus.INFEASIBLE


def test_nan_constraint_row_is_violated_not_satisfied():
    # min x'x subject to x0 - 1 >= 0, a row that is NaN for x0 <= 1.5: the
    # first full step lands at (1, 0), where the row is NaN.  Counted as
    # satisfied, that point ended the solve as "converged" with violation 0
    def rows(x):
        g = x[0] - 1.0 if x[0] > 1.5 else float("nan")
        return RowBlock(
            np.array([float(x @ x), g]),
            lambda: np.array([2.0 * x, [1.0, 0.0]]),
            lambda w: w[0] * 2.0 * np.eye(2),
        )

    sol = solve(NlpProblem(rows=rows, x0=np.array([3.0, 2.0]), n_ineq=1))
    assert sol.status is not SolveStatus.CONVERGED
    assert sol.x[0] > 1.5 and sol.constraint_violation == 0.0


@pytest.mark.parametrize(
    "values, p",
    [
        ([0.0, np.nan, 2.0], 2),  # a NaN equality row, first or last
        ([0.0, 2.0, np.nan], 2),
        ([0.0, 0.5, np.nan], 1),  # a NaN inequality row
        ([0.0, 0.5, np.inf], 1),  # an infinite inequality row, of either sign
        ([0.0, 0.5, -np.inf], 1),
        ([0.0, np.inf, 0.5], 1),  # an infinite equality row
    ],
)
def test_non_finite_row_counts_as_violated_by_inf(values, p):
    block = RowBlock(np.array(values), lambda: None, lambda c: None)
    it = nlp.Iterate(np.zeros(1), block, p)
    assert it.violation == np.inf and it.l1_violation == np.inf


def _recording_minimize(monkeypatch):
    """Record the iteration count of every SQP run (restoration excluded)."""
    sqp_iters = []
    minimize = nlp.minimize

    def recording_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        if kwargs.get("constraints"):  # restoration passes bounds only
            sqp_iters.append(int(res.nit))
        return res

    monkeypatch.setattr(nlp, "minimize", recording_minimize)
    return sqp_iters


def _circle_problem(x0):
    """min x0 + 2 x1 on the circle x'x = 1."""

    def rows(x):
        return RowBlock(
            np.array([x[0] + 2.0 * x[1], float(x @ x - 1.0)]),
            lambda: np.array([[1.0, 2.0], 2.0 * x]),
            lambda w: w[1] * 2.0 * np.eye(2),
        )

    return NlpProblem(rows=rows, x0=np.array(x0), n_eq=1)


def test_n_iter_counts_both_sqp_runs_after_restoration(monkeypatch):
    sqp_iters = _recording_minimize(monkeypatch)
    prob = _circle_problem([30.0, -20.0])
    # ten iterations cannot reach the circle from this start, so the solve
    # restores feasibility and runs SQP a second time, which needs eight
    monkeypatch.setattr(nlp, "_MAX_ITER", 10)
    sol = solve(prob)
    assert len(sqp_iters) == 2
    assert sol.status is SolveStatus.CONVERGED
    assert sol.n_iter == sum(sqp_iters) > sqp_iters[-1]


def _call_log(monkeypatch, name):
    """Record each call of the ``nlp`` function ``name``."""
    calls = []
    real = getattr(nlp, name)

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(nlp, name, spy)
    return calls


def _one_variable(objective, rows, x0, **bounds):
    """min ``objective`` over one variable subject to inequality rows
    ``g(x) >= 0``; each is ``(value, slope, curvature)`` as functions of x,
    the objective too."""

    def block(x):
        t = float(x[0])
        parts = [objective] + rows
        return RowBlock(
            np.array([f(t) for f, _, _ in parts]),
            lambda: np.array([[df(t)] for _, df, _ in parts]),
            lambda w: np.array([[sum(c * d2(t) for c, (_, _, d2) in zip(w, parts))]]),
        )

    return NlpProblem(rows=block, x0=np.array([x0]), n_ineq=len(rows), **bounds)


def _cap(offset):
    """The row ``offset - x >= 0``."""
    return (lambda t: offset - t, lambda t: -1.0, lambda t: 0.0)


def test_row_of_the_first_working_set_is_not_inert_and_a_slack_row_is():
    # min (x - 2)^2 subject to x >= 0 and 10 - x >= 0, from x = 0: the first
    # row starts the working set and leaves it with multiplier 0; the second
    # stays above 0 throughout
    square = (lambda t: (t - 2.0) ** 2, lambda t: 2.0 * (t - 2.0), lambda t: 2.0)
    floor = (lambda t: t, lambda t: 1.0, lambda t: 0.0)
    sol = solve(_one_variable(square, [floor, _cap(10.0)], 0.0))
    assert sol.converged and np.array_equal(sol.ineq_multipliers, [0.0, 0.0])
    assert sol.inert_rows.tolist() == [False, True]
    # the inert row raised at every point gives the same solve
    again = solve(_one_variable(square, [floor, _cap(15.0)], 0.0))
    for name in ("x", "ineq_multipliers", "eq_multipliers", "lb_multipliers", "inert_rows"):
        assert getattr(again, name).tobytes() == getattr(sol, name).tobytes()
    assert (again.value, again.n_iter, again.message) == (sol.value, sol.n_iter, sol.message)
    assert (again.kkt_residual, again.comp_slackness) == (sol.kkt_residual, sol.comp_slackness)


def _two_curved_rows(raise_first, seen):
    """min 0.5 x'Qx + c'x in a box subject to two concave quadratic rows
    ``0.5 x'C_i x + a_i.x + b_i >= 0``, the first raised by ``raise_first``;
    ``seen`` collects the first row's value at every evaluated point."""
    q, c = np.diag([0.0, 0.5]), np.array([1.0, 0.75])
    a, b = np.array([[-2.0, -1.0], [1.5, 0.0]]), np.array([2.0 + raise_first, 1.5])
    curv = [np.diag([-2.25, -2.5]), np.diag([-2.0, -1.25])]

    def rows(x):
        g = [0.5 * x @ h @ x + ai @ x + bi for h, ai, bi in zip(curv, a, b)]
        seen.append(g[0])
        return RowBlock(
            np.array([0.5 * x @ q @ x + c @ x] + g),
            lambda: np.vstack([q @ x + c] + [h @ x + ai for h, ai in zip(curv, a)]),
            lambda w: w[0] * q + w[1] * curv[0] + w[2] * curv[1],
        )

    box = dict(lb=np.array([-1.25, -1.75]), ub=np.array([0.5, 2.25]))
    return NlpProblem(rows=rows, x0=np.zeros(2), n_ineq=2, **box)


def test_row_below_zero_at_an_evaluated_point_is_not_inert():
    # the first row ends with multiplier 0, but the run evaluated a point
    # where it was below 0: that point's violation entered the merit, and
    # the row raised by 1 gives another run (8 iterations, not 5)
    seen, raised_seen = [], []
    sol = solve(_two_curved_rows(0.0, seen))
    raised = solve(_two_curved_rows(1.0, raised_seen))
    assert sol.converged and sol.ineq_multipliers[0] == 0.0 and min(seen) < 0.0
    assert sol.inert_rows.tolist() == [False, False]
    assert raised.converged and min(raised_seen) > 0.0
    assert raised.n_iter != sol.n_iter


def test_no_row_is_inert_after_a_feasibility_step(monkeypatch):
    # min x subject to x^2 - 0.5 >= 0 and 10 - x >= 0 within [0, 1], from
    # x = 0.1: the linearized first row asks for x >= 2.55, past the upper
    # bound, so the first QP is inconsistent and a feasibility step runs;
    # the solve then converges at 1/sqrt(2) without restoration
    penalty = _call_log(monkeypatch, "_penalty_qp")
    restore = _call_log(monkeypatch, "_restore_feasibility")
    line = (lambda t: t, lambda t: 1.0, lambda t: 0.0)
    square = (lambda t: t * t - 0.5, lambda t: 2.0 * t, lambda t: 2.0)
    prob = _one_variable(line, [square, _cap(10.0)], 0.1, lb=np.zeros(1), ub=np.ones(1))
    sol = solve(prob)
    assert penalty and not restore
    assert sol.converged and sol.x[0] == pytest.approx(2.0 ** -0.5)
    assert sol.inert_rows.tolist() == [False, False]


def test_no_row_is_inert_after_restoration(monkeypatch):
    # min x0 + 2 x1 on the circle x'x = 1 with the row 100 - x0 >= 0, which
    # stays above 0: ten iterations cannot reach the circle from (30, -20),
    # so the solve restores feasibility and runs again
    def rows(x):
        return RowBlock(
            np.array([x[0] + 2.0 * x[1], float(x @ x - 1.0), 100.0 - x[0]]),
            lambda: np.array([[1.0, 2.0], 2.0 * x, [-1.0, 0.0]]),
            lambda w: w[1] * 2.0 * np.eye(2),
        )

    restore = _call_log(monkeypatch, "_restore_feasibility")
    monkeypatch.setattr(nlp, "_MAX_ITER", 10)
    sol = solve(NlpProblem(rows=rows, x0=np.array([30.0, -20.0]), n_eq=1, n_ineq=1))
    assert restore and sol.converged
    assert sol.inert_rows.tolist() == [False]
    # without restoration the same row is inert
    monkeypatch.setattr(nlp, "_MAX_ITER", 300)
    sol = solve(NlpProblem(rows=rows, x0=np.array([30.0, -20.0]), n_eq=1, n_ineq=1))
    assert len(restore) == 1 and sol.converged
    assert sol.inert_rows.tolist() == [True]


def test_iteration_cap_reports_max_iter_with_the_stopping_reason(monkeypatch):
    # min sum(exp(x) - 2x) from (3, -2) takes eight Newton iterations, and
    # no constraint can be violated
    def rows(x):
        return RowBlock(
            np.array([float(np.sum(np.exp(x) - 2.0 * x))]),
            lambda: (np.exp(x) - 2.0)[None, :],
            lambda w: w[0] * np.diag(np.exp(x)),
        )

    prob = NlpProblem(rows=rows, x0=np.array([3.0, -2.0]))
    assert solve(prob).status is SolveStatus.CONVERGED
    monkeypatch.setattr(nlp, "_MAX_ITER", 1)
    sol = solve(prob)
    assert sol.status is SolveStatus.MAX_ITER
    assert sol.n_iter == 1
    assert sol.constraint_violation == 0.0 and sol.kkt_residual > nlp._TOL_KKT
    assert sol.message.startswith("best iterate returned")
    assert sol.message.endswith(": iteration cap reached")


def test_point_left_infeasible_after_restoration_is_infeasible(monkeypatch):
    # restoration reaches the circle, but one SQP iteration from there steps
    # off it again: the final point, not restoration, decides the status
    sqp_iters = _recording_minimize(monkeypatch)
    monkeypatch.setattr(nlp, "_MAX_ITER", 1)
    sol = solve(_circle_problem([0.0, 3.0]))
    assert sqp_iters == [1, 1]
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.constraint_violation > nlp._INFEASIBLE_TOL
    assert sol.message.startswith("final point violates constraints")


def test_failed_restoration_reports_the_violation_at_the_reported_point(monkeypatch):
    # x1^2 + x2^2 >= 3 has no point in the unit box; with no SQP iteration
    # the first run ends at x0, while restoration reaches the corner (1, 1)
    def rows(x):
        return RowBlock(
            np.array([float(x[0]), float(x @ x - 3.0)]),
            lambda: np.vstack([[1.0, 0.0], 2.0 * x]),
            lambda w: w[1] * 2.0 * np.eye(2),
        )

    problem = NlpProblem(
        rows=rows, x0=np.array([0.1, 0.2]), n_ineq=1, lb=np.zeros(2), ub=np.ones(2)
    )
    monkeypatch.setattr(nlp, "_MAX_ITER", 0)
    sol = solve(problem)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.message == "restoration could not reach feasibility"
    assert np.array_equal(sol.x, problem.x0)
    assert sol.constraint_violation == nlp._violation(problem, sol.x) == 2.95
    assert nlp._violation(problem, np.ones(2)) == 1.0


def test_missed_nbi_ray_fails_fast(monkeypatch, convex_mop):
    # a ray of the acceptance NBI lattice that misses the image set; both of
    # its starts used to run to the 300-iteration cap before restoration
    sqp_iters = _recording_minimize(monkeypatch)
    solutions = []
    solve = nlp.solve

    def recording_solve(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(nlp, "solve", recording_solve)
    anchors = sc.compute_anchors(convex_mop, seed=1)
    rng = np.random.default_rng(5)
    beta = [rng.dirichlet(np.ones(3)) for _ in range(2)][1]  # its 5th ray
    starts = [beta @ anchors.weights, equal_weights(3)]
    sqp_iters.clear()  # the anchors' own solves
    solutions.clear()
    sol = sc.solve_nbi(convex_mop, sc.nbi_params(anchors, beta), starts=starts)
    assert sol.status is SolveStatus.INFEASIBLE
    assert len(solutions) == len(sqp_iters) == 2  # restoration failed: no re-run
    for run, start_sol in zip(sqp_iters, solutions):
        assert start_sol.status is SolveStatus.INFEASIBLE
        assert start_sol.n_iter == run
        assert run <= 30 < nlp._MAX_ITER


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    Q = a @ a.T + np.eye(4)
    c = rng.normal(size=4)
    s1 = solve(_quadratic_problem(Q, c, np.full(4, 0.25)))
    s2 = solve(_quadratic_problem(Q, c, np.full(4, 0.25)))
    assert np.array_equal(s1.x, s2.x)
    assert s1.value == s2.value
    assert np.array_equal(s1.eq_multipliers, s2.eq_multipliers)
    assert np.array_equal(s1.ineq_multipliers, s2.ineq_multipliers)


def test_multistart_convex_agreement(rng):
    a = rng.normal(size=(3, 3))
    Q = a @ a.T + np.eye(3)
    c = rng.normal(size=3)
    prob = _quadratic_problem(Q, c, np.full(3, 1 / 3))
    starts = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.full(3, 1 / 3)]
    solutions = [solve(replace(prob, x0=s)) for s in starts]
    vals = [s.value for s in solutions if s.status is SolveStatus.CONVERGED]
    assert max(vals) - min(vals) < 1e-6
    best, picked = solve_multistart(prob, starts), nlp.best_converged(solutions)
    assert best.value == picked.value and np.array_equal(best.x, picked.x)


def test_multistart_solves_every_start_once(monkeypatch, rng):
    a = rng.normal(size=(3, 3))
    Q = a @ a.T + np.eye(3)
    c = rng.normal(size=3)
    prob = _quadratic_problem(Q, c, np.full(3, 1 / 3))
    starts = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.full(3, 1 / 3)]
    seen, solutions = [], []
    real = nlp.solve

    def recording_solve(problem):
        seen.append(problem.x0)
        solutions.append(real(problem))
        return solutions[-1]

    monkeypatch.setattr(nlp, "solve", recording_solve)
    best = solve_multistart(prob, starts)
    assert len(seen) == len(starts)
    assert all(np.array_equal(x0, s) for x0, s in zip(seen, starts))
    assert best is nlp.best_converged(solutions)


def test_multistart_bimodal_finds_both_basins():
    # two quadratic wells at x = -1 and x = +2 of different depths
    def f(x):
        return float(min((x[0] + 1.0) ** 2, (x[0] - 2.0) ** 2 + 0.5))

    def g(x):
        if (x[0] + 1.0) ** 2 <= (x[0] - 2.0) ** 2 + 0.5:
            return np.array([2.0 * (x[0] + 1.0)])
        return np.array([2.0 * (x[0] - 2.0)])

    # each well has curvature 2
    def rows(x):
        return RowBlock(
            np.array([f(x)]), lambda: g(x)[None, :], lambda w: np.array([[2.0 * w[0]]])
        )

    prob = NlpProblem(rows=rows, x0=np.array([0.0]))
    starts = [np.array([-1.5]), np.array([2.5])]
    locals_x = sorted(round(float(solve(replace(prob, x0=s)).x[0]), 3) for s in starts)
    assert locals_x == [-1.0, 2.0]
    assert solve_multistart(prob, starts).x[0] == pytest.approx(-1.0, abs=1e-6)


def test_multistart_single_start_equals_solve(rng):
    a = rng.normal(size=(3, 3))
    Q = a @ a.T + np.eye(3)
    c = rng.normal(size=3)
    prob = _quadratic_problem(Q, c, np.full(3, 1 / 3))
    single = solve(prob)
    multi = solve_multistart(prob, [np.full(3, 1 / 3)])
    assert np.array_equal(single.x, multi.x)
    assert single.value == multi.value


def test_multistart_all_fail_raises():
    prob = _contradictory_bounds(lambda x: x[0], lambda x: 1.0, 0.0)
    with pytest.raises(MultistartError):
        solve_multistart(prob, [np.array([0.0]), np.array([5.0])])


def _merge_candidate(value, weights, aux_tail, status=SolveStatus.CONVERGED):
    zeros = np.zeros(0)
    return nlp.ScalarSolution(
        x=np.append(weights, aux_tail),
        value=value,
        eq_multipliers=zeros,
        ineq_multipliers=zeros,
        lb_multipliers=zeros,
        ub_multipliers=zeros,
        status=status,
        kkt_residual=0.0,
        constraint_violation=0.0,
        comp_slackness=0.0,
        n_iter=0,
        weights=np.asarray(weights, dtype=float),
    )


def test_merge_breaks_an_exact_tie_on_x():
    first = _merge_candidate(-0.5, [0.6, 0.4], [])
    second = _merge_candidate(-0.5, [0.4, 0.6], [])
    assert nlp.best_converged([first, second]) is second
    assert nlp.best_converged([second, first]) is second
    # values within 1e-15 tie too
    close = _merge_candidate(-0.5 + 4e-16, [0.1, 0.9], [])
    assert nlp.best_converged([second, close]) is close
    # x decides to its last entry; weights play no part
    tail = _merge_candidate(-0.5, [0.4, 0.6], 5.0)
    lower_tail = _merge_candidate(-0.5, [0.4, 0.6], 2.0)
    assert nlp.best_converged([tail, lower_tail]) is lower_tail
    third = _merge_candidate(-0.5 - 1e-12, [0.9, 0.1], [])
    assert nlp.best_converged([first, second, third]) is third


def test_aux_merge_falls_back_to_the_first_solution():
    failed = [
        _merge_candidate(-1.0, [0.5, 0.5], 1.0, SolveStatus.MAX_ITER),
        _merge_candidate(-2.0, [0.2, 0.8], 1.0, SolveStatus.INFEASIBLE),
    ]
    assert nlp.best_converged(failed) is None
    by_start = {0.5: failed[0], 0.2: failed[1]}
    starts = [np.array([0.5, 0.5]), np.array([0.2, 0.8])]
    assert sc._best_of_starts(lambda w0: by_start[w0[0]], starts) is failed[0]


def _spy(solutions):
    """A ``solve_one`` that returns ``solutions`` in turn and records the
    starts it was called with."""
    calls = []

    def solve_one(w0):
        calls.append(w0)
        return solutions[len(calls) - 1]

    return solve_one, calls


def test_aux_merge_stops_at_a_converged_first_start():
    converged = _merge_candidate(-1.0, [0.5, 0.5], 1.0)
    better = _merge_candidate(-2.0, [0.2, 0.8], 1.0)
    solve_one, calls = _spy([converged, better])
    starts = [np.array([0.5, 0.5]), np.array([0.2, 0.8])]
    assert sc._best_of_starts(solve_one, starts) is converged
    assert len(calls) == 1


def test_aux_merge_falls_back_to_a_later_converged_start():
    failed = _merge_candidate(-2.0, [0.5, 0.5], 1.0, SolveStatus.MAX_ITER)
    converged = _merge_candidate(-1.0, [0.2, 0.8], 1.0)
    solve_one, calls = _spy([failed, converged])
    starts = [np.array([0.5, 0.5]), np.array([0.2, 0.8])]
    assert sc._best_of_starts(solve_one, starts) is converged
    assert len(calls) == 2
