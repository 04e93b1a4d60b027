"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its tolerance and elapsed time.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import time
from contextlib import contextmanager

import numpy as np

import hmfront as hf
from hmfront import epsilon as em
from hmfront import scalarization as sc
from hmfront import tracer as tr
from hmfront.cli import EXIT_OK, main
from hmfront.moments import ReturnsMatrix
from hmfront.quality import dominance_filter
from hmfront.util import equal_weights
from oracles import (
    brute_nondominated_mask,
    fd_gradient,
    fd_hessian,
    loop_stats,
    min_variance_at_mean,
    simplex_sweep,
)

from conftest import CONVEX_LEVEL, CONVEX_SEED, CONVEX_T


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.time()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.time() - start
        print(
            "ACCEPTANCE %02d %s: %s (%.1fs, budget %.0fs)"
            % (number, "FAIL" if failed else "PASS", description, elapsed, budget_seconds)
        )
    assert elapsed < budget_seconds, "criterion %d exceeded its runtime budget" % number


def test_criterion_01_moment_oracle_equivalence():
    with criterion(1, "tensor contraction matches observation-loop oracle at 1e-10", 5):
        for seed in range(20):
            rng = np.random.RandomState(1000 + seed)
            obs = rng.randn(50, 4) * 0.03 + rng.rand(4) * 0.01
            r = ReturnsMatrix(assets=("A", "B", "C", "D"), observations=obs)
            m = hf.compute_moments(r)
            w = rng.dirichlet(np.ones(4))
            got = hf.portfolio_stats(w, m)
            want = loop_stats(w, obs)
            assert abs(got.variance - want["variance"]) <= 1e-10
            assert abs(got.skewness - want["skewness"]) <= 1e-10
            assert abs(got.kurtosis - want["kurtosis"]) <= 1e-10


def test_criterion_02_derivative_checks():
    with criterion(2, "analytic gradients/Hessians vs central differences at 1e-5", 10):
        for seed in range(20):
            rng = np.random.RandomState(2000 + seed)
            obs = rng.randn(50, 4) * 0.03 + rng.rand(4) * 0.01
            m = hf.compute_moments(
                ReturnsMatrix(assets=("A", "B", "C", "D"), observations=obs)
            )
            w = rng.dirichlet(np.ones(4))
            d = hf.MomentPoint(w, m)
            for name in ("mean", "variance", "skewness", "kurtosis"):
                fd_g = fd_gradient(
                    lambda x, nm=name: getattr(hf.portfolio_stats(x, m), nm), w
                )
                exact_g = d.gradient(name)
                rel = np.max(np.abs(fd_g - exact_g)) / max(np.max(np.abs(exact_g)), 1e-10)
                assert rel < 1e-5
                fd_h = fd_hessian(
                    lambda x, nm=name: hf.MomentPoint(x, m).gradient(nm), w
                )
                exact_h = d.hessian(name)
                denom = max(float(np.max(np.abs(exact_h))), 1e-10)
                assert float(np.max(np.abs(fd_h - exact_h))) / denom < 1e-5


def test_criterion_03_nbi_equivalences(convex_mop):
    with criterion(3, "NBI vs modified-SP and mapped-MSF agree (1e-6 / 1e-5)", 60):
        anchors = sc.compute_anchors(convex_mop, seed=1)
        rng = np.random.default_rng(5)
        betas = [np.eye(3)[i] for i in range(3)] + [
            rng.dirichlet(np.ones(3)) for _ in range(17)
        ]
        converged_pairs = 0
        for beta in betas:
            nbi = sc.nbi_params(anchors, beta)
            starts = [beta @ anchors.weights, equal_weights(3)]
            nsol = sc.solve_nbi(convex_mop, nbi, starts=starts)
            spsol = sc.solve_sp(
                convex_mop,
                sc.SpParams(a=nbi.hull_point, r=-anchors.nbar),
                modified=True,
                starts=starts,
            )
            msol = sc.solve_msf(convex_mop, sc.map_nbi_to_msf(nbi), starts=starts)
            if nsol.converged and spsol.converged:
                assert abs(nsol.aux_value + spsol.aux_value) <= 1e-6
                assert np.max(np.abs(nsol.weights - spsol.weights)) <= 1e-5
                converged_pairs += 1
            if nsol.converged and msol.converged:
                assert abs(nsol.aux_value - msol.aux_value) <= 1e-6
                assert np.max(np.abs(nsol.weights - msol.weights)) <= 1e-5
        assert converged_pairs >= 10, "too few rays hit the attainable set"


def test_criterion_04_sf_sp_duality(convex_mop):
    with criterion(4, "shortage vs mapped SP satisfy delta = -t at 1e-8", 30):
        anchors = sc.compute_anchors(convex_mop, seed=1)
        g = anchors.objective_ranges()
        g = np.where(g > 0, g, 1.0)
        rng = np.random.default_rng(6)
        for i in range(20):
            ref = rng.dirichlet(np.ones(3))
            sf = sc.SfParams(g=g, reference_weights=ref)
            sf_sol = sc.solve_sf(convex_mop, sf)
            sp = sc.map_sf_to_sp(sf, convex_mop)
            sp_sol = sc.solve_sp(convex_mop, sp, starts=[ref, equal_weights(3)])
            assert sf_sol.converged and sp_sol.converged
            assert abs(sf_sol.aux_value + sp_sol.aux_value) <= 1e-8


def test_criterion_05_epsilon_equals_sp(convex_mop):
    with criterion(5, "P3(eps) equals SP(a,r) on every feasible 10x10 cell at 1e-6", 60):
        grid = em.build_grid(convex_mop, (10, 10))
        feasible_cells = 0
        for row in range(grid.size):
            eps = grid.centers[row]
            cell = em._solve_cell(
                convex_mop, eps, grid.constrained, grid.minimized, equal_weights(3)
            )
            sp = em.epsilon_as_sp(eps, minimized_index=grid.minimized, m=3)
            if cell.status is hf.SolveStatus.INFEASIBLE:
                sp_sol = sc.solve_sp(convex_mop, sp)
                assert sp_sol.status is hf.SolveStatus.INFEASIBLE
                continue
            assert cell.converged
            sp_sol = sc.solve_sp(convex_mop, sp, starts=[cell.x, equal_weights(3)])
            assert sp_sol.converged
            assert abs(cell.value - sp_sol.aux_value) <= 1e-6
            feasible_cells += 1
        assert feasible_cells >= 50


def test_criterion_06_grid_structural_reproduction(convex_mop):
    with criterion(6, "50x50 driver attempts 2500 cells, >=80% feasible converge, no dominance at 1e-7", 600):
        grid = em.build_grid(convex_mop, (50, 50))
        archive = em.solve_grid(convex_mop, grid)
        assert archive.attempted == 2500
        feasible = archive.attempted - archive.infeasible_count
        converged = feasible - archive.failed_count
        assert converged >= 0.8 * feasible
        image = archive.image()
        filtered = dominance_filter(image, tol=1e-7)
        assert brute_nondominated_mask(filtered, tol=1e-7).all()


def test_criterion_07_refinement_lattice(convex_mop):
    with criterion(7, "refinement lattice exact: +-alpha at mu=0, alpha/(1+mu^2) otherwise", 60):
        grid = em.build_grid(convex_mop, (6, 6))
        archive = em.solve_grid(convex_mop, grid)
        alpha = 0.3 * float(grid.L[0])
        zero_entry = next(e for e in archive.entries if np.all(e.multipliers == 0.0))
        lattice = em.refinement_lattice(zero_entry, alpha, k=1)
        assert len(lattice) == 8
        expected = {
            (zero_entry.eps[0] + i * alpha, zero_entry.eps[1] + j * alpha)
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
            if (i, j) != (0, 0)
        }
        assert {tuple(e) for e in lattice} == expected
        busy = max(archive.entries, key=lambda e: float(e.multipliers[0]))
        assert busy.multipliers[0] > 0
        step1 = alpha / (1.0 + float(busy.multipliers[0]) ** 2)
        step2 = alpha / (1.0 + float(busy.multipliers[1]) ** 2)
        expected_busy = {
            (busy.eps[0] + i * step1, busy.eps[1] + j * step2)
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
            if (i, j) != (0, 0)
        }
        assert {tuple(e) for e in em.refinement_lattice(busy, alpha, k=1)} == expected_busy


def test_criterion_08_tracer_vs_parametric_qp(mv_mop):
    with criterion(8, "traced mean-variance points within 1e-4 of the QP frontier", 60):
        front = tr.trace(mv_mop, tr.TracerConfig(n_starts=4, max_points=120), seed=0)
        assert len(front.points) >= 30
        mu, sig = mv_mop.moments.mu, mv_mop.moments.sigma
        for pt in front.points:
            oracle = min_variance_at_mean(sig, mu, pt.mean)
            assert oracle is not None
            assert abs(pt.variance - oracle) <= 1e-4


def test_criterion_09_tracer_spacing(convex_mop):
    with criterion(9, ">=90% of neighbour image distances within [tau/2, 2tau]", 300):
        front = tr.trace(convex_mop, tr.TracerConfig(n_starts=6, max_points=300), seed=0)
        img = front.image()
        tau = front.metadata["tau"]
        assert len(img) >= 50
        dists = np.sqrt(((img[:, None, :] - img[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        nearest = dists.min(axis=1)
        frac = float(np.mean((nearest >= tau / 2.0) & (nearest <= 2.0 * tau)))
        assert frac >= 0.9


def test_criterion_10_corrector_criticality(convex_mop):
    with criterion(10, "50 corrected portfolios: t* >= -1e-8 and sweep-nondominated", 300):
        rng = np.random.default_rng(10)
        sweep = simplex_sweep(3, 100)
        sweep_images = np.array([convex_mop.objective_values(w) for w in sweep])
        for _ in range(50):
            w0 = rng.dirichlet(np.ones(3))
            point = tr.corrector(w0, convex_mop, 1e-10)
            assert point.t_star >= -1e-8
            dominated = np.any(np.all(sweep_images < point.image, axis=1))
            assert not dominated


def test_criterion_11_pgp_diagnostic(convex_returns, convex_mop):
    with criterion(11, "PGP transport yields finite exponents and residual reports", 120):
        anchors = sc.compute_anchors(convex_mop, seed=1)
        scale = sc.pgp_efficient_scale(convex_mop, anchors)
        scaled = ReturnsMatrix(
            assets=convex_returns.assets,
            observations=convex_returns.observations * scale,
        )
        mop = hf.PortfolioMop(moments=hf.compute_moments(scaled))
        base = sc.solve_pgp(mop, sc.PgpParams(alpha=1.0, beta=1.0), seed=0)
        assert base.converged
        pgp = sc.PgpParams(
            alpha=1.0, beta=1.0, z_stars=(base.info["z1_star"], base.info["z3_star"])
        )
        anchors2 = sc.compute_anchors(mop, seed=1)
        rng = np.random.default_rng(11)
        applicable = []
        for _ in range(16):
            beta = rng.dirichlet(np.ones(3))
            nbi = sc.nbi_params(anchors2, beta)
            nsol = sc.solve_nbi(
                mop, nbi, starts=[beta @ anchors2.weights, equal_weights(3)]
            )
            if not nsol.converged:
                continue
            rep = sc.check_pgp_kkt(nsol, pgp, nbi, mop)
            if not rep.applicable:
                continue
            applicable.append(rep)
            assert np.isfinite(rep.alpha) and np.isfinite(rep.beta)
            assert np.isfinite(rep.stationarity_norm)
            assert np.all(np.isfinite(rep.goal_residuals))
            # the exponent fixed points zero their stationarity rows
            assert abs(rep.goal_residuals[0]) <= 1e-9
            assert abs(rep.goal_residuals[2]) <= 1e-9
            # the variance-goal multiplier is reported; asserted near zero
            # only when the transported NBI variance row is itself slack
            if rep.mu2_zero_applicable:
                assert abs(rep.mu[1]) <= 1e-6
            else:
                print(
                    "  pgp report beta=%s mu2=%.4g (reported, no assertion)"
                    % (np.round(beta, 3).tolist(), rep.mu[1])
                )
        assert applicable, "no interior-beta report was applicable"


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "every CLI command is byte-identical under a fixed seed", 600):
        syn = ["--synthetic", "3", str(CONVEX_T), str(CONVEX_SEED), str(CONVEX_LEVEL)]
        front_dir = tmp_path / "front_src"
        assert (
            main(
                [
                    "front",
                    *syn,
                    "--method",
                    "tracer",
                    "--param",
                    "max_points=8",
                    "--param",
                    "n_starts=2",
                    "--seed",
                    "5",
                    "--out",
                    str(front_dir),
                ]
            )
            == EXIT_OK
        )
        commands = [
            ["moments", *syn],
            [
                "front",
                *syn,
                "--method",
                "epsilon",
                "--param",
                "n1=4",
                "--param",
                "n2=4",
                "--param",
                "rounds=1",
                "--seed",
                "5",
                "--gnuplot",
            ],
            [
                "front",
                *syn,
                "--method",
                "nbi",
                "--param",
                "divisions=3",
                "--seed",
                "5",
            ],
            ["verify", *syn, "--samples", "3", "--seed", "5"],
            [
                "quality",
                *syn,
                "--front",
                str(front_dir / "front.csv"),
                "--reference-n",
                "5",
                "5",
                "--seed",
                "5",
            ],
        ]
        for idx, args in enumerate(commands):
            out_a = tmp_path / ("a%d" % idx)
            out_b = tmp_path / ("b%d" % idx)
            assert main([*args, "--out", str(out_a)]) == EXIT_OK
            assert main([*args, "--out", str(out_b)]) == EXIT_OK
            names_a = sorted(os.listdir(out_a))
            assert names_a == sorted(os.listdir(out_b))
            for name in names_a:
                with open(out_a / name, "rb") as fh:
                    blob_a = fh.read()
                with open(out_b / name, "rb") as fh:
                    blob_b = fh.read()
                assert blob_a == blob_b, "command %d output %s differs" % (idx, name)
