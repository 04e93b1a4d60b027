"""Batch command-line front end.

Commands::

    hmfront moments  --input returns.csv [--out DIR] [--full-tensors]
    hmfront front    --method M (--input CSV | --synthetic n T seed level)
                     [--param KEY=VALUE ...] [--config cfg.json] [--seed K]
                     [--out DIR] [--workers W] [--gnuplot]
                     [--objectives mean,variance,skewness[,kurtosis]]
    hmfront verify   (--input CSV | --synthetic ...) [--samples N] ...
    hmfront quality  --front front.csv (--input CSV | --synthetic ...) ...

A JSON config document may carry any of the flag values; explicit flags
override config fields.  Flag values and config fields pass one type check,
and seeds must be nonnegative.  All outputs are deterministic for a fixed
seed.

The ``front`` methods are listed once, in :data:`METHODS`, each with the
types of its parameters and a runner.  A parameter value must be of its
type without loss: an int takes no fraction and no boolean, a float no
boolean and no infinity or nan, and a bool only a boolean or
"true"/"false".

Exit codes: 0 success, 2 input error, 3 solve failure, 4 verification
failure, 5 measure undefined.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import epsilon as eps_mod
from . import nlp, quality, scalarization, tracer
from .errors import (
    ConfigError,
    DataError,
    HmfrontError,
    MeasureUndefinedError,
    ParameterError,
    SolverError,
)
from .fronts import (
    SCHEMA_VERSION,
    FrontApproximation,
    FrontPoint,
    front_to_json_dict,
    read_front_csv,
    write_front_csv,
    write_gnuplot,
    write_json,
)
from .moments import ReturnsMatrix, compute_moments, load_returns_csv
from .problem import (
    OBJECTIVE_SENSES,
    PortfolioMop,
    UtilityParams,
    iterative_utility_optimize,
    utility_optimize,
)
from .synthetic import synthetic_returns
from .util import equal_weights

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVE = 3
EXIT_VERIFY = 4
EXIT_MEASURE = 5

# most subproblems one front run may schedule: the lambda values of a
# utility_iterative schedule (one QP each), the rays of an nbi or sp lattice,
# the references of sf or msf and the starts of tracer or utility
_MAX_SUBPROBLEMS = 10_000


@dataclass
class RunConfig:
    input_path: str | None = None
    synthetic: tuple[int, int, int, float] | None = None
    method: str = "epsilon"
    method_params: dict = field(default_factory=dict)
    objectives: tuple[str, ...] = ("mean", "variance", "skewness")
    seed: int = 0
    output_dir: str = "."
    workers: int = 1  # kept so --workers and "workers" stay accepted; runs are serial
    gnuplot: bool = False
    full_tensors: bool = False
    front_path: str | None = None
    samples: int = 20
    reference_n: tuple[int, int] = (200, 200)

    def validate_method(self) -> None:
        if self.method not in METHODS:
            raise ConfigError("unknown method %r" % self.method)
        schema = METHODS[self.method].params
        for key, val in self.method_params.items():
            if key not in schema:
                raise ConfigError(
                    "unknown parameter %r for method %s (allowed: %s)"
                    % (key, self.method, ", ".join(sorted(schema)))
                )
            want = schema[key]
            try:
                self.method_params[key] = _coerce(want, val)
            except (TypeError, ValueError):
                raise ConfigError(
                    "parameter %r for method %s must be %s, got %r"
                    % (key, self.method, "a finite float" if want is float else want.__name__, val)
                ) from None


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


# config field -> (RunConfig attribute, type of its value): a tuple of types
# is a list of exactly that many values, [str] a list of names
_CONFIG_FIELDS = {
    "input": ("input_path", str),
    "method": ("method", str),
    "method_params": ("method_params", dict),
    "objectives": ("objectives", [str]),
    "seed": ("seed", int),
    "out": ("output_dir", str),
    "workers": ("workers", int),
    "gnuplot": ("gnuplot", bool),
    "synthetic": ("synthetic", (int, int, int, float)),
    "samples": ("samples", int),
    "front": ("front_path", str),
    "reference_n": ("reference_n", (int, int)),
}
# attributes whose default is None, which a config field may set to null
_NULLABLE = ("input_path", "synthetic", "front_path")


def _config_value(want, val):
    """Check a config value against its field's type; raises ValueError."""
    if isinstance(want, tuple):
        if not isinstance(val, list) or len(val) != len(want):
            raise ValueError(val)
        return tuple(_coerce(t, v) for t, v in zip(want, val))
    if isinstance(want, list):
        if not isinstance(val, list):
            raise ValueError(val)
        return tuple(_config_value(want[0], v) for v in val)
    if want in (str, dict):
        if not isinstance(val, want):
            raise ValueError(val)
        return val
    return _coerce(want, val)


def _set_field(cfg: RunConfig, key: str, val, source: str) -> None:
    """Set config field ``key`` from a config document or a flag, checked
    against its type in :data:`_CONFIG_FIELDS`."""
    attr, want = _CONFIG_FIELDS[key]
    try:
        if val is not None or attr not in _NULLABLE:
            val = _config_value(want, val)
    except (TypeError, ValueError):
        raise ConfigError("%s has the wrong type or length: %r" % (source, val)) from None
    setattr(cfg, attr, val)


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The run configuration: config document fields, then flags over them.

    Flags and document fields pass the same type check.  Seeds, including
    the seed of ``synthetic``, must be nonnegative, as numpy's generator
    requires.
    """
    cfg = RunConfig()
    if getattr(args, "config", None):
        doc = _load_config_file(args.config)
        for key, val in doc.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError("unknown config field %r" % key)
            _set_field(cfg, key, val, "config field %r" % key)
    # a flag sets the config field of its own name
    for key in _CONFIG_FIELDS:
        val = getattr(args, key, None)
        if val is None or val is False or val == "":
            continue  # flag not given
        if key == "objectives":
            val = [name.strip() for name in val.split(",")]
        _set_field(cfg, key, val, "flag --%s" % key.replace("_", "-"))
    if getattr(args, "param", None):
        for key, val in args.param:
            cfg.method_params[key] = val
    if getattr(args, "full_tensors", False):
        cfg.full_tensors = True
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0, got %d" % cfg.seed)
    if cfg.synthetic is not None and cfg.synthetic[2] < 0:
        raise ConfigError("the synthetic seed must be >= 0, got %d" % cfg.synthetic[2])
    return cfg


def _load_returns(cfg: RunConfig) -> ReturnsMatrix:
    if cfg.input_path and cfg.synthetic:
        raise ConfigError("give either --input or --synthetic, not both")
    if cfg.input_path:
        return load_returns_csv(cfg.input_path)
    if cfg.synthetic:
        n, t_count, seed, level = cfg.synthetic
        return synthetic_returns(n, t_count, seed, level)
    raise ConfigError("an input is required: --input CSV or --synthetic n T seed level")


def _build_mop(cfg: RunConfig) -> PortfolioMop:
    returns = _load_returns(cfg)
    return PortfolioMop(moments=compute_moments(returns), objectives=cfg.objectives)


def _scaled_mop(cfg: RunConfig, mop: PortfolioMop, scale: float) -> PortfolioMop:
    """``mop`` rebuilt from the input returns multiplied by ``scale``."""
    returns = _load_returns(cfg)
    scaled = ReturnsMatrix(assets=returns.assets, observations=returns.observations * scale)
    return PortfolioMop(moments=compute_moments(scaled), objectives=mop.objectives)


def _beta_lattice(m: int, divisions: int) -> list[np.ndarray]:
    """Deterministic simplex lattice of hull weights (vertices included)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], divisions, m)
    return [np.array(v, dtype=float) / divisions for v in out]


def _ray_starts(anchors: scalarization.AnchorSet, beta) -> list[np.ndarray]:
    """Starts of the NBI and SP ray solves at hull weights ``beta``: the
    matching mix of the anchor portfolios, then equal weights as the
    fallback, tried only when the mix does not converge."""
    return [beta @ anchors.weights, equal_weights(anchors.weights.shape[1])]


def _sf_direction(anchors: scalarization.AnchorSet) -> np.ndarray:
    """Shortage direction: the anchor range of each objective, 1 where the
    range is flat."""
    g = anchors.objective_ranges()
    return np.where(g > 0, g, 1.0)


def _mult_dict(prefix: str, values) -> dict:
    return {"%s_%d" % (prefix, i + 1) : float(v) for i, v in enumerate(values)}


def _solution_multipliers(sol: nlp.ScalarSolution) -> dict:
    """Goal-row multipliers of a solve: the equality rows after the budget
    row when there are any, else the inequality rows."""
    if len(sol.eq_multipliers) > 1:
        return _mult_dict("lambda", sol.eq_multipliers[1:])
    return _mult_dict("mu", sol.ineq_multipliers)


def _check_count(cfg: RunConfig, name: str) -> None:
    """Reject a count parameter outside 1.._MAX_SUBPROBLEMS before any solve."""
    if not 1 <= cfg.method_params.get(name, 1) <= _MAX_SUBPROBLEMS:
        raise ParameterError("%s must be from 1 to %d" % (name, _MAX_SUBPROBLEMS))


def _run_tracer(cfg: RunConfig, mop: PortfolioMop):
    _check_count(cfg, "n_starts")
    front = tracer.trace(mop, tracer.TracerConfig(**cfg.method_params), seed=cfg.seed)
    return front.points, front.metadata, []


def _run_epsilon(cfg: RunConfig, mop: PortfolioMop):
    params = dict(cfg.method_params)
    n = (params.pop("n1", eps_mod.GRID_N[0]), params.pop("n2", eps_mod.GRID_N[1]))
    archive = eps_mod.run_adaptive_epsilon(mop, n, **params)
    points = [
        FrontPoint.at(
            mop,
            entry.x,
            {"eps_1": float(entry.eps[0]), "eps_2": float(entry.eps[1])},
            _mult_dict("mu", entry.multipliers),
        )
        for entry in archive.entries
    ]
    metadata = {
        "attempted": archive.attempted,
        "skipped": archive.skipped,
        "infeasible": archive.infeasible_count,
        "failed": archive.failed_count,
        "seed": cfg.seed,
    }
    failures = []
    if archive.failed_count:
        failures.append("%d grid cells failed to converge" % archive.failed_count)
    return points, metadata, failures


def _run_rays(cfg: RunConfig, mop: PortfolioMop):
    """NBI or Pascoletti-Serafini rays from a lattice on the anchor hull."""
    params = cfg.method_params
    method = cfg.method
    divisions = params.get("divisions", 10)
    if divisions < 1:
        raise ParameterError("divisions must be >= 1")
    # the lattice has C(divisions + m - 1, m - 1) rays
    if math.comb(divisions + mop.m - 1, mop.m - 1) > _MAX_SUBPROBLEMS:
        raise ParameterError(
            "divisions=%d would give a lattice of more than %d rays"
            % (divisions, _MAX_SUBPROBLEMS)
        )
    anchors = scalarization.compute_anchors(mop, seed=cfg.seed)
    points = []
    failures = []
    missed_rays = 0
    for beta in _beta_lattice(mop.m, divisions):
        nbi = scalarization.nbi_params(anchors, beta)
        starts = _ray_starts(anchors, beta)
        if method == "nbi":
            sol = scalarization.solve_nbi(mop, nbi, starts=starts)
            aux_name = "s"
        else:
            sp = scalarization.map_nbi_to_sp(nbi)
            sol = scalarization.solve_sp(
                mop, sp, modified=params.get("modified", True), starts=starts
            )
            aux_name = "t"
        if sol.status is nlp.SolveStatus.INFEASIBLE:
            # the ray from this hull point misses the attainable image
            # set; an expected outcome, not a solver failure
            missed_rays += 1
            continue
        if not sol.converged:
            failures.append(
                "%s at beta=%s: %s" % (method, np.round(beta, 4).tolist(), sol.status.value)
            )
            continue
        pt_params = {"beta_%d" % (i + 1): float(b) for i, b in enumerate(beta)}
        pt_params[aux_name] = float(sol.aux_value)
        points.append(FrontPoint.at(mop, sol.weights, pt_params, _solution_multipliers(sol)))
    metadata = {"divisions": divisions, "seed": cfg.seed, "missed_rays": missed_rays}
    return points, metadata, failures


def _run_shortage(cfg: RunConfig, mop: PortfolioMop):
    """Shortage-function (SF or MSF) solves from random reference portfolios."""
    _check_count(cfg, "n_references")
    n_refs = cfg.method_params.get("n_references", 20)
    g = _sf_direction(scalarization.compute_anchors(mop, seed=cfg.seed))
    rng = np.random.default_rng(cfg.seed)
    solver = scalarization.solve_sf if cfg.method == "sf" else scalarization.solve_msf
    points = []
    failures = []
    for i in range(n_refs):
        ref = rng.dirichlet(np.ones(mop.n))
        sol = solver(mop, scalarization.SfParams(g=g, reference_weights=ref))
        if not sol.converged:
            failures.append("%s reference %d: %s" % (cfg.method, i, sol.status.value))
            continue
        pt_params = {"reference_%d" % (j + 1): float(r) for j, r in enumerate(ref)}
        pt_params["delta"] = float(sol.aux_value)
        points.append(FrontPoint.at(mop, sol.weights, pt_params, _solution_multipliers(sol)))
    return points, {"n_references": n_refs, "seed": cfg.seed}, failures


def _run_pgp(cfg: RunConfig, mop: PortfolioMop):
    if not {"mean", "skewness"} <= set(mop.objectives):
        raise ParameterError("pgp needs the objectives mean and skewness")
    params = cfg.method_params
    scale = scalarization.pgp_scale_factor(mop)
    scaled_mop = _scaled_mop(cfg, mop, scale)
    print(
        "note: returns rescaled by %.6g so the unit-variance slice is attainable" % scale,
        file=sys.stderr,
    )
    pgp = scalarization.PgpParams(alpha=params.get("alpha", 1.0), beta=params.get("beta", 1.0))
    sol = scalarization.solve_pgp(scaled_mop, pgp, seed=cfg.seed)
    metadata = {"scale": scale, "seed": cfg.seed}
    if sol.info:
        metadata["z_stars"] = [sol.info["z1_star"], sol.info["z3_star"]]
    if not sol.converged:
        return [], metadata, ["pgp: %s (%s)" % (sol.status.value, sol.message)]
    pt_params = {
        "alpha": pgp.alpha,
        "beta": pgp.beta,
        "d1": sol.info["d1"],
        "d3": sol.info["d3"],
        "scale": scale,
    }
    point = FrontPoint.at(scaled_mop, sol.weights, pt_params, _solution_multipliers(sol))
    return [point], metadata, []


def _run_utility(cfg: RunConfig, mop: PortfolioMop):
    params = cfg.method_params
    _check_count(cfg, "n_starts")
    u = UtilityParams(lam=params.get("lam", 2.0))
    sol = utility_optimize(mop, u, n_starts=params.get("n_starts", 16), seed=cfg.seed)
    metadata = {"lambda": u.lam, "seed": cfg.seed}
    if not sol.converged:
        return [], metadata, ["utility: %s" % sol.status.value]
    pt_params = {"lambda": u.lam, "value": float(sol.value)}
    return [FrontPoint.at(mop, sol.weights, pt_params, _solution_multipliers(sol))], metadata, []


def _run_utility_iterative(cfg: RunConfig, mop: PortfolioMop):
    params = cfg.method_params
    lam = params.get("lambda_start", 20.0)
    stop = params.get("lambda_stop", 2.0)
    step = params.get("lambda_step", 2.0)
    if not step > 0:
        raise ParameterError("lambda_step must be positive")
    # the schedule has floor((lam - stop + 1e-12) / step) + 1 values
    if (lam - stop + 1e-12) / step >= _MAX_SUBPROBLEMS:
        raise ParameterError(
            "the lambda schedule would have more than %d values" % _MAX_SUBPROBLEMS
        )
    schedule = []
    while lam >= stop - 1e-12:
        schedule.append(lam)
        # a step that rounds away would repeat lam forever
        if lam - step == lam:
            raise ParameterError("lambda_step is too small to change lambda")
        lam -= step
    path = dict(iterative_utility_optimize(mop, schedule))
    points = [
        FrontPoint.at(mop, path[lam], {"lambda": float(lam)}, {})
        for lam in schedule
        if lam in path
    ]
    failures = [
        "utility_iterative at lambda=%r: QP did not converge" % lam
        for lam in schedule
        if lam not in path
    ]
    return points, {"schedule": schedule, "seed": cfg.seed}, failures


@dataclass(frozen=True)
class Method:
    """One ``front`` method: its parameter types and its runner.

    ``run(cfg, mop)`` returns the front's points, its metadata and the
    failure summaries.
    """

    params: dict[str, type]
    run: Callable[[RunConfig, PortfolioMop], tuple[list[FrontPoint], dict, list[str]]]


METHODS: dict[str, Method] = {
    "sf": Method({"n_references": int}, _run_shortage),
    "msf": Method({"n_references": int}, _run_shortage),
    "nbi": Method({"divisions": int}, _run_rays),
    "sp": Method({"divisions": int, "modified": bool}, _run_rays),
    "epsilon": Method(
        {"n1": int, "n2": int, "alpha": float, "k": int, "rounds": int}, _run_epsilon
    ),
    "pgp": Method({"alpha": float, "beta": float}, _run_pgp),
    "tracer": Method({"tau": float, "n_starts": int, "max_points": int}, _run_tracer),
    "utility": Method({"lam": float, "n_starts": int}, _run_utility),
    "utility_iterative": Method(
        {"lambda_start": float, "lambda_stop": float, "lambda_step": float},
        _run_utility_iterative,
    ),
}


def _coerce(want: type, val):
    """Cast a method parameter to ``want`` without losing information.

    Raises ValueError for a bool where a number is wanted, a number where
    a bool is wanted, a non-integral value where an int is wanted, and a
    value that is not finite where a float is wanted.
    """
    if want is bool:
        if isinstance(val, bool):
            return val
        if isinstance(val, str) and val.lower() in ("true", "false"):
            return val.lower() == "true"
        raise ValueError(val)
    if isinstance(val, bool):
        raise ValueError(val)
    if want is int and isinstance(val, float) and not val.is_integer():
        raise ValueError(val)
    out = want(val)
    if want is float and not math.isfinite(out):
        raise ValueError(val)
    return out


def _run_front(cfg: RunConfig, mop: PortfolioMop) -> tuple[FrontApproximation, list[str]]:
    """Run the chosen method; returns the front and failure summaries."""
    points, metadata, failures = METHODS[cfg.method].run(cfg, mop)
    front = FrontApproximation(
        method=cfg.method, objectives=mop.objectives, points=points, metadata=metadata
    )
    front.sort_by_mean_descending()
    return front, failures


def cmd_moments(cfg: RunConfig) -> int:
    returns = _load_returns(cfg)
    moments = compute_moments(returns)
    os.makedirs(cfg.output_dir, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": moments.n,
        "T": moments.T,
        "assets": list(returns.assets),
        "mu": [float(v) for v in moments.mu],
        "sigma": [[float(v) for v in row] for row in moments.sigma],
        "m3_frobenius": float(np.linalg.norm(moments.m3)),
        "m4_frobenius": float(np.linalg.norm(moments.m4)),
        "m3_extremes": [float(moments.m3.min()), float(moments.m3.max())],
        "m4_extremes": [float(moments.m4.min()), float(moments.m4.max())],
    }
    if cfg.full_tensors:
        doc["m3"] = [[float(v) for v in row] for row in moments.m3]
        doc["m4"] = [[float(v) for v in row] for row in moments.m4]
    write_json(doc, os.path.join(cfg.output_dir, "moments.json"))
    print("moments.json written for %d assets, %d periods" % (moments.n, moments.T))
    return EXIT_OK


def cmd_front(cfg: RunConfig) -> int:
    cfg.validate_method()
    mop = _build_mop(cfg)
    front, failures = _run_front(cfg, mop)
    os.makedirs(cfg.output_dir, exist_ok=True)
    doc = front_to_json_dict(front)
    doc["partial"] = bool(failures)
    doc["failures"] = failures
    doc["seed"] = cfg.seed
    write_front_csv(front, os.path.join(cfg.output_dir, "front.csv"))
    write_json(doc, os.path.join(cfg.output_dir, "front.json"))
    if cfg.gnuplot:
        write_gnuplot(front, os.path.join(cfg.output_dir, "front.dat"))
    print("front: %d points via %s" % (len(front.points), front.method))
    if failures:
        print("method failures:", file=sys.stderr)
        for item in failures:
            print("  " + item, file=sys.stderr)
        return EXIT_SOLVE
    return EXIT_OK


# the objectives verify needs, in any order: the epsilon grid constrains mean
# and variance and minimizes skewness, and the PGP rows need all three
_VERIFY_OBJECTIVES = ("mean", "skewness", "variance")


def _compare(check: str, where: dict, a, b, tol: float, weights_tol=None) -> dict:
    """One identity case of ``verify``: solves ``a`` and ``b`` agree.

    Every scalarization reports its minimized value ``sense * aux``, so
    each identity (s = -t, s = delta, delta = -t, cell = t) is
    ``|a.value - b.value| <= tol``; ``weights_tol`` also bounds the largest
    weight difference.  Skipped unless both solves converged.
    """
    case = {"check": check, **where}
    if not (a.converged and b.converged):
        case.update(status="skipped", reason="%s / %s" % (a.status.value, b.status.value))
        return case
    dv = abs(a.value - b.value)
    case.update(delta_value=dv, tolerance=tol)
    ok = dv <= tol
    if weights_tol is not None:
        dw = float(np.max(np.abs(a.weights - b.weights)))
        case.update(delta_weights=dw, weights_tolerance=weights_tol)
        ok = ok and dw <= weights_tol
    case["status"] = "pass" if ok else "fail"
    return case


def _verify_cases(
    cfg: RunConfig, mop: PortfolioMop, anchors: scalarization.AnchorSet
) -> list[dict]:
    """The identity cases: NBI against modified SP and mapped MSF at hull
    weights, SF against mapped SP at random references, and epsilon cells
    against SP on a 10 x 10 grid."""
    rng = np.random.default_rng(cfg.seed)
    cases: list[dict] = []
    betas = [np.eye(mop.m)[i] for i in range(mop.m)]
    while len(betas) < cfg.samples:
        betas.append(rng.dirichlet(np.ones(mop.m)))
    for beta in betas:
        nbi = scalarization.nbi_params(anchors, beta)
        starts = _ray_starts(anchors, beta)
        nbi_sol = scalarization.solve_nbi(mop, nbi, starts=starts)
        sp = scalarization.map_nbi_to_sp(nbi)
        sp_sol = scalarization.solve_sp(mop, sp, modified=True, starts=starts)
        msf_sol = scalarization.solve_msf(mop, scalarization.map_nbi_to_msf(nbi), starts=starts)
        where = {"beta": [float(b) for b in beta]}
        cases.append(_compare("nbi_vs_modified_sp", where, nbi_sol, sp_sol, 1e-6, 1e-5))
        cases.append(_compare("nbi_vs_mapped_msf", where, nbi_sol, msf_sol, 1e-6, 1e-5))
    g = _sf_direction(anchors)
    equal = equal_weights(mop.n)
    for i in range(cfg.samples):
        ref = rng.dirichlet(np.ones(mop.n))
        sf = scalarization.SfParams(g=g, reference_weights=ref)
        sf_sol = scalarization.solve_sf(mop, sf)
        sp = scalarization.map_sf_to_sp(sf, mop)
        sp_sol = scalarization.solve_sp(mop, sp, starts=[ref, equal])
        cases.append(_compare("sf_vs_mapped_sp", {"reference": i}, sf_sol, sp_sol, 1e-8))
    grid = eps_mod.build_grid(mop, (10, 10))
    for eps in grid.centers:
        cell = eps_mod._solve_cell(mop, eps, grid.constrained, grid.minimized, equal)
        sp = eps_mod.epsilon_as_sp(eps, minimized_index=grid.minimized)
        sp_starts = [cell.x, equal] if cell.converged else [equal]
        sp_sol = scalarization.solve_sp(mop, sp, starts=sp_starts)
        where = {"eps": [float(e) for e in eps]}
        cell_inf = cell.status is nlp.SolveStatus.INFEASIBLE
        sp_inf = sp_sol.status is nlp.SolveStatus.INFEASIBLE
        if cell_inf or sp_inf:
            # an infeasible cell passes only when its SP is infeasible too
            cases.append(
                {
                    "check": "epsilon_vs_sp",
                    **where,
                    "status": "pass" if cell_inf == sp_inf else "fail",
                    "reason": "infeasible statuses %s/%s" % (cell_inf, sp_inf),
                }
            )
        else:
            cases.append(_compare("epsilon_vs_sp", where, cell, sp_sol, 1e-6))
    return cases


def _pgp_rows(
    cfg: RunConfig, mop: PortfolioMop, anchors: scalarization.AnchorSet
) -> list[dict]:
    """PGP diagnostic on up to 12 random hull weights, until 3 apply.

    The unit-variance slice is placed inside the efficient variance range so
    the shortfalls can be positive at interior front points.
    """
    scaled_mop = _scaled_mop(cfg, mop, scalarization.pgp_efficient_scale(mop, anchors))
    pgp_sol = scalarization.solve_pgp(
        scaled_mop, scalarization.PgpParams(alpha=1.0, beta=1.0), seed=cfg.seed
    )
    if not pgp_sol.info:
        return []
    z_stars = (pgp_sol.info["z1_star"], pgp_sol.info["z3_star"])
    scaled_anchors = scalarization.compute_anchors(scaled_mop, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 11)
    rows: list[dict] = []
    applicable = 0
    for _ in range(12):
        beta = rng.dirichlet(np.ones(3))
        nbi = scalarization.nbi_params(scaled_anchors, beta)
        nbi_sol = scalarization.solve_nbi(
            scaled_mop, nbi, starts=_ray_starts(scaled_anchors, beta)
        )
        if not nbi_sol.converged:
            rows.append({"beta": beta.tolist(), "applicable": False,
                         "reason": "nbi " + nbi_sol.status.value})
            continue
        rep = scalarization.check_pgp_kkt(nbi_sol, z_stars, nbi, scaled_mop)
        rows.append(
            {
                "beta": [float(b) for b in beta],
                "applicable": rep.applicable,
                "reason": rep.reason,
                "alpha": rep.alpha,
                "beta_exponent": rep.beta,
                "mu2": rep.mu[1] if rep.applicable else None,
                "stationarity_norm": rep.stationarity_norm,
                "goal_residuals": list(rep.goal_residuals),
                "mu2_zero_applicable": rep.mu2_zero_applicable,
            }
        )
        applicable += rep.applicable
        if applicable >= 3:
            break
    return rows


def cmd_verify(cfg: RunConfig) -> int:
    if tuple(sorted(cfg.objectives)) != _VERIFY_OBJECTIVES:
        raise ParameterError(
            "verify needs the objectives mean, variance and skewness (any order), got %s"
            % ",".join(cfg.objectives)
        )
    if cfg.samples < 1:
        raise ParameterError("samples must be >= 1")
    mop = _build_mop(cfg)
    anchors = scalarization.compute_anchors(mop, seed=cfg.seed)
    cases = _verify_cases(cfg, mop, anchors)
    pgp_rows = _pgp_rows(cfg, mop, anchors)
    failing = [c for c in cases if c.get("status") == "fail"]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "cases": cases,
        "pgp_report": pgp_rows,
        "all_pass": not failing,
    }
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_json(doc, os.path.join(cfg.output_dir, "verify.json"))
    print(
        "verify: %d cases, %d failing, %d pgp report rows"
        % (len(cases), len(failing), len(pgp_rows))
    )
    if failing:
        print("failing cases:", file=sys.stderr)
        for c in failing:
            print("  " + json.dumps(c, sort_keys=True), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_quality(cfg: RunConfig) -> int:
    if not cfg.front_path:
        raise ConfigError("--front is required for the quality command")
    front = read_front_csv(cfg.front_path)
    missing = [name for name in cfg.objectives if name not in front.objectives]
    if missing:
        raise DataError("front %s has no %s column" % (cfg.front_path, ", ".join(missing)))
    if len(front.points) < 2:
        raise MeasureUndefinedError("front has fewer than 2 points")
    mop = _build_mop(cfg)
    archive = eps_mod.run_adaptive_epsilon(mop, cfg.reference_n, rounds=0)
    reference = archive.image()
    image = np.array(
        [
            [OBJECTIVE_SENSES[name] * pt.stat(name) for name in mop.objectives]
            for pt in front.points
        ]
    )
    report = quality.quality_report(image, reference, tol=1e-9)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "front": cfg.front_path,
        "reference": {
            "method": "epsilon",
            "N": list(cfg.reference_n),
            "attempted": archive.attempted,
            "skipped": archive.skipped,
        },
        "seed": cfg.seed,
    }
    doc.update(report.as_dict())
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_json(doc, os.path.join(cfg.output_dir, "quality.json"))
    print(
        "quality: coverage=%.6g uniformity=%.6g cardinality=%d dominated=%d"
        % (report.coverage_error, report.uniformity, report.cardinality, report.dominated_count)
    )
    return EXIT_OK


def _key_value(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError("expected key=value, got %r" % text)
    key, val = text.split("=", 1)
    for caster in (int, float):
        try:
            return key, caster(val)
        except ValueError:
            continue
    if val.lower() in ("true", "false"):
        return key, val.lower() == "true"
    return key, val


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config document; flags override")
    sub.add_argument("--input", help="returns CSV path")
    sub.add_argument(
        "--synthetic",
        nargs=4,
        metavar=("N", "T", "SEED", "LEVEL"),
        help="generate a synthetic instance instead of reading a CSV",
    )
    sub.add_argument("--seed", type=int, help="random seed (default 0)")
    sub.add_argument("--out", help="output directory (default .)")
    sub.add_argument("--workers", type=int, help="accepted and ignored; runs are serial")
    sub.add_argument(
        "--objectives", help="comma list: mean,variance,skewness[,kurtosis]"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmfront",
        description="Pareto fronts for higher-moment portfolio selection",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    p_m = subs.add_parser("moments", help="compute and report sample moments")
    _add_common(p_m)
    p_m.add_argument("--full-tensors", action="store_true", dest="full_tensors")
    p_f = subs.add_parser("front", help="compute a front approximation")
    _add_common(p_f)
    p_f.add_argument("--method", choices=tuple(METHODS))
    p_f.add_argument(
        "--param",
        action="append",
        type=_key_value,
        metavar="KEY=VALUE",
        help="method parameter override (repeatable)",
    )
    p_f.add_argument("--gnuplot", action="store_true")
    p_v = subs.add_parser("verify", help="run the cross-method equivalence checks")
    _add_common(p_v)
    p_v.add_argument("--samples", type=int, help="parameter samples per check (default 20)")
    p_q = subs.add_parser("quality", help="score a front file against a dense reference")
    _add_common(p_q)
    p_q.add_argument("--front", help="front.csv produced by the front command")
    p_q.add_argument(
        "--reference-n",
        dest="reference_n",
        nargs=2,
        metavar=("N1", "N2"),
        help="reference grid resolution (default 200 200)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "moments":
            return cmd_moments(cfg)
        if args.command == "front":
            return cmd_front(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "quality":
            return cmd_quality(cfg)
        raise ConfigError("unknown command %r" % args.command)
    except MeasureUndefinedError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MEASURE
    except (ConfigError, DataError, ParameterError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, HmfrontError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVE


def entrypoint() -> None:  # console script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
