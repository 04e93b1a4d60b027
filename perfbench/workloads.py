"""Workload table and the returns-CSV generator for the front benchmark.

Every workload runs ``hmfront front`` on returns CSVs written by
:func:`write_returns_csv`.  The instance comes from a skewed factor model
with T = 400 observations, fixed per workload (``base``).  Run ``i`` of a
benchmark invocation with seed ``s`` gets that instance with its rows and
asset columns permuted by ``(s, i)``.  Row order leaves every sample moment
unchanged up to rounding and a column permutation relabels the assets, so
every run poses the same front problem.  The solver's path still depends
on the last bits of the moments: one permutation can need a quarter more
objective evaluations than another.  Drawing a fresh permutation for every
run and taking the median over the runs averages that out, so two seeds
give medians that differ by machine noise, not by the instance they drew.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

T_OBS = 400
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One ``hmfront front`` invocation on a generated instance.

    ``reference`` holds the counts the program wrote for the first run of
    ``DEFAULT_SEED`` at the commit that introduced the benchmark (``front_points`` plus the
    ``front.json`` metadata fields listed); ``expect_missed_rays`` asserts
    that the generated instance keeps rays that miss the image set.
    """

    n: int
    base: int
    args: tuple[str, ...]
    why: str
    reference: dict = field(default_factory=dict)
    expect_missed_rays: bool = False


def _params(**kw) -> tuple[str, ...]:
    out: list[str] = []
    for key, val in kw.items():
        out += ["--param", "%s=%s" % (key, val)]
    return tuple(out)


WORKLOADS: dict[str, Workload] = {
    "eps-grid-n3": Workload(
        n=3,
        base=5,
        args=("--method", "epsilon") + _params(n1=12, n2=12, rounds=2) + ("--workers", "1"),
        why="epsilon grid at n=3: moment evaluation dominates and no solve hits the "
        "iteration cap, so a moment-oracle change shows and fail-fast is bypassed",
        reference={"front_points": 49, "attempted": 160, "infeasible": 1},
    ),
    "nbi-rays-n3": Workload(
        n=3,
        base=20,
        args=("--method", "nbi") + _params(divisions=3),
        why="NBI rays at n=3: some rays miss the image set and their SLSQP runs hit "
        "the iteration cap, so fail-fast and feasibility restoration show",
        reference={"front_points": 9, "missed_rays": 1},
        expect_missed_rays=True,
    ),
    "tracer-n10": Workload(
        n=10,
        base=1,
        args=("--method", "tracer") + _params(n_starts=8, max_points=80),
        why="tracer at n=10: many small corrector QPs with KKT polish and Hessian "
        "evaluations, no capped solve; bypasses both the oracle and fail-fast",
        reference={"front_points": 77},
    ),
    "eps-grid-n10-w2": Workload(
        n=10,
        base=1,
        args=("--method", "epsilon") + _params(n1=10, n2=10, rounds=1) + ("--workers", "2"),
        why="epsilon grid at n=10 with two workers: the only workload through "
        "util.parallel_map, plus the n=10 tensor path and a few capped solves",
        reference={"front_points": 50, "attempted": 108, "infeasible": 1},
    ),
}


def base_returns(n: int, base: int) -> np.ndarray:
    """T x n returns of a factor model with a skewed common shock.

    A Gaussian factor block gives the correlation; a centred squared
    Gaussian shock, loaded positively on every asset, gives the skewness.
    """
    rng = np.random.default_rng([n, base])
    drift = rng.uniform(0.003, 0.012, size=n)
    vol = rng.uniform(0.02, 0.045, size=n)
    k = max(1, n // 3)
    loadings = 0.55 * rng.normal(size=(n, k)) / np.sqrt(k)
    own = np.sqrt(np.clip(1.0 - (loadings ** 2).sum(axis=1), 0.1, None))
    skew_load = rng.uniform(0.1, 0.5, size=n)
    factors = rng.normal(size=(T_OBS, k))
    noise = rng.normal(size=(T_OBS, n))
    shock = (rng.normal(size=T_OBS) ** 2 - 1.0) / np.sqrt(2.0)
    return drift + vol * (factors @ loadings.T + noise * own + shock[:, None] * skew_load)


def seeded_returns(workload: Workload, seed: int, index: int) -> np.ndarray:
    """The base instance with rows and columns permuted for run ``index`` of ``seed``."""
    x = base_returns(workload.n, workload.base)
    rng = np.random.default_rng([seed, index])
    return x[rng.permutation(x.shape[0])][:, rng.permutation(x.shape[1])]


def write_returns_csv(returns: np.ndarray, path: str) -> None:
    """Header of asset names, then one row of return fractions per period."""
    header = ",".join("A%d" % (j + 1) for j in range(returns.shape[1]))
    rows = (",".join(repr(float(v)) for v in row) for row in returns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")


def read_returns_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
