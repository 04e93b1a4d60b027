"""Front-approximation containers and plot-ready serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .problem import OBJECTIVE_SENSES, PortfolioMop

__all__ = [
    "SCHEMA_VERSION",
    "FrontPoint",
    "FrontApproximation",
    "write_front_csv",
    "read_front_csv",
    "front_to_json_dict",
    "write_json",
    "write_gnuplot",
]

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class FrontPoint:
    """One portfolio on a front: weights, raw statistics, the parameters that
    produced it and the associated multipliers."""

    weights: np.ndarray
    mean: float
    variance: float
    skewness: float
    kurtosis: float | None = None
    params: dict = field(default_factory=dict)
    multipliers: dict = field(default_factory=dict)
    status: str = "converged"

    @classmethod
    def at(cls, problem: PortfolioMop, w, params: dict, multipliers: dict) -> FrontPoint:
        """The point at weights ``w`` with its raw statistics under
        ``problem``; kurtosis is kept only when it is one of the objectives."""
        stats = problem.raw_stats(w)
        return cls(
            weights=np.array(w, dtype=float),
            mean=stats.mean,
            variance=stats.variance,
            skewness=stats.skewness,
            kurtosis=stats.kurtosis if "kurtosis" in problem.objectives else None,
            params=params,
            multipliers=multipliers,
        )

    def stat(self, name: str) -> float:
        return float(getattr(self, name))


@dataclass
class FrontApproximation:
    """Ordered collection of front points plus run metadata."""

    method: str
    objectives: tuple[str, ...]
    points: list[FrontPoint] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def n_assets(self) -> int:
        return len(self.points[0].weights) if self.points else 0

    def image(self) -> np.ndarray:
        """Points in the internal minimization image, one row per point."""
        if not self.points:
            return np.zeros((0, len(self.objectives)))
        return np.array(
            [
                [OBJECTIVE_SENSES[name] * pt.stat(name) for name in self.objectives]
                for pt in self.points
            ]
        )

    def sort_by_mean_descending(self) -> None:
        self.points.sort(key=lambda pt: (-pt.mean, pt.variance))


def _fmt(value) -> str:
    return repr(float(value))


def write_front_csv(front: FrontApproximation, path) -> None:
    """Write the front as CSV: weights, statistics, params, multipliers.

    Rows are sorted by mean descending; floats use repr so identical runs
    produce identical bytes.
    """
    n = front.n_assets
    param_keys = list(front.points[0].params) if front.points else []
    mult_keys = list(front.points[0].multipliers) if front.points else []
    headers = (
        ["w_%d" % (i + 1) for i in range(n)]
        + ["mean", "variance", "skewness"]
        + (["kurtosis"] if "kurtosis" in front.objectives else [])
        + param_keys
        + mult_keys
    )
    lines = [",".join(headers)]
    for pt in front.points:
        cells = [_fmt(v) for v in pt.weights]
        cells += [_fmt(pt.mean), _fmt(pt.variance), _fmt(pt.skewness)]
        if "kurtosis" in front.objectives:
            cells.append(_fmt(pt.kurtosis if pt.kurtosis is not None else float("nan")))
        cells += [_fmt(pt.params.get(k, float("nan"))) for k in param_keys]
        cells += [_fmt(pt.multipliers.get(k, float("nan"))) for k in mult_keys]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_front_csv(path) -> FrontApproximation:
    """Reload a front written by :func:`write_front_csv`."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise DataError("empty front file: %s" % path)
    headers = lines[0].split(",")
    w_cols = [h for h in headers if h.startswith("w_")]
    n = len(w_cols)
    stat_cols = [h for h in ("mean", "variance", "skewness", "kurtosis") if h in headers]
    idx = {h: i for i, h in enumerate(headers)}
    points = []
    for ln in lines[1:]:
        cells = ln.split(",")
        weights = np.array([float(cells[idx["w_%d" % (i + 1)]]) for i in range(n)])
        kwargs = {name: float(cells[idx[name]]) for name in stat_cols}
        extra_keys = [h for h in headers if not h.startswith("w_") and h not in stat_cols]
        params = {h: float(cells[idx[h]]) for h in extra_keys}
        points.append(
            FrontPoint(
                weights=weights,
                mean=kwargs["mean"],
                variance=kwargs["variance"],
                skewness=kwargs["skewness"],
                kurtosis=kwargs.get("kurtosis"),
                params=params,
            )
        )
    objectives = tuple(
        name for name in ("mean", "variance", "skewness", "kurtosis") if name in stat_cols
    )
    return FrontApproximation(method="file", objectives=objectives, points=points)


def front_to_json_dict(front: FrontApproximation) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "method": front.method,
        "objectives": list(front.objectives),
        "metadata": front.metadata,
        "points": [
            {
                "weights": [float(v) for v in pt.weights],
                "mean": float(pt.mean),
                "variance": float(pt.variance),
                "skewness": float(pt.skewness),
                "kurtosis": None if pt.kurtosis is None else float(pt.kurtosis),
                "params": {k: float(v) for k, v in pt.params.items()},
                "multipliers": {k: float(v) for k, v in pt.multipliers.items()},
                "status": pt.status,
            }
            for pt in front.points
        ],
    }


def write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_gnuplot(front: FrontApproximation, path) -> None:
    """Plot-ready whitespace table with a comment header."""
    cols = ["mean", "variance", "skewness"] + (
        ["kurtosis"] if "kurtosis" in front.objectives else []
    )
    lines = ["# " + " ".join(cols)]
    for pt in front.points:
        lines.append(" ".join(_fmt(pt.stat(c)) for c in cols))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
