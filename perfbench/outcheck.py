"""Output check for one ``hmfront front`` run, independent of the hmfront package.

A run passes when the program exited 0, ``front.json`` is not partial, the
CSV and JSON agree on the point count, every weight vector is feasible, and
the CSV's mean, variance and skewness match a recomputation over the
observations of the returns CSV.  Moments use divisor T and are raw central
moments, as the program documents.  Agreement is measured against the
largest magnitude of that statistic on the front, because skewness sits
near 1e-7 and changes sign, so a per-value relative test is meaningless.
"""

from __future__ import annotations

import json
import os

import numpy as np

WEIGHT_TOL = 1e-9
STAT_TOL = 1e-9
STATS = ("mean", "variance", "skewness")


def read_front_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]]).reshape(
        len(lines) - 1, len(header)
    )
    return header, rows


def observation_stats(returns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows of (mean, variance, skewness) of each portfolio's return series."""
    series = returns @ weights.T  # T x points
    centred = series - series.mean(axis=0)
    return np.column_stack(
        [series.mean(axis=0), (centred ** 2).mean(axis=0), (centred ** 3).mean(axis=0)]
    )


def check_front(header: list[str], rows: np.ndarray, returns: np.ndarray,
                lower: float = 0.0) -> list[str]:
    """Problems with the weights and statistics of a front table (empty if none)."""
    if rows.shape[0] == 0:
        return ["front is empty"]
    w_cols = [i for i, h in enumerate(header) if h.startswith("w_")]
    if len(w_cols) != returns.shape[1]:
        return ["front has %d weight columns for %d assets" % (len(w_cols), returns.shape[1])]
    weights = rows[:, w_cols]
    problems = []
    low = float(weights.min())
    if low < lower - WEIGHT_TOL:
        problems.append("weight %.3e below the lower bound %g" % (low, lower))
    budget = float(np.abs(weights.sum(axis=1) - 1.0).max())
    if budget > WEIGHT_TOL:
        problems.append("weights miss the budget by %.3e" % budget)
    ours = observation_stats(returns, weights)
    for k, name in enumerate(STATS):
        theirs = rows[:, header.index(name)]
        scale = float(np.abs(ours[:, k]).max())
        err = float(np.abs(theirs - ours[:, k]).max())
        if not err <= STAT_TOL * scale:
            problems.append("%s off by %.3e (scale %.3e)" % (name, err, scale))
    return problems


def check_run(rc: int, out_dir: str, returns: np.ndarray) -> tuple[list[str], dict]:
    """Check one run's outputs; returns (problems, counts)."""
    if rc != 0:
        return ["exit code %d" % rc], {}
    try:
        header, rows = read_front_csv(os.path.join(out_dir, "front.csv"))
        with open(os.path.join(out_dir, "front.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, IndexError) as exc:
        return ["unreadable output: %s" % exc], {}
    counts = dict(doc.get("metadata", {}))
    counts["front_points"] = rows.shape[0]
    problems = []
    if doc.get("partial"):
        problems.append("front.json is partial: %s" % doc.get("failures"))
    if len(doc.get("points", ())) != rows.shape[0]:
        problems.append("front.json has %d points, front.csv %d"
                        % (len(doc.get("points", ())), rows.shape[0]))
    problems += check_front(header, rows, returns)
    return problems, counts


def check_reference(counts: dict, reference: dict) -> list[str]:
    return [
        "%s = %r, recorded %r" % (key, counts.get(key), want)
        for key, want in reference.items()
        if counts.get(key) != want
    ]
