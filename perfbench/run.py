"""Front-computation benchmark for hmfront.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``hmfront front`` on one workload of :mod:`workloads` in a closed
loop: one client, back-to-back runs, each in a fresh child process
(``child.py``) on its own permutation of the workload's instance, until
``--seconds`` have passed.  One set-up-only child runs first as a warm-up
and is not counted.  Every run's output is checked (:mod:`outcheck`); the
first run of the default seed must also reproduce the workload's recorded
counts.

With ``--trace 0`` every run is untraced and the end-to-end metrics are
reported; with ``--trace 1`` traced and untraced runs alternate, and the
per-layer metrics of :func:`tracing.layer_metrics` (medians over the traced
runs) plus ``trace_overhead`` are reported.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit, the sample counts and the environment.  Work files go to
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import outcheck
import workloads as wl

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")
CHILD_TIMEOUT_S = 150.0
TOTAL_LIMIT_S = 170.0
MIN_SAMPLES = 3
WARMUP = "one set-up-only child process before timing; every timed run is a fresh process"

END_TO_END_UNITS = {
    "setup_s": "s",
    "front_s": "s",
    "points_per_s": "points/s",
    "front_points": "count",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run (for example, no program to import)."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_share", "_yield", "_overhead")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.path.join(ROOT, "src"),
    )
    return env


def launch(spec: dict, tag: str, timeout: float) -> tuple[int, dict]:
    """Start ``child.py`` on ``spec`` and wait; returns (exit code, result)."""
    spec_path = os.path.join(WORK_DIR, "spec-%s.json" % tag)
    spec["result"] = os.path.join(WORK_DIR, "result-%s.json" % tag)
    spec["spans"] = os.path.join(WORK_DIR, "spans-%s.jsonl.gz" % tag)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    log_path = os.path.join(WORK_DIR, "child-%s.log" % tag)
    with open(log_path, "w", encoding="utf-8") as log:
        spec["launched"] = time.monotonic()
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            return -1, {}
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
        return proc.returncode or -1, {}
    with open(spec["result"], encoding="utf-8") as fh:
        return 0, json.load(fh)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def write_instance(workload: wl.Workload, seed: int, index: int) -> tuple[str, np.ndarray]:
    """Write run ``index``'s returns CSV; returns its path and the values as read back."""
    path = os.path.join(WORK_DIR, "returns-%d.csv" % index)
    wl.write_returns_csv(wl.seeded_returns(workload, seed, index), path)
    return path, wl.read_returns_csv(path)


def run_workload(name: str, workload: wl.Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    began = time.monotonic()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "hmfront")):
        raise BenchmarkError("no hmfront sources under %s" % src)
    out_dir = os.path.join(WORK_DIR, "out")
    base = {"src": src, "out": out_dir, "args": list(workload.args)}

    csv_path, _ = write_instance(workload, seed, 0)
    rc, warm = launch(dict(base, input=csv_path, mode="setup", run_id="warmup"), "warmup",
                      CHILD_TIMEOUT_S)
    if rc != 0:
        raise BenchmarkError("the set-up child failed (exit %d)" % rc)

    deadline = time.monotonic() + seconds
    runs = []
    problems: list[str] = []
    while True:
        index = len(runs)
        traced = trace and index % 2 == 1
        csv_path, returns = write_instance(workload, seed, index)
        shutil.rmtree(out_dir, ignore_errors=True)
        remaining = TOTAL_LIMIT_S - (time.monotonic() - began)
        rc, res = launch(
            dict(base, input=csv_path, mode="traced" if traced else "front",
                 run_id="%s-%d-%d" % (name, seed, index)),
            str(index), max(remaining, 1.0),
        )
        bad, counts = outcheck.check_run(res["rc"] if res else rc, out_dir, returns)
        if not bad and workload.expect_missed_rays and not counts.get("missed_rays"):
            bad.append("the instance no longer has rays that miss the image set")
        if not bad and index == 0 and seed == wl.DEFAULT_SEED:
            bad += ["reference: %s" % p for p in outcheck.check_reference(counts, workload.reference)]
        problems += ["run %d: %s" % (index, b) for b in bad]
        runs.append({"traced": traced, "ok": not bad, "counts": counts, **res})
        now = time.monotonic()
        done = [r for r in runs if "front_s" in r]
        enough = sum(not r["traced"] for r in done) >= MIN_SAMPLES and (
            not trace or sum(r["traced"] for r in done) >= MIN_SAMPLES
        )
        if (now >= deadline and enough) or now - began > TOTAL_LIMIT_S - 30.0:
            break

    plain = [r for r in runs if not r["traced"] and "front_s" in r]
    traced_runs = [r for r in runs if r["traced"] and "front_s" in r]
    front_s = median([r["front_s"] for r in plain])
    front_points = median([r["counts"].get("front_points", 0) for r in plain])
    summary = {
        "runs": runs,
        "problems": problems,
        "failed": sum(not r["ok"] for r in runs),
        "environment": warm.get("environment", {}),
        "samples": {"untraced": len(plain), "traced": len(traced_runs)},
        "counts": runs[0]["counts"],
        "missing": sorted({m for r in traced_runs for m in r.get("missing", ())}),
    }
    if trace:
        layer_names = traced_runs[0]["layers"] if traced_runs else {}
        metrics = {k: median([r["layers"][k] for r in traced_runs]) for k in layer_names}
        metrics["trace_overhead"] = (
            median([r["front_s"] for r in traced_runs]) / front_s if front_s else 0.0
        )
        summary["metrics"] = {k: (v, per_layer_unit(k)) for k, v in metrics.items()}
    else:
        values = {
            "setup_s": median([r["setup_s"] for r in plain]),
            "front_s": front_s,
            "points_per_s": front_points / front_s if front_s else 0.0,
            "front_points": front_points,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        summary["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return summary


def main(argv=None, table=None) -> int:
    table = wl.WORKLOADS if table is None else table
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run_workload(args.workload, table[args.workload], args.seed, args.seconds,
                               bool(args.trace))
    except BenchmarkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    env = dict(summary["environment"], git_commit=git_commit(), seed=args.seed,
               workload=args.workload, warmup=WARMUP)
    print("environment: " + json.dumps(env, sort_keys=True))
    attempted = len(summary["runs"])
    print("samples: %d untraced, %d traced front runs" % (
        summary["samples"]["untraced"], summary["samples"]["traced"]))
    print("failed_share: %.4f (%d of %d runs)" % (
        summary["failed"] / attempted, summary["failed"], attempted))
    print("counts of the first run: " + json.dumps(summary["counts"], sort_keys=True))
    if summary["missing"]:
        print("entry points not found, their metrics read 0: " + ", ".join(summary["missing"]))
    for problem in summary["problems"]:
        print("problem: " + problem)
    for key, (value, unit) in summary["metrics"].items():
        print("%-32s %14.6g %s" % (key, value, unit))
    result = {
        "correct": not summary["problems"],
        "attempted": attempted,
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
