"""Quick tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import functools
import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import outcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Workload(
    n=3,
    base=5,
    args=("--method", "epsilon", "--param", "n1=3", "--param", "n2=3", "--param", "rounds=0"),
    why="smoke test",
)


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(tmp_path, monkeypatch, trace, kind):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)],
                      table={"tiny": TINY})
    assert rc == 0
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(kind)
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines[:-1])


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = tracing.LayerTracer("t", clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        tracer.call("inner", inner, (), {})
        tracer.call("inner", inner, (), {})
        return 2

    assert tracer.call("outer", outer, (), {}) == 2
    selfs = tracing.self_times(tracer.spans)
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(selfs[sp.sid])
    assert by_name["inner"] == [2.0, 2.0]
    assert by_name["outer"] == [6.0]  # 10 - (3 - 1) - (6 - 4)


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracing.Span(1, 0, "util.parallel_map", 0.0, 10.0, 1, "r"),
        tracing.Span(2, 1, "util.parallel_map.task", 0.0, 6.0, 2, "r"),
        tracing.Span(3, 1, "util.parallel_map.task", 2.0, 9.0, 3, "r"),
        tracing.Span(4, 3, "nlp.solve", 3.0, 5.0, 3, "r", "converged"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 1.0, 2: 6.0, 3: 5.0, 4: 2.0}
    metrics = tracing.layer_metrics(spans, 10.0)
    assert metrics["util.parallel_map.wall_s"] == 10.0
    assert metrics["util.parallel_map.busy_s"] == 13.0
    assert metrics["nlp.converged"] == 1


def test_worker_threads_keep_their_own_span_stacks():
    import hmfront
    from hmfront import util
    from hmfront.problem import PortfolioMop

    mop = PortfolioMop(moments=hmfront.compute_moments(
        hmfront.ReturnsMatrix(assets=("a", "b", "c"), observations=wl.base_returns(3, 5))))
    tracer = tracing.LayerTracer("threads")
    tracer.install()
    try:
        out = util.parallel_map(lambda w: mop.objective_values(w), [np.full(3, 1 / 3)] * 16, 2)
    finally:
        tracer.restore()
    tracing.assert_untraced()
    assert len(out) == 16
    by_id = {sp.sid: sp for sp in tracer.spans}
    values = [sp for sp in tracer.spans if sp.name == "moments.values"]
    assert len(values) == 16
    for sp in values:
        task = by_id[sp.parent]
        assert task.name == "util.parallel_map.task" and task.thread == sp.thread
        assert by_id[task.parent].name == "util.parallel_map"


def test_install_and_restore_keep_identity(monkeypatch):
    import hmfront.cli
    import hmfront.moments

    original = hmfront.moments.compute_moments
    tracer = tracing.LayerTracer("identity")
    tracer.install()
    try:
        assert hmfront.cli.compute_moments is not original
        with pytest.raises(AssertionError):
            tracing.assert_untraced()
    finally:
        tracer.restore()
    assert hmfront.cli.compute_moments is original
    assert hmfront.moments.compute_moments is original
    tracing.assert_untraced()

    stale = functools.wraps(original)(lambda returns: original(returns))
    monkeypatch.setattr(hmfront.cli, "compute_moments", stale)
    with pytest.raises(AssertionError):
        tracing.assert_untraced()


def test_missing_entry_point_is_skipped_and_named(monkeypatch):
    gone = ("nlp.gone", "hmfront.nlp", "no_such_function", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.LayerTracer("missing")
    tracer.install()
    tracer.restore()
    tracing.assert_untraced()
    assert tracing.missing_targets() == ["hmfront.nlp.no_such_function"]


def test_corrupted_front_row_fails_the_check(tmp_path):
    from hmfront import cli

    returns = wl.seeded_returns(TINY, 3, 0)
    csv_path = str(tmp_path / "returns.csv")
    wl.write_returns_csv(returns, csv_path)
    returns = wl.read_returns_csv(csv_path)
    out = str(tmp_path / "out")
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["front", "--input", csv_path, "--out", out] + list(TINY.args))
    problems, counts = outcheck.check_run(rc, out, returns)
    assert problems == [] and counts["front_points"] >= 1

    front_csv = os.path.join(out, "front.csv")
    with open(front_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    for column, factor in (("w_1", 1.001), ("skewness", 1.001)):
        cells = lines[1].split(",")
        k = header.index(column)
        cells[k] = repr(float(cells[k]) * factor + (1e-6 if column == "w_1" else 0.0))
        with open(front_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        problems, _ = outcheck.check_run(rc, out, returns)
        assert problems, column
    assert outcheck.check_run(3, out, returns)[0] == ["exit code 3"]
