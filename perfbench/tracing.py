"""Spans around hmfront's layer entry points, recorded from outside the program.

:class:`LayerTracer` replaces each entry point listed in :data:`TARGETS`
with a wrapper that records a span (id, parent, name, start, end, thread,
run id, info) and restores every replaced attribute afterwards.  The
program itself is not edited.  Span stacks are per thread, so nesting stays
right when ``util.parallel_map`` runs tasks on worker threads; a task span
names the ``parallel_map`` span as its parent across the thread boundary.

A span's self time is its duration minus the part of its interval that its
child spans cover (:func:`self_times`).  :func:`layer_metrics` folds the
spans of one front run into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

_MARK = "__perfbench_original__"


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    thread: int
    run_id: str
    info: object = None


def _status(result, args, kwargs):
    return result.status.value


def _minimize_name(args, kwargs) -> str:
    # calls into scipy with constraints are the SQP solves; nlp's feasibility
    # restoration is the only bound-constrained call
    return "nlp.sqp" if kwargs.get("constraints") else "nlp.restore"


def _minimize_info(result, args, kwargs):
    return int(result.nit), int(kwargs.get("options", {}).get("maxiter", 0))


def _tensor_bytes(result, args, kwargs):
    return int(result.mu.nbytes + result.sigma.nbytes + result.m3.nbytes + result.m4.nbytes)


def _archive_counts(result, args, kwargs):
    return result.attempted, result.infeasible_count, len(result.entries)


def _point_count(result, args, kwargs):
    return len(result.points)


# (span name or name function, defining module, attribute path, info function)
TARGETS = (
    ("moments.values", "hmfront.problem", "PortfolioMop.objective_values", None),
    ("moments.jacobian", "hmfront.problem", "PortfolioMop.objective_jacobian", None),
    ("moments.hessians", "hmfront.problem", "PortfolioMop.objective_hessians", None),
    ("moments.tensors", "hmfront.moments", "compute_moments", _tensor_bytes),
    ("nlp.solve", "hmfront.nlp", "solve", _status),
    ("nlp.multistart", "hmfront.nlp", "solve_multistart", None),
    (_minimize_name, "hmfront.nlp", "minimize", _minimize_info),
    ("scalarization.anchors", "hmfront.scalarization", "compute_anchors", None),
    ("scalarization.minimize_objective", "hmfront.scalarization", "minimize_objective", None),
    ("scalarization.sf", "hmfront.scalarization", "solve_sf", _status),
    ("scalarization.msf", "hmfront.scalarization", "solve_msf", _status),
    ("scalarization.nbi", "hmfront.scalarization", "solve_nbi", _status),
    ("scalarization.sp", "hmfront.scalarization", "solve_sp", _status),
    ("scalarization.pgp", "hmfront.scalarization", "solve_pgp", _status),
    ("epsilon.run", "hmfront.epsilon", "run_adaptive_epsilon", _archive_counts),
    ("epsilon.build_grid", "hmfront.epsilon", "build_grid", None),
    ("epsilon.solve_grid", "hmfront.epsilon", "solve_grid", None),
    ("epsilon.refine", "hmfront.epsilon", "refine", None),
    ("tracer.trace", "hmfront.tracer", "trace", _point_count),
    ("tracer.corrector", "hmfront.tracer", "corrector", None),
    ("tracer.predictor", "hmfront.tracer", "predictor", None),
    ("tracer.tangent_frame", "hmfront.tracer", "tangent_frame", None),
    ("util.parallel_map", "hmfront.util", "parallel_map", None),
    ("cli.main", "hmfront.cli", "main", None),
    ("fronts.write", "hmfront.fronts", "write_front_csv", None),
    ("fronts.write", "hmfront.fronts", "write_json", None),
    ("fronts.write", "hmfront.fronts", "front_to_json_dict", None),
)


def _hmfront_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hmfront" or name.startswith("hmfront."))
    ]


def target_sites(module_name: str, path: str) -> tuple[object, list[tuple[object, str]]]:
    """The original object and every (owner, attribute) that refers to it.

    A method is reached only through its class.  A module-level function is
    also reached through every hmfront module that imported it by name.  An
    entry point the program no longer has gives ``(None, [])``; its metrics
    then read 0 and :func:`missing_targets` names it.
    """
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = vars(owner).get(attr) if owner is not None else None
    if original is None:
        return None, []
    if outer:
        return original, [(owner, attr)]
    sites = [
        (mod, name)
        for mod in _hmfront_modules()
        for name, val in vars(mod).items()
        if val is original
    ]
    return original, sites


def assert_untraced() -> None:
    """Fail unless every entry point, at every site, is the program's own function.

    The defining attribute must not be a benchmark wrapper, and every hmfront
    module that imported the function by name must hold that same object.
    """
    for _, module_name, path, _ in TARGETS:
        original, _ = target_sites(module_name, path)
        if original is None:
            continue
        if hasattr(original, _MARK):
            raise AssertionError("%s.%s is a benchmark wrapper" % (module_name, path))
        for mod in _hmfront_modules():
            val = vars(mod).get(original.__name__)
            if (
                val is not original
                and getattr(val, "__qualname__", None) == original.__qualname__
                and getattr(val, "__module__", None) == original.__module__
            ):
                raise AssertionError("%s.%s is not the program's function"
                                     % (mod.__name__, original.__name__))


def missing_targets() -> list[str]:
    return [
        "%s.%s" % (module_name, path)
        for _, module_name, path, _ in TARGETS
        if target_sites(module_name, path)[0] is None
    ]


class LayerTracer:
    """Installs span-recording wrappers on :data:`TARGETS`; spans stay in memory."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, *, parent: int | None = None,
             sid: int | None = None, info=None):
        """Run ``fn`` inside a span; ``parent`` overrides this thread's stack top."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        start = self._clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = self._clock()
            stack.pop()
            detail = None
            if info is not None and result is not None:
                try:
                    detail = info(result, args, kwargs)
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass  # a changed return type leaves the detail out, not the call
            self.spans.append(
                Span(sid, parent, name, start, end, threading.get_ident(), self.run_id, detail)
            )

    def _wrapper(self, name, fn, info):
        if name == "util.parallel_map":
            return self._parallel_map_wrapper(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, info=info)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _parallel_map_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(task, items, workers=1):
            # tasks may run on pool threads, whose stacks do not hold this span
            pm_sid = next(self._ids)

            def run_task(item):
                return self.call("util.parallel_map.task", task, (item,), {}, parent=pm_sid)

            return self.call("util.parallel_map", fn, (run_task, items, workers), {}, sid=pm_sid)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("already installed")
        # import every target module before patching, so no module binds a
        # wrapper by name at import time
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        plan = [(name, info) + target_sites(module_name, path)
                for name, module_name, path, info in TARGETS]
        for name, info, original, sites in plan:
            if original is None:
                continue
            wrapper = self._wrapper(name, original, info)
            for owner, attr in sites:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back and check it by identity."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        for owner, attr, original in patched:
            if vars(owner)[attr] is not original:
                raise AssertionError("%r.%s was not restored" % (owner, attr))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(
            (max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(sp.sid, ())
        ):
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sp.sid] = (sp.end - sp.start) - covered
    return out


def tail_percentile(count: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it (0 if none)."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 0.0


def _percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _driver_layer(sp: Span, by_id: dict[int, Span]) -> str:
    """Layer of the code that handed a task to parallel_map."""
    node = by_id.get(sp.parent)
    while node is not None and node.name.startswith("util."):
        node = by_id.get(node.parent)
    return node.name.split(".")[0] if node is not None else "util"


def layer_metrics(spans: list[Span], front_s: float) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced front run."""
    selfs = self_times(spans)
    by_id = {sp.sid: sp for sp in spans}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for sp in spans:
        calls[sp.name] += 1
        self_s[sp.name] += selfs[sp.sid]
        incl_s[sp.name] += sp.end - sp.start
        if sp.name == "util.parallel_map.task":
            layer_self[_driver_layer(sp, by_id)] += selfs[sp.sid]
        else:
            layer_self[sp.name.split(".")[0]] += selfs[sp.sid]

    solve_ms = [1e3 * (sp.end - sp.start) for sp in spans if sp.name == "nlp.solve"]
    statuses = [sp.info for sp in spans if sp.name == "nlp.solve"]
    sqp = [sp for sp in spans if sp.name == "nlp.sqp"]
    sqp_runs = [sp.info for sp in sqp if sp.info]
    capped = [sp for sp in sqp if sp.info and 0 < sp.info[1] <= sp.info[0]]
    sqp_iters = sum(nit for nit, _ in sqp_runs)
    useful_iters = sqp_iters - sum(sp.info[0] for sp in capped)
    capped_s = sum(sp.end - sp.start for sp in capped)
    restore_iters = sum(sp.info[0] for sp in spans if sp.name == "nlp.restore" and sp.info)
    ray_status = [
        sp.info for sp in spans if sp.name in ("scalarization.nbi", "scalarization.sp")
    ]
    eps_runs = [sp.info for sp in spans if sp.name == "epsilon.run" and sp.info]
    cells = sum(a for a, _, _ in eps_runs)
    entries = sum(e for _, _, e in eps_runs)
    trace_points = sum(sp.info for sp in spans if sp.name == "tracer.trace" and sp.info)
    tensor_bytes = sum(sp.info for sp in spans if sp.name == "moments.tensors" and sp.info)
    tail = tail_percentile(len(solve_ms))
    nlp_self = sum(self_s[k] for k in ("nlp.solve", "nlp.multistart", "nlp.sqp", "nlp.restore"))
    scal_names = [k for k in calls if k.startswith("scalarization.")]

    def share(part: float) -> float:
        return part / front_s if front_s > 0 else 0.0

    return {
        "traced.front_s": front_s,
        "moments.values.calls": calls["moments.values"],
        "moments.values.self_s": self_s["moments.values"],
        "moments.jacobian.calls": calls["moments.jacobian"],
        "moments.jacobian.self_s": self_s["moments.jacobian"],
        "moments.hessians.calls": calls["moments.hessians"],
        "moments.hessians.self_s": self_s["moments.hessians"],
        "moments.tensors_s": incl_s["moments.tensors"],
        "moments.tensor_mb": tensor_bytes / 2.0 ** 20,
        "moments.self_share": share(layer_self["moments"]),
        "nlp.solve.calls": calls["nlp.solve"],
        "nlp.solve.self_s": self_s["nlp.solve"],
        "nlp.solve.ms_p50": _percentile(solve_ms, 50.0),
        "nlp.solve.ms_tail": _percentile(solve_ms, tail) if tail else 0.0,
        "nlp.solve.tail_pct": tail,
        "nlp.converged": statuses.count("converged"),
        "nlp.infeasible": statuses.count("infeasible"),
        "nlp.max_iter": statuses.count("max_iter"),
        "nlp.multistart.calls": calls["nlp.multistart"],
        "nlp.multistart.self_s": self_s["nlp.multistart"],
        "nlp.sqp.calls": len(sqp),
        "nlp.sqp.self_s": self_s["nlp.sqp"],
        "nlp.sqp.iters": sqp_iters,
        "nlp.sqp.cap_hits": len(capped),
        "nlp.sqp.capped_s": capped_s,
        "nlp.sqp.capped_share": share(capped_s),
        "nlp.restore.calls": calls["nlp.restore"],
        "nlp.restore.self_s": self_s["nlp.restore"],
        "nlp.restore.iters": restore_iters,
        "nlp.useful_iter_share": useful_iters / sqp_iters if sqp_iters else 1.0,
        "nlp.self_share": share(nlp_self),
        "scalarization.calls": sum(calls[k] for k in scal_names),
        "scalarization.self_s": layer_self["scalarization"],
        "scalarization.anchors_s": incl_s["scalarization.anchors"],
        "scalarization.missed_rays": ray_status.count("infeasible"),
        "epsilon.build_grid_s": incl_s["epsilon.build_grid"],
        "epsilon.self_s": layer_self["epsilon"],
        "epsilon.cells": cells,
        "epsilon.cells_infeasible": sum(i for _, i, _ in eps_runs),
        "epsilon.archive_yield": entries / cells if cells else 0.0,
        "tracer.self_s": layer_self["tracer"] - sum(
            self_s[k] for k in ("tracer.corrector", "tracer.predictor", "tracer.tangent_frame")
        ),
        "tracer.corrector.calls": calls["tracer.corrector"],
        "tracer.corrector.self_s": self_s["tracer.corrector"],
        "tracer.predictor.self_s": self_s["tracer.predictor"],
        "tracer.tangent_frame.self_s": self_s["tracer.tangent_frame"],
        "tracer.accepted_share": (
            trace_points / calls["tracer.corrector"] if calls["tracer.corrector"] else 0.0
        ),
        "util.parallel_map.wall_s": incl_s["util.parallel_map"],
        "util.parallel_map.busy_s": incl_s["util.parallel_map.task"],
        "cli.self_s": self_s["cli.main"],
        "fronts.write_s": incl_s["fronts.write"],
    }
