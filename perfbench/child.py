"""One benchmark process: set-up, then at most one ``hmfront front`` run.

``run.py`` starts this script in a fresh interpreter for every sample,
with ``PYTHONPATH`` pointing at the checkout's ``src`` and BLAS pinned to
one thread.  The only argument is a JSON spec file; the result goes to the
JSON file the spec names.

Set-up is everything before the first solve: interpreter start, importing
hmfront, loading the returns CSV and ``compute_moments``.  It is timed from
the parent's ``time.monotonic()`` reading taken just before the launch.
Mode ``setup`` stops there (the warm-up process); mode ``front`` then times
``cli.main(["front", ...])`` with tracing off; mode ``traced`` does the same
with :class:`tracing.LayerTracer` installed and writes its spans out.
"""

from __future__ import annotations

import gzip
import json
import os
import platform
import resource
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _write_spans(spans, path: str) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps(list(sp)) + "\n")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import hmfront
    from hmfront import cli
    from hmfront.moments import compute_moments, load_returns_csv
    from hmfront.problem import PortfolioMop

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(hmfront.__file__).startswith(src + os.sep):
        print("hmfront imported from %s, not from %s" % (hmfront.__file__, src), file=sys.stderr)
        return 2
    PortfolioMop(moments=compute_moments(load_returns_csv(spec["input"])))
    result: dict = {"setup_s": time.monotonic() - spec["launched"]}

    if spec["mode"] == "setup":
        result["environment"] = _environment()
    else:
        import tracing

        argv = ["front", "--input", spec["input"], "--out", spec["out"]] + spec["args"]
        tracer = None
        if spec["mode"] == "traced":
            tracer = tracing.LayerTracer(spec["run_id"])
            tracer.install()
        else:
            tracing.assert_untraced()
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            front_s = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        tracing.assert_untraced()
        result.update(
            rc=rc,
            front_s=front_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans, front_s)
            result["missing"] = tracing.missing_targets()
            _write_spans(tracer.spans, spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
